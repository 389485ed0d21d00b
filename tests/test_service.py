"""The experiment service: protocol, coalescing, admission, drain, and
crash-safe shared-cache multi-tenancy.

The acceptance bar mirrors the fault suite's: everything the service
returns must be byte-identical to a clean serial computation — under
duplicate storms, client disconnects, overload shedding, SIGTERM drain
plus restart, corrupted cache entries and concurrent multi-process
writers.  Overload must always produce an explicit rejection, never a
hang or a silent drop.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import (BASELINE, PROMOTION, PROMOTION_PACKING,
                          MachineConfig)
from repro.experiments import checkpoint, diskcache, env, runner, scheduler
from repro.experiments.serialize import frontend_result_to_dict
from repro.experiments import breaker as breaker_module
from repro.experiments.breaker import CircuitBreaker
from repro.experiments.scheduler import GridPoint
from repro.service import protocol
from repro.service.client import (ServiceClient, ServiceError,
                                  ServiceOverloaded, ServicePointError,
                                  submit_with_retry)
from repro.service.coalesce import CoalesceTable
from repro.service.server import ExperimentService, ServiceThread

N = 6_000

REPO = Path(__file__).parent.parent

_KNOBS = ("REPRO_DISK_CACHE", "REPRO_FAULTS", "REPRO_RETRIES",
          "REPRO_POINT_TIMEOUT", "REPRO_KEEP_GOING", "REPRO_RESUME",
          "REPRO_CHECKPOINTS", "REPRO_JOBS", "REPRO_VALIDATE",
          "REPRO_CACHE_MAX_MB", "REPRO_ADMIT_MAX",
          "REPRO_CLIENT_BACKLOG", "REPRO_DRAIN_GRACE",
          "REPRO_SERVICE_ADDR", "REPRO_LEASE_TTL", "REPRO_HEARTBEAT",
          "REPRO_FLEET_MIN")


@pytest.fixture(autouse=True)
def fresh_state(tmp_path, monkeypatch):
    """Every test: empty cache dir, no knobs, fast backoff."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for knob in _KNOBS:
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_BACKOFF", "0.01")
    runner.clear_caches()
    yield
    runner.clear_caches()


def _point(config=BASELINE, benchmark="compress", n=N):
    return GridPoint("frontend", benchmark, config, n)


def _result_json(result):
    return json.dumps(frontend_result_to_dict(result), sort_keys=True)


def _service(**kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    kwargs.setdefault("jobs", 1)  # inline in-thread: monkeypatchable
    thread = ServiceThread(**kwargs)
    thread.start()
    return thread


# --- protocol ----------------------------------------------------------------


def test_protocol_message_round_trip():
    message = {"id": 7, "op": "submit", "points": [1, 2]}
    assert protocol.decode(protocol.encode(message)) == message


def test_protocol_point_round_trip():
    for point in (_point(), GridPoint("frontend", "gcc", PROMOTION, 9_000),
                  _point(PROMOTION_PACKING)):
        rebuilt = protocol.point_from_dict(protocol.point_to_dict(point))
        assert rebuilt == point
        assert scheduler.point_key(rebuilt) == scheduler.point_key(point)


def test_protocol_rejects_malformed():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"not json\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2]\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.point_from_dict({"kind": "nonsense"})
    with pytest.raises(protocol.ProtocolError):
        protocol.point_from_dict({"kind": "frontend", "benchmark": "",
                                  "config": {}})
    good = protocol.point_to_dict(_point())
    with pytest.raises(protocol.ProtocolError):
        protocol.point_from_dict({**good, "n": -5})
    with pytest.raises(protocol.ProtocolError):
        protocol.point_from_dict({**good, "config": {"type": "alien"}})
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_deadline("soon")
    with pytest.raises(protocol.ProtocolError):
        protocol.parse_deadline(-3)
    assert protocol.parse_deadline(None) is None
    assert protocol.parse_deadline(2) == 2.0


def test_protocol_line_limit():
    with pytest.raises(protocol.ProtocolError):
        protocol.encode({"blob": "x" * protocol.MAX_LINE})
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"x" * (protocol.MAX_LINE + 1))


def test_get_hostport(monkeypatch):
    default = ("127.0.0.1", 1234)
    assert env.get_hostport("REPRO_SERVICE_ADDR", default) == default
    monkeypatch.setenv("REPRO_SERVICE_ADDR", "0.0.0.0:9000")
    assert env.get_hostport("REPRO_SERVICE_ADDR", default) == \
        ("0.0.0.0", 9000)
    monkeypatch.setenv("REPRO_SERVICE_ADDR", ":9100")
    assert env.get_hostport("REPRO_SERVICE_ADDR", default) == \
        ("127.0.0.1", 9100)
    monkeypatch.setenv("REPRO_SERVICE_ADDR", "9200")
    assert env.get_hostport("REPRO_SERVICE_ADDR", default) == \
        ("127.0.0.1", 9200)
    monkeypatch.setenv("REPRO_SERVICE_ADDR", "host:notaport")
    with pytest.warns(RuntimeWarning, match="REPRO_SERVICE_ADDR"):
        assert env.get_hostport("REPRO_SERVICE_ADDR", default) == default


# --- circuit breaker ---------------------------------------------------------


def test_breaker_trips_after_threshold():
    clock = [0.0]
    b = CircuitBreaker(threshold=3, cooldown=10.0, clock=lambda: clock[0])
    assert b.state == breaker_module.CLOSED
    for _ in range(2):
        b.record_break()
    assert b.state == breaker_module.CLOSED and b.allow_pool()
    b.record_break()
    assert b.state == breaker_module.OPEN and not b.allow_pool()


def test_breaker_success_resets_strikes():
    b = CircuitBreaker(threshold=2, cooldown=10.0)
    b.record_break()
    b.record_success()  # strikes count *consecutive* breaks
    b.record_break()
    assert b.state == breaker_module.CLOSED


def test_breaker_half_open_probe():
    clock = [0.0]
    b = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: clock[0])
    b.record_break()
    assert not b.allow_pool()
    clock[0] = 6.0  # cooldown elapsed: probe allowed
    assert b.state == breaker_module.HALF_OPEN
    assert b.allow_pool()
    b.record_success()
    assert b.state == breaker_module.CLOSED
    # Failed probe path: re-open and restart the cooldown clock.
    b.record_break()
    clock[0] = 12.0
    assert b.allow_pool()
    b.record_break()
    assert not b.allow_pool()
    assert b.stats()["trips"] == 3
    clock[0] = 18.0
    assert b.allow_pool()


# --- file locks, quarantine, quota (shared-cache multi-tenancy) --------------


def test_filelock_mutual_exclusion_and_timeout():
    with diskcache.FileLock("t", timeout=5.0):
        contender = diskcache.FileLock("t", timeout=0.2, poll=0.01)
        with pytest.raises(diskcache.LockTimeout):
            contender.acquire()
    # Released: immediately acquirable again.
    with diskcache.FileLock("t", timeout=1.0):
        pass


def test_filelock_breaks_dead_owner():
    lock_path = diskcache.lock_dir() / "t.lock"
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_text("999999999")  # a pid that cannot exist
    start = time.monotonic()
    with diskcache.FileLock("t", timeout=5.0, poll=0.01):
        pass
    assert time.monotonic() - start < 2.0  # broken, not waited out


def test_filelock_breaks_unparseable_stale_file(monkeypatch):
    lock_path = diskcache.lock_dir() / "t.lock"
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    lock_path.write_text("garbage")
    old = time.time() - 2 * diskcache.STALE_LOCK_SECONDS
    os.utime(lock_path, (old, old))
    with diskcache.FileLock("t", timeout=5.0, poll=0.01):
        pass


def test_filelock_lockless_degradation(tmp_path, monkeypatch):
    blocked = tmp_path / "nope"
    blocked.write_text("a file, not a directory")
    lock = diskcache.FileLock("t", directory=blocked / "locks", timeout=1.0)
    with lock:  # acquire degrades instead of failing the experiment
        assert lock._lockless


def test_corrupt_cache_entry_is_quarantined():
    key = "ab" * 32
    diskcache.store(key, "frontend", {"x": 1})
    assert diskcache.load(key) == {"x": 1}
    diskcache.entry_path(key).write_text("{ torn")
    assert diskcache.load(key) is None
    assert not diskcache.entry_path(key).exists()
    quarantined = list(diskcache.quarantine_dir().glob("*.quarantined"))
    assert len(quarantined) == 1
    assert "torn" in quarantined[0].read_text()
    assert diskcache.cache_stats()["quarantined"] == 1
    # Non-UTF-8 garbage (what the corrupt-cache fault stamps) must take
    # the same quarantine path, not raise out of the loader.
    diskcache.entry_path(key).write_bytes(b"\xde\xad\xbe\xef{corrupt")
    assert diskcache.load(key) is None
    assert diskcache.cache_stats()["quarantined"] == 2


def test_quota_evicts_lru_but_never_pinned(monkeypatch):
    payload = {"blob": "x" * 4096}
    keys = [format(i, "x") * 32 for i in range(1, 6)]
    for key in keys:
        diskcache.store(key, "frontend", payload)
    sizes = diskcache.cache_stats()
    per_entry = sizes["bytes"] // sizes["entries"]
    # Room for roughly two entries; pin the oldest so LRU must skip it.
    monkeypatch.setenv("REPRO_CACHE_MAX_MB",
                       str(2.5 * per_entry / (1024 * 1024)))
    now = time.time()
    for age, key in enumerate(keys):  # keys[0] newest .. keys[-1] oldest
        os.utime(diskcache.entry_path(key), (now - age, now - age))
    diskcache.pin(keys[-1])  # oldest mtime, but pinned
    evicted = diskcache.enforce_quota()
    assert evicted >= 1
    assert diskcache.entry_path(keys[-1]).exists()  # pinned survived
    assert diskcache.entry_path(keys[0]).exists()   # most recent survived
    assert not diskcache.entry_path(keys[-2]).exists()  # true LRU went
    diskcache.unpin(keys[-1])
    stats = diskcache.cache_stats()
    assert stats["pinned"] == 0
    assert stats["quota_bytes"] is not None


def test_store_touch_on_hit_refreshes_lru(monkeypatch):
    key_old, key_new = "1a" * 32, "2b" * 32
    diskcache.store(key_old, "frontend", {"v": 1})
    diskcache.store(key_new, "frontend", {"v": 2})
    past = time.time() - 1000
    os.utime(diskcache.entry_path(key_old), (past, past))
    os.utime(diskcache.entry_path(key_new), (past + 1, past + 1))
    assert diskcache.load(key_old) == {"v": 1}  # hit refreshes mtime
    per_entry = diskcache.cache_stats()["bytes"] // 2
    monkeypatch.setenv("REPRO_CACHE_MAX_MB",
                       str(1.5 * per_entry / (1024 * 1024)))
    diskcache.enforce_quota()
    assert diskcache.entry_path(key_old).exists()
    assert not diskcache.entry_path(key_new).exists()


def test_dead_pid_pins_are_ignored():
    key = "cd" * 32
    diskcache.store(key, "frontend", {"x": 1})
    pin_dir = diskcache.pin_dir()
    pin_dir.mkdir(parents=True, exist_ok=True)
    # Legacy one-file-per-key pin (pid in the content) and the current
    # per-(key, pid) format must both be recognised and swept when dead.
    legacy = pin_dir / f"{key}.pin"
    legacy.write_text("999999999")
    modern = pin_dir / f"{key}.999999998.pin"
    modern.write_text("999999998")
    assert diskcache.pinned_keys() == set()
    assert not legacy.exists()  # dead pins swept
    assert not modern.exists()


def test_pins_are_per_process():
    """Two services sharing a cache dir pin the same key: one process
    dropping its pin must not strip the other's still-in-flight
    protection (pid 1 stands in for the live sibling process)."""
    key = "ab" * 32
    pin_dir = diskcache.pin_dir()
    pin_dir.mkdir(parents=True, exist_ok=True)
    sibling = pin_dir / f"{key}.1.pin"
    sibling.write_text("1")
    diskcache.pin(key)
    assert key in diskcache.pinned_keys()
    diskcache.unpin(key)  # our flight finished; the sibling's has not
    assert key in diskcache.pinned_keys()
    assert sibling.exists()
    sibling.unlink()
    assert diskcache.pinned_keys() == set()


def test_cache_stats_index_self_heals():
    key = "ef" * 32
    diskcache.store(key, "frontend", {"x": 1})
    (diskcache.cache_dir() / "index.json").write_text("garbage")
    stats = diskcache.cache_stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0


def test_clear_caches_disk_leaves_no_orphans():
    """A full disk wipe must not leave journals, empty bookkeeping dirs,
    pins or lock files."""
    runner.frontend_result("compress", BASELINE, N)
    checkpoint.Journal(["a" * 64]).record("a" * 64, "frontend", {"v": 1})
    diskcache.pin("ab" * 32)
    diskcache.entry_path("ab" * 32).write_text("{ torn")
    diskcache.load("ab" * 32)  # quarantine it
    runner.clear_caches(disk=True)
    root = diskcache.cache_dir()
    leftovers = sorted(p.relative_to(root).as_posix()
                       for p in root.rglob("*") if not p.is_dir())
    assert leftovers == []
    for name in ("checkpoints", "divergences", "locks", "pins",
                 "quarantine"):
        assert not (root / name).exists(), name


# --- service end-to-end ------------------------------------------------------


def test_submit_matches_direct_computation():
    expected = _result_json(runner.frontend_result("compress", BASELINE, N))
    runner.clear_caches(disk=True)  # make the service compute it fresh
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            assert client.ping()["type"] == "pong"
            results = client.submit([_point()])
            assert _result_json(results[0]) == expected
            # Second submission: served from cache, still identical.
            results2 = client.submit([_point()])
            assert _result_json(results2[0]) == expected
            status = client.status()
            assert status["counters"]["computed_ok"] == 1
            assert status["counters"]["cache_hits"] >= 1
    finally:
        service.stop()


def test_submit_mixed_grid_and_journal_resume():
    service = _service()
    try:
        host, port = service.start()
        points = [_point(BASELINE), _point(PROMOTION_PACKING)]
        with ServiceClient(host, port) as client:
            first = client.submit(points)
            assert len(first) == 2
        # A fresh in-process memo but a warm disk cache: resubmitting is
        # pure cache hits, byte-identical.
        memo_results = [_result_json(r) for r in first]
        runner.clear_caches(disk=False)
        with ServiceClient(host, port) as client:
            again = client.submit(points)
            assert [_result_json(r) for r in again] == memo_results
    finally:
        service.stop()


def test_duplicate_storm_coalesces_to_one_computation(monkeypatch):
    """1000 duplicate submissions of one point -> at most 2 computations
    (the acceptance bound; the design target is exactly 1)."""
    computed = []
    gate = threading.Event()
    real = scheduler._run_point

    def gated(point, engine=None):
        computed.append(point)
        gate.wait(timeout=60)
        return real(point, engine)

    monkeypatch.setattr(scheduler, "_run_point", gated)
    service = _service(client_backlog=2000, admit_max=64)
    try:
        with ServiceClient(*service.start(), timeout=120) as client:
            ids = [client.submit_nowait([_point()]) for _ in range(1000)]
            gate.set()
            raws = [client.result(i, raw=True) for i in ids]
            payloads = {json.dumps(r[0]["payload"], sort_keys=True)
                        for r in raws}
            assert len(payloads) == 1
            assert all(r[0]["status"] == "ok" for r in raws)
            status = client.status()
            assert status["coalesce"]["created_total"] <= 2
            # Every duplicate either attached to the in-flight
            # computation or (after it finished) hit the warm cache.
            counters = status["counters"]
            served_free = (status["coalesce"]["coalesced_total"]
                           + counters["cache_hits"]
                           + counters["journal_hits"])
            assert served_free >= 998
    finally:
        gate.set()
        service.stop()
    assert len(computed) <= 2


def test_overload_produces_explicit_rejection(monkeypatch):
    gate = threading.Event()
    real = scheduler._run_point

    def gated(point, engine=None):
        gate.wait(timeout=60)
        return real(point, engine)

    monkeypatch.setattr(scheduler, "_run_point", gated)
    service = _service(admit_max=1)
    try:
        with ServiceClient(*service.start(), timeout=120) as client:
            blocker = client.submit_nowait([_point(BASELINE)])
            deadline = time.monotonic() + 30
            while client.status()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServiceOverloaded) as caught:
                client.submit([_point(PROMOTION_PACKING)])
            assert caught.value.reason == "overloaded"
            assert caught.value.retry_after > 0
            # Duplicates of the in-flight point are free: they attach.
            dup = client.submit_nowait([_point(BASELINE)])
            gate.set()
            assert client.result(blocker)[0] is not None
            assert client.result(dup)[0] is not None
            # With capacity back, the rejected point goes through on
            # retry-with-backoff.
            results = submit_with_retry(client,
                                        [_point(PROMOTION_PACKING)],
                                        base=0.01)
            assert results[0] is not None
    finally:
        gate.set()
        service.stop()


def test_client_backlog_rejection(monkeypatch):
    gate = threading.Event()
    real = scheduler._run_point

    def gated(point, engine=None):
        gate.wait(timeout=60)
        return real(point, engine)

    monkeypatch.setattr(scheduler, "_run_point", gated)
    service = _service(client_backlog=1, admit_max=64)
    try:
        with ServiceClient(*service.start(), timeout=120) as client:
            first = client.submit_nowait([_point(BASELINE)])
            deadline = time.monotonic() + 30
            while client.status()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(ServiceOverloaded) as caught:
                client.submit([_point(PROMOTION_PACKING)])
            assert caught.value.reason == "client-backlog"
            gate.set()
            client.result(first)
    finally:
        gate.set()
        service.stop()


def test_admission_reserves_window_before_attach():
    """The overload check and its reservation are one atomic step:
    concurrent submissions whose preparation is still awaiting journal
    and cache IO must not all be admitted against the same stale
    in-flight count."""
    from types import SimpleNamespace

    service = ExperimentService(host="127.0.0.1", port=0, jobs=1,
                                admit_max=1)
    conn = SimpleNamespace(active=0)
    key_a, key_b = "aa" * 32, "bb" * 32
    rejection, reserved = service._admission_answer(conn, [key_a], {})
    assert rejection is None and reserved == [key_a]
    # The window is exhausted *before* key_a ever reaches the table.
    rejection, extra = service._admission_answer(conn, [key_b], {})
    assert extra == []
    assert rejection is not None and rejection[0] == "overloaded"
    # Concurrent duplicates of the reserved key are free: they will
    # coalesce onto its one computation, like duplicates of an
    # in-flight key.
    rejection, extra = service._admission_answer(conn, [key_a], {})
    assert rejection is None and extra == []
    # Journaled points stay free even while the window is full: a
    # resubmission of an interrupted grid must never be rejected for
    # work it already finished.
    rejection, extra = service._admission_answer(
        conn, [key_b], {key_b: ("frontend", {})})
    assert rejection is None and extra == []
    # Releasing the reservation (preparation finished) reopens it.
    service._release_reservations(reserved)
    rejection, reserved = service._admission_answer(conn, [key_b], {})
    assert rejection is None and reserved == [key_b]


def test_preparation_failure_never_strands_coalesce_entries(monkeypatch):
    """A failure between attaching a coalesce entry and spawning its
    drive task (here: attaching the second point of the submission
    blowing up) must tear the taskless entry down — a stranded entry
    would hang every later duplicate until drain and leak its
    disk-cache pin."""
    real = CoalesceTable.attach
    calls = []

    def exploding(self, key, point, loop):
        calls.append(key)
        if len(calls) == 2:
            raise RuntimeError("coalesce attach exploded")
        return real(self, key, point, loop)

    monkeypatch.setattr(CoalesceTable, "attach", exploding)
    service = _service()
    try:
        with ServiceClient(*service.start(), timeout=60) as client:
            with pytest.raises(ServiceError, match="attach exploded"):
                client.submit([_point(BASELINE), _point(PROMOTION_PACKING)])
            status = client.status()
            assert status["in_flight"] == 0
            assert status["admission_reserved"] == 0
            assert diskcache.pinned_keys() == set()
            # The key is not wedged on a dead entry: resubmitting it
            # computes normally (the third attach delegates to the real
            # table).
            results = client.submit([_point(BASELINE)])
            assert results[0] is not None
            assert client.status()["counters"]["computed_ok"] == 1
    finally:
        service.stop()


def test_preparation_error_answers_client(monkeypatch):
    """A cache probe that raises during preparation answers the client
    with an error at once and leaves no entry, reservation, pin, task
    or journal behind."""
    def exploding(point, key=None):
        raise RuntimeError("cache probe exploded")

    monkeypatch.setattr(scheduler, "_cached_payload", exploding)
    service = _service()
    try:
        with ServiceClient(*service.start(), timeout=60) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError, match="cache probe exploded"):
                client.submit([_point(BASELINE), _point(PROMOTION_PACKING)])
            assert time.monotonic() - start < 10
            status = client.status()
            assert status["in_flight"] == 0
            assert status["admission_reserved"] == 0
            assert status["counters"]["submissions"] == 0
            assert diskcache.pinned_keys() == set()
            assert not service.service._drive_tasks
            assert not checkpoint.checkpoint_dir().exists() \
                or not any(checkpoint.checkpoint_dir().iterdir())
    finally:
        service.stop()


def _spy_thread_hops(monkeypatch):
    """Record the function of every ``asyncio.to_thread`` call."""
    import asyncio
    hops = []
    real = asyncio.to_thread

    def spy(func, *args, **kwargs):
        hops.append(func)
        return real(func, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", spy)
    return hops


def _wire(payload):
    """The bytes a payload travels as inside a reply."""
    return protocol.encode({"payload": payload})


def test_warm_hit_is_one_thread_hop_without_journal(monkeypatch):
    """A hit-only single-point submit makes one thread hop, writes no
    checkpoint journal, and replies with the stored payload bytes."""
    machine = GridPoint("machine", "compress", MachineConfig(frontend=BASELINE),
                        2_000, warmup=False)
    direct = {
        "frontend": runner.frontend_result("compress", BASELINE, N),
        "machine": runner.machine_result("compress", machine.config, 2_000,
                                         warmup=False)}
    runner.clear_caches(disk=False)  # the service reads the disk cache
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            hops = _spy_thread_hops(monkeypatch)
            for point in (_point(), machine):
                key = scheduler.point_key(point.resolved())
                del hops[:]
                raw = client.result(client.submit_nowait([point]), raw=True)
                assert [h.__name__ for h in hops] == ["_prepare"]
                assert raw[0]["status"] == "ok"
                stored = diskcache.load(key)
                assert _wire(raw[0]["payload"]) == _wire(stored)
                assert _wire(raw[0]["payload"]) == _wire(
                    protocol.result_to_payload(point.kind,
                                               direct[point.kind]))
            status = client.status()
            assert status["counters"]["cache_hits"] == 2
            assert status["counters"]["computed_ok"] == 0
            assert status["checkpoints"]["entries"] == 0
        root = checkpoint.checkpoint_dir()
        assert not root.exists() or not any(root.iterdir())
    finally:
        service.stop()


def test_memo_hit_replies_without_disk(monkeypatch):
    """A point already in the in-process memo is answered (encoded from
    the memo) even when its disk entry is gone."""
    point = _point()
    key = scheduler.point_key(point.resolved())
    expected = _wire(frontend_result_to_dict(
        runner.frontend_result("compress", BASELINE, N)))
    diskcache.entry_path(key).unlink()
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            raw = client.result(client.submit_nowait([point]), raw=True)
            assert raw[0]["status"] == "ok"
            assert _wire(raw[0]["payload"]) == expected
            counters = client.status()["counters"]
            assert counters["cache_hits"] == 1
            assert counters["computed_ok"] == 0
    finally:
        service.stop()


def test_undecodable_cache_payload_is_recomputed_by_submit():
    """A cache entry whose payload does not decode is quarantined and
    recomputed, not served and not raised to the client."""
    expected = _result_json(runner.frontend_result("compress", BASELINE, N))
    runner.clear_caches(disk=True)
    key = scheduler.point_key(_point().resolved())
    diskcache.store(key, "frontend", {"bogus": 1})
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            results = client.submit([_point()])
            assert _result_json(results[0]) == expected
            status = client.status()
            assert status["counters"]["computed_ok"] == 1
            assert status["cache"]["quarantined"] == 1
    finally:
        service.stop()


def _raw_reply(host, port, points, reply_id=7):
    """Submit over a bare socket; the reply line exactly as sent."""
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(protocol.encode({
            "id": reply_id, "op": "submit",
            "points": [protocol.point_to_dict(p) for p in points]}))
        with sock.makefile("rb") as stream:
            return stream.readline()


def _machine_point():
    return GridPoint("machine", "compress", MachineConfig(frontend=BASELINE),
                     2_000, warmup=False)


def test_disk_hit_reply_is_the_encoding_of_its_payload():
    """A disk hit's reply carries the stored payload text as it is, and
    the line is byte-identical to ``protocol.encode`` of the parsed
    reply, for front-end and machine points."""
    runner.frontend_result("compress", BASELINE, N)
    runner.machine_result("compress", _machine_point().config, 2_000,
                          warmup=False)
    runner.clear_caches(disk=False)
    for point in (_point(), _machine_point()):
        stored = diskcache.load(scheduler.point_key(point))
        assert isinstance(stored, diskcache.StoredPayload)
        assert json.loads(stored.text) == stored
    service = _service()
    try:
        host, port = service.start()
        line = _raw_reply(host, port, [_point(), _machine_point()])
        reply = json.loads(line)
        assert reply["type"] == "done"
        assert [r["status"] for r in reply["results"]] == ["ok", "ok"]
        assert line == protocol.encode(reply)
        for point, entry in zip((_point(), _machine_point()),
                                reply["results"]):
            key = scheduler.point_key(point)
            assert entry["key"] == key
            assert entry["payload"] == diskcache.load(key)
    finally:
        service.stop()


def test_encode_splices_stored_payload_text():
    """``protocol.encode`` of a done reply holding stored payloads is the
    same bytes as encoding plain dicts."""
    key = "ab" * 32
    diskcache.store(key, "frontend", {"b": [1, 2.5], "a": {"z": None}})
    stored = diskcache.load(key)
    assert isinstance(stored, diskcache.StoredPayload)
    message = {"type": "done", "id": "x", "results": [
        {"key": key, "kind": "frontend", "status": "ok", "payload": stored},
        {"key": "k", "kind": "frontend", "status": "error",
         "retryable": True, "error": "e"}]}
    plain = json.loads(json.dumps(message))
    assert protocol.encode(message) == protocol.encode(plain)
    assert protocol.encode(message) == (json.dumps(
        plain, sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_non_canonical_entry_replies_through_reencoding():
    """An entry stored with other spacing loads as a plain dict and its
    hit is encoded again, with the same reply as a canonical entry."""
    expected = frontend_result_to_dict(
        runner.frontend_result("compress", BASELINE, N))
    runner.clear_caches(disk=False)
    key = scheduler.point_key(_point().resolved())
    canonical = diskcache.entry_path(key).read_bytes()
    diskcache.entry_path(key).write_text(json.dumps(
        json.loads(canonical), indent=1))
    loaded = diskcache.load(key)
    assert loaded == expected
    assert not isinstance(loaded, diskcache.StoredPayload)
    service = _service()
    try:
        host, port = service.start()
        line = _raw_reply(host, port, [_point()])
        reply = json.loads(line)
        assert reply["results"][0]["status"] == "ok"
        assert reply["results"][0]["payload"] == expected
        assert line == protocol.encode(reply)
        # The same bytes a canonical entry gives.
        diskcache.entry_path(key).write_bytes(canonical)
        runner.clear_caches(disk=False)
        assert _raw_reply(host, port, [_point()]) == line
    finally:
        service.stop()


def _spy_journals(monkeypatch):
    """Record every checkpoint journal the service builds."""
    built = []
    real = checkpoint.Journal

    def spy(keys):
        built.append(list(keys))
        return real(keys)

    monkeypatch.setattr(checkpoint, "Journal", spy)
    return built


def test_all_hit_submission_builds_no_journal(monkeypatch):
    """A submission the cache answers whole makes its one preparation
    hop and never builds or replays a checkpoint journal."""
    points = [_point(BASELINE), _point(PROMOTION)]
    for point in points:
        runner.frontend_result(point.benchmark, point.config, N)
    runner.clear_caches(disk=False)
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            built = _spy_journals(monkeypatch)
            hops = _spy_thread_hops(monkeypatch)
            raw = client.result(client.submit_nowait(points), raw=True)
            assert [r["status"] for r in raw] == ["ok", "ok"]
            assert [h.__name__ for h in hops] == ["_prepare"]
            assert built == []
            assert client.status()["counters"]["cache_hits"] == 2
    finally:
        service.stop()


def test_mixed_submission_serves_journaled_points_from_the_journal(
        monkeypatch):
    """With one point left to compute, the submission's journal is
    replayed, and a journaled point is served from it even though the
    cache holds it too."""
    points = [_point(BASELINE), _point(PROMOTION), _point(PROMOTION_PACKING)]
    keys = [scheduler.point_key(p.resolved()) for p in points]
    payloads = {}
    for point, key in zip(points[:2], keys):
        payloads[key] = frontend_result_to_dict(
            runner.frontend_result(point.benchmark, point.config, N))
    runner.clear_caches(disk=False)
    # The second point is journaled only: its cache entry is gone.
    diskcache.entry_path(keys[1]).unlink()
    journal = checkpoint.Journal(keys)
    for key in keys[:2]:
        journal.record(key, "frontend", payloads[key])
    journal.close()
    service = _service()
    try:
        with ServiceClient(*service.start()) as client:
            built = _spy_journals(monkeypatch)
            raw = client.result(client.submit_nowait(points), raw=True)
            assert [r["status"] for r in raw] == ["ok"] * 3
            for entry, key in zip(raw, keys[:2]):
                assert _wire(entry["payload"]) == _wire(payloads[key])
            assert [sorted(b) for b in built] == [sorted(keys)]
            counters = client.status()["counters"]
            assert counters["journal_hits"] == 2
            assert counters["cache_hits"] == 0
            assert counters["computed_ok"] == 1
        # The clean run dropped the journal.
        assert not journal.path.exists()
    finally:
        service.stop()


def test_disconnect_does_not_cancel_computation(monkeypatch):
    gate = threading.Event()
    real = scheduler._run_point

    def gated(point, engine=None):
        gate.wait(timeout=60)
        return real(point, engine)

    monkeypatch.setattr(scheduler, "_run_point", gated)
    service = _service()
    try:
        host, port = service.start()
        client = ServiceClient(host, port, timeout=120)
        client.submit_nowait([_point()])
        deadline = time.monotonic() + 30
        with ServiceClient(host, port) as probe:
            while probe.status()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.close()  # walk away mid-computation
            gate.set()
            while probe.status()["counters"]["computed_ok"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # The orphaned computation finished, warmed the shared
            # cache, and tore its coalescing entry down.
            assert probe.status()["in_flight"] == 0
            key = scheduler.point_key(_point().resolved())
            assert diskcache.entry_path(key).exists()
    finally:
        gate.set()
        service.stop()


def test_drain_answers_inflight_with_retryable_error(monkeypatch):
    gate = threading.Event()

    def stuck(point, engine=None):
        gate.wait(timeout=60)
        raise OSError("interrupted by drain")

    monkeypatch.setattr(scheduler, "_run_point", stuck)
    service = _service(drain_grace=0.2)
    try:
        with ServiceClient(*service.start(), timeout=120) as client:
            pending = client.submit_nowait([_point()])
            deadline = time.monotonic() + 30
            while client.status()["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert client.drain()["type"] == "draining"
            rows = client.result(pending, raw=True)
            assert rows[0]["status"] == "error"
            assert rows[0]["retryable"] is True
    finally:
        gate.set()
        service.stop()


def test_rejects_while_draining():
    service = _service(drain_grace=0.1)
    try:
        host, port = service.start()
        with ServiceClient(host, port) as client:
            client.drain()
            with pytest.raises((ServiceOverloaded, ServiceError)):
                client.submit([_point()])
    finally:
        service.stop()


def test_deterministic_failure_reports_not_hangs(monkeypatch):
    def broken(point, engine=None):
        raise ValueError("simulated bug")

    monkeypatch.setattr(scheduler, "_run_point", broken)
    service = _service()
    try:
        with ServiceClient(*service.start(), timeout=60) as client:
            with pytest.raises(ServicePointError) as caught:
                client.submit([_point()])
            assert caught.value.retryable is False
            assert "simulated bug" in caught.value.error
    finally:
        service.stop()


def test_deadline_bounds_the_wait(monkeypatch):
    gate = threading.Event()
    real = scheduler._run_point

    def gated(point, engine=None):
        gate.wait(timeout=60)
        return real(point, engine)

    monkeypatch.setattr(scheduler, "_run_point", gated)
    service = _service()
    try:
        with ServiceClient(*service.start(), timeout=60) as client:
            start = time.monotonic()
            rows = client.submit([_point()], deadline=0.5, raw=True)
            elapsed = time.monotonic() - start
            assert rows[0]["status"] == "error"
            assert rows[0]["retryable"] is True
            assert "deadline" in rows[0]["error"]
            assert elapsed < 30
    finally:
        gate.set()
        service.stop()


def test_deadline_point_timeout_math():
    points = [_point(BASELINE), _point(PROMOTION_PACKING)]
    base = scheduler.deadline_point_timeout(points, 10.0)
    scale = sum(max(1.0, scheduler.estimated_cost(p) / 100_000)
                for p in points)
    assert base == pytest.approx(10.0 / scale)
    assert scheduler.deadline_point_timeout(points, None) is None
    assert scheduler.deadline_point_timeout([], 10.0) is None
    assert scheduler.deadline_point_timeout(points, -1.0) is None


def test_unknown_op_and_bad_submit_answer_errors():
    service = _service()
    try:
        host, port = service.start()
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(protocol.encode({"id": 1, "op": "warp"}))
            handle.write(protocol.encode({"id": 2, "op": "submit",
                                          "points": []}))
            handle.write(b"garbage that is not json\n")
            handle.flush()
            replies = [protocol.decode(handle.readline()) for _ in range(3)]
        assert all(reply["type"] == "error" for reply in replies)
        # Submit errors are answered from a task, so ordering is loose.
        assert {reply["id"] for reply in replies} == {1, 2, None}
    finally:
        service.stop()


# --- multi-process shared cache ----------------------------------------------

_HAMMER = """
import json, os, sys
from repro.experiments import diskcache

seed = int(sys.argv[1])
shared_key = "ab" * 32
payload = {{"blob": "x" * 2048, "tag": "shared"}}
for i in range(120):
    diskcache.store(shared_key, "frontend", payload)
    got = diskcache.load(shared_key)
    assert got is None or got == payload, got
    churn_key = format(seed * 1000 + i, "x").rjust(64, "0")
    diskcache.store(churn_key, "frontend", {{"i": i, "seed": seed}})
print("OK")
"""


def test_concurrent_writers_never_tear_entries():
    """N processes hammer the same key (plus quota churn): every read is
    byte-identical or a clean miss, and no torn files survive."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = str(REPO / "src")
    child_env["REPRO_CACHE_MAX_MB"] = "0.2"  # force eviction churn
    children = [
        subprocess.Popen([sys.executable, "-c", _HAMMER.format(),
                          str(seed)],
                         env=child_env, cwd=REPO,
                         stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
        for seed in range(4)
    ]
    for child in children:
        out, err = child.communicate(timeout=180)
        assert child.returncode == 0, err.decode()
        assert out.decode().strip() == "OK"
    # No torn temp files; whatever entries survived all parse cleanly.
    assert list(diskcache.cache_dir().glob("*.tmp")) == []
    for path in diskcache.cache_dir().glob("*.json"):
        if path.name == "index.json":
            continue
        json.loads(path.read_text())
    got = diskcache.load("ab" * 32)
    assert got is None or got == {"blob": "x" * 2048, "tag": "shared"}


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_stale_lock_takeover_after_sigkill():
    """SIGKILL a writer holding the index lock mid-store: the next
    contender detects the dead pid and takes the lock over."""
    script = (
        "import time\n"
        "from repro.experiments import diskcache\n"
        "lock = diskcache.FileLock('cache-index', timeout=5)\n"
        "lock.acquire()\n"
        "print('held', flush=True)\n"
        "time.sleep(600)\n"
    )
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = str(REPO / "src")
    child = subprocess.Popen([sys.executable, "-c", script], env=child_env,
                             cwd=REPO, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    try:
        assert child.stdout.readline().strip() == b"held"
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        start = time.monotonic()
        with diskcache.FileLock("cache-index", timeout=10.0, poll=0.01):
            pass
        assert time.monotonic() - start < 5.0
        # And the lock still works end-to-end: a store accounts cleanly.
        diskcache.store("cd" * 32, "frontend", {"x": 1})
        assert diskcache.cache_stats()["entries"] >= 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)


# --- SIGTERM drain + restart resume (chaos) ----------------------------------

_SERVE = """
import sys
from repro.service import serve
serve("127.0.0.1", int(sys.argv[1]), jobs=2)
"""


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_sigterm_drain_and_restart_resume():
    """SIGTERM a real service process mid-computation: the drain answers
    the client (journaled points ok, stragglers retryable), and a
    restarted service serves the full grid byte-identical to a clean
    serial run — recomputing only what was never journaled or cached."""
    port = _free_port()
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = str(REPO / "src")
    child_env["REPRO_DRAIN_GRACE"] = "1.0"
    # Ordinal 1 (the second computation the service starts) hangs; the
    # drain must not wait out the 600s.
    child_env["REPRO_FAULTS"] = "hang:p1:600"

    def spawn():
        return subprocess.Popen([sys.executable, "-c", _SERVE, str(port)],
                                env=child_env, cwd=REPO,
                                start_new_session=True,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def wait_ready():
        deadline = time.monotonic() + 60
        while True:
            try:
                with ServiceClient("127.0.0.1", port, timeout=5) as probe:
                    probe.ping()
                return
            except (OSError, ServiceError):
                assert time.monotonic() < deadline
                time.sleep(0.1)

    points = [_point(BASELINE), _point(PROMOTION_PACKING)]
    child = spawn()
    try:
        wait_ready()
        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            pending = client.submit_nowait(points)
            deadline = time.monotonic() + 60
            while client.status()["counters"]["computed_ok"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            os.kill(child.pid, signal.SIGTERM)
            rows = client.result(pending, raw=True)
        statuses = sorted(row["status"] for row in rows)
        assert statuses == ["error", "ok"]
        for row in rows:
            if row["status"] == "error":
                assert row["retryable"] is True
        child.wait(timeout=60)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=30)

    # Restart without faults: the journaled/cached point is not
    # recomputed, the straggler is, and everything matches a clean
    # serial computation in this process.
    child_env.pop("REPRO_FAULTS")
    child = spawn()
    try:
        wait_ready()
        with ServiceClient("127.0.0.1", port, timeout=120) as client:
            results = client.submit(points)
            status = client.status()
            assert status["counters"]["computed_ok"] <= 1
        child.wait  # (drained below)
    finally:
        try:
            os.killpg(child.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        child.wait(timeout=60)

    runner.clear_caches(disk=True)
    clean = [runner.frontend_result(p.benchmark, p.config, p.n)
             for p in points]
    assert [_result_json(r) for r in results] == \
        [_result_json(r) for r in clean]


# --- worker-fleet heartbeat failover (chaos) ---------------------------------


@pytest.mark.skipif(os.name != "posix", reason="POSIX signals")
def test_worker_sigkill_failover_recomputes_elsewhere():
    """SIGKILL a fleet worker mid-point: the dropped connection revokes
    its lease, the point requeues onto the surviving worker, and the
    answer is byte-identical to a clean in-process computation."""
    from repro.service.server import ServiceThread

    service = ServiceThread(host="127.0.0.1", port=0, jobs=1,
                            lease_ttl=5.0, heartbeat=0.25)
    service.start()
    host, port = service.service.host, service.service.port

    def spawn_worker(name, extra_env=None):
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = str(REPO / "src")
        child_env.update(extra_env or {})
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", f"{host}:{port}",
             "--name", name, "--quiet"],
            env=child_env, cwd=REPO, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def fleet_status(client):
        return client.status()["fleet"]

    def wait_until(predicate, timeout=60.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "timed out waiting"
            time.sleep(0.05)

    point = _point()
    # Worker A hangs on its first computation (armed worker, ordinal 0);
    # worker B runs clean.
    victim = spawn_worker("w-victim",
                          {"REPRO_FAULTS": "hang:p0:600"})
    survivor = None
    try:
        with ServiceClient(host, port, timeout=120) as client:
            wait_until(lambda: len(fleet_status(client)["workers"]) == 1)
            pending = client.submit_nowait([point])
            # The hung point must be leased to the victim before the axe.
            wait_until(lambda: any(
                lease["worker"] == "w-victim"
                for lease in fleet_status(client)["leases"]))
            survivor = spawn_worker("w-survivor")
            wait_until(lambda: len(fleet_status(client)["workers"]) == 2)
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            results = client.result(pending)
            fleet = fleet_status(client)
        assert fleet["requeued_total"] >= 1
        by_worker = {w["worker"]: w for w in fleet["workers"]}
        assert by_worker["w-survivor"]["completed"] == 1
        assert len(results) == 1
    finally:
        for child in (victim, survivor):
            if child is None:
                continue
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait(timeout=30)
        service.stop()

    runner.clear_caches(disk=True)
    clean = runner.frontend_result(point.benchmark, point.config, point.n)
    assert _result_json(results[0]) == _result_json(clean)
