"""The worker fleet: leases, heartbeat failover, and event streaming.

The acceptance bar is the service suite's, extended to remote
execution: a grid computed by fleet workers must be byte-identical to a
clean serial run, no matter which worker dies mid-point — a lost
connection or a missed heartbeat revokes the lease, the point requeues
(on another worker, the pool, or inline), and a revoked-then-completed
duplicate is dropped as stale, never double-stored.  The event stream
must narrate all of it in order.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.config import BASELINE, PROMOTION
from repro.experiments import env, faults, runner, scheduler
from repro.experiments.scheduler import GridPoint
from repro.experiments.serialize import frontend_result_to_dict
from repro.service import events as events_mod
from repro.service.client import (ServiceClient, ServiceOverloaded,
                                  submit_with_retry)
from repro.service.fleet import Fleet, LeaseRevoked, RemotePointError
from repro.service.server import ServiceThread
from repro.service.worker import FleetWorker

N = 6_000

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
    return GridPoint("frontend", benchmark, config, n).resolved()


def _result_json(result):
    return json.dumps(frontend_result_to_dict(result), sort_keys=True)


def _service(**kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)
    kwargs.setdefault("jobs", 1)
    thread = ServiceThread(**kwargs)
    thread.start()
    return thread


class _Worker:
    """An in-process FleetWorker on a thread, for integration tests."""

    def __init__(self, host, port, **kwargs):
        kwargs.setdefault("poll_window", 0.3)
        kwargs.setdefault("reconnect", False)
        self.worker = FleetWorker(host, port, **kwargs)
        self.thread = threading.Thread(target=self.worker.run, daemon=True)
        self.thread.start()

    def stop(self, timeout=30.0):
        self.worker.stop()
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.stop()


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(interval)


# --- client backoff (retry_after floor) --------------------------------------


def test_submit_with_retry_honors_retry_after_floor():
    """The server's retry_after hint is a floor on the jittered delay —
    a client must never re-arrive sooner than it was asked to wait."""

    class Rejecting:
        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def submit(self, points, deadline=None, raw=False):
            self.calls += 1
            if self.calls <= self.failures:
                raise ServiceOverloaded("overloaded", 5.0)
            return ["ok"]

    delays = []
    fake = Rejecting(failures=3)
    result = submit_with_retry(fake, [], attempts=6, base=0.2, cap=30.0,
                               sleep=delays.append)
    assert result == ["ok"]
    assert len(delays) == 3
    for delay in delays:
        assert 5.0 <= delay <= 30.0

    # And the cap still wins when the hint exceeds it.
    delays.clear()
    fake_hint = ServiceOverloaded("overloaded", 120.0)

    class HighHint(Rejecting):
        def submit(self, points, deadline=None, raw=False):
            self.calls += 1
            if self.calls <= self.failures:
                raise fake_hint
            return ["ok"]

    submit_with_retry(HighHint(failures=1), [], attempts=3, cap=30.0,
                      sleep=delays.append)
    assert delays == [30.0]


def test_parse_hostport():
    default = ("127.0.0.1", 1234)
    assert env.parse_hostport("0.0.0.0:9000", default) == ("0.0.0.0", 9000)
    assert env.parse_hostport(":9100", default) == ("127.0.0.1", 9100)
    assert env.parse_hostport("9200", default) == ("127.0.0.1", 9200)
    with pytest.raises(ValueError):
        env.parse_hostport("host:notaport", default)
    with pytest.raises(ValueError):
        env.parse_hostport("host:70000", default)


# --- fleet unit (fake clock, no sockets) -------------------------------------


class _FakeConn:
    def __init__(self):
        self.alive = True
        self.sent = []

    async def send(self, message):
        self.sent.append(message)


class _Entry:
    def __init__(self, point):
        self.point = point
        self.key = scheduler.point_key(point)
        self.worker = None


def _run(coro):
    return asyncio.run(coro)


def test_lease_ttl_scales_with_point_cost():
    async def body():
        fleet = Fleet(lease_ttl=10.0, heartbeat=1.0)
        light = _Entry(_point(n=N))
        # A machine window as long as the cost reference: its estimate
        # exceeds the reference at every REPRO_QUICK/REPRO_SCALE setting,
        # so its TTL never floors at 1.0x the way the light point's does.
        heavy = _Entry(GridPoint("machine", "compress", BASELINE,
                                 faults.COST_REFERENCE).resolved())
        offer_light = fleet.offer(light, attempt=0, ordinal=0)
        offer_heavy = fleet.offer(heavy, attempt=0, ordinal=1)
        assert offer_light.ttl == 10.0 * scheduler.cost_scale(light.point)
        assert offer_heavy.ttl == 10.0 * scheduler.cost_scale(heavy.point)
        assert offer_heavy.ttl > offer_light.ttl
        fleet.cancel(offer_light)
        fleet.cancel(offer_heavy)

    _run(body())


def test_missed_heartbeat_expires_lease_and_requeues():
    """A worker that stops heartbeating loses its lease at the TTL; a
    renewing worker keeps it alive arbitrarily long."""

    async def body():
        clock = [0.0]
        fleet = Fleet(lease_ttl=10.0, heartbeat=1.0,
                      clock=lambda: clock[0])
        conn = _FakeConn()
        handle = fleet.register(conn, {"name": "w1", "host": "h",
                                       "pid": 1})
        entry = _Entry(_point())
        offer = fleet.offer(entry, attempt=0, ordinal=0)
        lease = await fleet.poll(handle, 0.1)
        assert lease is not None and lease.offer is offer

        # Renewals push the deadline out past the original TTL.
        for step in range(5):
            clock[0] += 8.0
            fleet.heartbeat(handle, [lease.lease_id])
            assert fleet.reap() == []

        # Silence for a full TTL: the reaper revokes and the offer's
        # future fails retryably.
        clock[0] += 10.1
        expired = fleet.reap()
        assert [l.lease_id for l in expired] == [lease.lease_id]
        with pytest.raises(LeaseRevoked):
            offer.future.result()
        assert fleet.requeued_total == 1
        assert handle.requeued == 1

        # The late completion from the not-actually-dead worker is
        # counted stale and dropped, never double-resolved.
        assert fleet.complete(handle, lease.lease_id, {"x": 1}) is False
        assert fleet.stale_completions == 1

    _run(body())


def test_disconnect_revokes_leases_and_empties_fleet():
    async def body():
        fleet = Fleet(lease_ttl=30.0, heartbeat=1.0)
        conn = _FakeConn()
        handle = fleet.register(conn, {"name": "w1", "host": "h",
                                       "pid": 1})
        assert fleet.available()
        offer = fleet.offer(_Entry(_point()), attempt=0, ordinal=0)
        lease = await fleet.poll(handle, 0.1)
        assert lease is not None
        queued = fleet.offer(_Entry(_point(PROMOTION)), attempt=0,
                             ordinal=1)
        fleet.disconnect(conn)
        assert not fleet.available()
        with pytest.raises(LeaseRevoked):
            offer.future.result()
        # The queued offer fails too: nobody is left to grant it to.
        with pytest.raises(LeaseRevoked):
            queued.future.result()

    _run(body())


def test_worker_reported_kinds_route_through():
    async def body():
        fleet = Fleet(lease_ttl=30.0, heartbeat=1.0)
        conn = _FakeConn()
        handle = fleet.register(conn, {"name": "w1", "host": "h",
                                       "pid": 1})
        offer = fleet.offer(_Entry(_point()), attempt=0, ordinal=0)
        lease = await fleet.poll(handle, 0.1)
        assert fleet.fail(handle, lease.lease_id, "boom",
                          "deterministic") is True
        exc = offer.future.exception()
        assert isinstance(exc, RemotePointError)
        assert faults.classify(exc) == "deterministic"
        assert faults.classify(LeaseRevoked("gone")) == "transient"

    _run(body())


def test_drain_wakes_idle_polls_and_stops_leasing():
    async def body():
        fleet = Fleet(lease_ttl=30.0, heartbeat=1.0)
        conn = _FakeConn()
        handle = fleet.register(conn, {"name": "w1", "host": "h",
                                       "pid": 1})
        poll = asyncio.ensure_future(fleet.poll(handle, 30.0))
        await asyncio.sleep(0)  # let the poll park its waiter
        fleet.begin_drain()
        assert await asyncio.wait_for(poll, 1.0) is None
        assert fleet.draining and not fleet.available()

    _run(body())


def test_event_hub_orders_and_sheds_with_dropped_marker():
    async def body():
        hub = events_mod.EventHub()
        conn = _FakeConn()
        hub.subscribe(conn, "sub-1")
        # Emits are synchronous; the sender task has not run yet, so a
        # tiny queue demonstrates oldest-first shedding.
        sub = hub._subs[(id(conn), "sub-1")]
        sub.queue = asyncio.Queue(maxsize=2)
        hub.emit(events_mod.QUEUED, key="k1")
        hub.emit(events_mod.STARTED, key="k1")
        hub.emit(events_mod.COMPLETED, key="k1")
        await asyncio.sleep(0.05)  # sender drains
        data = [m["data"] for m in conn.sent]
        assert [d["event"] for d in data] == ["started", "completed"]
        assert data[-1]["dropped"] == 1
        seqs = [d["seq"] for d in data]
        assert seqs == sorted(seqs)
        assert hub.stats()["dropped_total"] == 1
        hub.unsubscribe(conn, "sub-1")
        assert hub.stats()["subscriptions"] == 0

    _run(body())


# --- end-to-end: in-process server + worker ----------------------------------


def test_worker_computes_point_byte_identical():
    """One remote worker serves a whole submission; the results match a
    clean in-process computation byte for byte, and status attributes
    the work to the worker."""
    service = _service(lease_ttl=10.0, heartbeat=0.5)
    host, port = service.service.host, service.service.port
    points = [_point(BASELINE), _point(PROMOTION)]
    try:
        with _Worker(host, port, name="w-int") as running:
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                results = client.submit(points)
                status = client.status()
        fleet = status["fleet"]
        assert fleet["completed_total"] == len(points)
        assert fleet["requeued_total"] == 0
        (member,) = fleet["workers"]
        assert member["worker"] == "w-int"
        assert member["completed"] == len(points)
        assert running.worker.completed == len(points)
    finally:
        service.stop()
    runner.clear_caches(disk=True)
    clean = [runner.frontend_result(p.benchmark, p.config, p.n)
             for p in points]
    assert [_result_json(r) for r in results] == \
        [_result_json(r) for r in clean]


def test_in_process_worker_disarms_fault_injection_when_it_stops(
        monkeypatch):
    """A worker run inside this process arms fault injection only while
    it runs: afterwards the parent is a safe floor again."""
    monkeypatch.setenv("REPRO_FAULTS", "crash:p0")
    assert faults.active_spec() == ()
    service = _service(lease_ttl=10.0, heartbeat=0.5)
    try:
        with _Worker(service.service.host, service.service.port):
            _wait_for(faults.in_worker)
            assert faults.active_spec() != ()
        assert not faults.in_worker()
        assert faults.active_spec() == ()
    finally:
        service.stop()


def test_event_stream_orders_point_lifecycle():
    """A subscriber sees queued -> leased -> started -> completed for a
    fleet-computed point, with worker identity and increasing seqs."""
    service = _service(lease_ttl=10.0, heartbeat=0.5)
    host, port = service.service.host, service.service.port
    try:
        with _Worker(host, port, name="w-ev"):
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                sub = client.subscribe()
                request = client.submit_nowait([_point()])
                events = list(client.events(sub, until=request))
                results = client.result(request)
        assert len(results) == 1
        key = scheduler.point_key(_point())
        lifecycle = [e["event"] for e in events if e.get("key") == key]
        assert lifecycle == ["queued", "leased", "started", "completed"]
        by_event = {e["event"]: e for e in events if e.get("key") == key}
        assert by_event["leased"]["worker"] == "w-ev"
        assert by_event["completed"]["worker"] == "w-ev"
        assert by_event["completed"]["elapsed"] >= 0
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    finally:
        service.stop()


def test_event_subscription_key_filter():
    service = _service(lease_ttl=10.0, heartbeat=0.5)
    host, port = service.service.host, service.service.port
    wanted, other = _point(BASELINE), _point(PROMOTION)
    wanted_key = scheduler.point_key(wanted)
    try:
        with _Worker(host, port, name="w-filter"):
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                sub = client.subscribe(keys=[wanted_key])
                request = client.submit_nowait([wanted, other])
                events = list(client.events(sub, until=request))
                client.result(request)
        assert events, "filtered feed delivered nothing"
        assert {e.get("key") for e in events} == {wanted_key}
    finally:
        service.stop()


def test_heartbeat_keeps_slow_lease_alive(monkeypatch):
    """A point that computes longer than the lease TTL survives as long
    as heartbeats renew the deadline: no revocation, no requeue."""
    real = scheduler.run_point_task

    def slow(point, ordinal, attempt, key, engine=None):
        time.sleep(1.2)  # several TTLs at lease_ttl=0.4
        return real(point, ordinal, attempt, key, engine=engine)

    monkeypatch.setattr(scheduler, "run_point_task", slow)
    service = _service(lease_ttl=0.4, heartbeat=0.1)
    host, port = service.service.host, service.service.port
    try:
        with _Worker(host, port, name="w-slow", heartbeat=0.1):
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                results = client.submit([_point()])
                status = client.status()
        assert len(results) == 1
        assert status["fleet"]["requeued_total"] == 0
        assert status["fleet"]["completed_total"] == 1
    finally:
        service.stop()


def test_worker_failure_falls_back_to_local_execution(monkeypatch):
    """A deterministic failure on the worker pins the point to a clean
    in-parent run — same floor as a deterministic pool failure."""

    def broken(point, ordinal, attempt, key, engine=None):
        raise ValueError("injected remote fault")

    monkeypatch.setattr(scheduler, "run_point_task", broken)
    service = _service(lease_ttl=10.0, heartbeat=0.5)
    host, port = service.service.host, service.service.port
    try:
        with _Worker(host, port, name="w-broken"):
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                results = client.submit([_point()])
                status = client.status()
        assert len(results) == 1
        assert status["fleet"]["failed_total"] == 1
        assert status["counters"]["computed_ok"] == 1
    finally:
        service.stop()
    runner.clear_caches(disk=True)
    clean = runner.frontend_result("compress", BASELINE, N)
    assert _result_json(results[0]) == _result_json(clean)


def test_drain_disperses_idle_workers():
    """Drain answers worker polls with ``draining``; a non-reconnecting
    worker returns promptly."""
    service = _service(lease_ttl=10.0, heartbeat=0.5, drain_grace=0.5)
    host, port = service.service.host, service.service.port
    running = _Worker(host, port, name="w-drain")
    try:
        with ServiceClient(host, port, timeout=30) as client:
            _wait_for(lambda: len(client.status()["fleet"]["workers"]) == 1)
            client.drain()
        running.thread.join(timeout=30)
        assert not running.thread.is_alive()
        assert running.worker.completed == 0
    finally:
        running.worker.stop()
        service.stop()


def test_fleet_min_gates_dispatch():
    """With REPRO_FLEET_MIN=2 a lone worker is not preferred: the point
    runs locally and the fleet sees no lease."""
    service = _service(lease_ttl=10.0, heartbeat=0.5, fleet_min=2)
    host, port = service.service.host, service.service.port
    try:
        with _Worker(host, port, name="w-lonely"):
            with ServiceClient(host, port, timeout=120) as client:
                _wait_for(lambda: len(client.status()["fleet"]["workers"])
                          == 1)
                results = client.submit([_point()])
                status = client.status()
        assert len(results) == 1
        assert status["fleet"]["granted_total"] == 0
        assert status["counters"]["computed_ok"] == 1
    finally:
        service.stop()
