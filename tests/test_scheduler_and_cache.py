"""The experiment scheduler and the persistent result cache."""

import json
import os
import threading
from concurrent.futures.process import _ExecutorManagerThread

import pytest

from repro.config import (
    BASELINE,
    PROMOTION,
    PROMOTION_PACKING,
    CoreConfig,
    MachineConfig,
)
from repro.experiments import diskcache, runner, scheduler
from repro.experiments.cachekey import (
    cache_key,
    code_fingerprint,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.scheduler import GridPoint, resolve_jobs, run_grid
from repro.experiments.serialize import (
    frontend_result_to_dict,
    machine_result_to_dict,
)
from repro.mem.hierarchy import MemoryConfig

N = 6_000


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """Every test gets its own empty disk cache and empty memos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    runner.clear_caches()
    yield
    runner.clear_caches()


# --- cache keys --------------------------------------------------------------


def test_config_dict_round_trip():
    for config in (BASELINE, PROMOTION_PACKING,
                   MachineConfig(frontend=PROMOTION,
                                 memory=MemoryConfig(l1d_bytes=32 * 1024),
                                 core=CoreConfig(perfect_disambiguation=True))):
        data = config_to_dict(config)
        json.dumps(data)  # must be JSON-able as-is
        assert config_from_dict(data) == config


def test_config_round_trip_preserves_enums():
    restored = config_from_dict(config_to_dict(PROMOTION_PACKING))
    assert restored.packing is PROMOTION_PACKING.packing


def test_cache_key_stability_and_sensitivity():
    key = cache_key("frontend", "compress", BASELINE, N)
    assert key == cache_key("frontend", "compress", BASELINE, N)
    assert key != cache_key("frontend", "compress", BASELINE, N + 1)
    assert key != cache_key("frontend", "compress", PROMOTION, N)
    assert key != cache_key("frontend", "m88ksim", BASELINE, N)
    assert key != cache_key("machine", "compress", BASELINE, N)
    assert len(key) == 64  # sha256 hex


class _Requested(Exception):
    """Raised by a stand-in once a paper artifact has named its points."""


def _paper_grid_points(monkeypatch):
    """Every point the paper's artifacts request first, unresolved."""
    from repro.experiments import paper

    requested = []

    def grid(kind):
        def record(benchmarks, configs, n=None, warmup=True, jobs=None):
            requested.extend(GridPoint(kind, b, c, n, warmup)
                             for b in benchmarks for c in configs)
            raise _Requested
        return record

    def single(kind):
        def record(benchmark, config, n=None, *_args, **_kwargs):
            requested.append(GridPoint(kind, benchmark, config, n))
            raise _Requested
        return record

    with monkeypatch.context() as patch:
        patch.setattr(paper, "prefetch_frontend", grid("frontend"))
        patch.setattr(paper, "prefetch_machine", grid("machine"))
        patch.setattr(paper, "frontend_result", single("frontend"))
        patch.setattr(paper, "machine_result", single("machine"))
        for name, build in paper.ARTIFACTS.items():
            if name != "table1":  # reads programs, requests no results
                with pytest.raises(_Requested):
                    build()
    return requested


def test_memoized_keys_match_cache_key_at_every_scale(monkeypatch):
    """The runner's key memo returns exactly ``cache_key`` for every
    paper grid point, with the scale switched back and forth in one
    process (lengths and warm-up windows change with it)."""
    points = _paper_grid_points(monkeypatch)
    assert {p.kind for p in points} == {"frontend", "machine"}
    scales = {"full": {}, "quick": {"REPRO_QUICK": "1"},
              "smoke": {"REPRO_QUICK": "1", "REPRO_SCALE": "0.1"}}
    seen = {}
    for name in ("full", "quick", "smoke", "full", "smoke", "quick"):
        monkeypatch.delenv("REPRO_QUICK", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        for knob, value in scales[name].items():
            monkeypatch.setenv(knob, value)
        keys = []
        for point in points:
            point = point.resolved()
            extra = None
            if point.kind == "machine":
                extra = {"warmup": runner.default_length(point.benchmark)
                         if point.warmup else 0}
            key = scheduler.point_key(point)
            assert key == cache_key(point.kind, point.benchmark,
                                    point.config, point.n, extra=extra)
            keys.append(key)
        assert seen.setdefault(name, keys) == keys
    assert len({tuple(keys) for keys in seen.values()}) == 3


def test_code_fingerprint_is_cached_and_hex():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# --- disk cache --------------------------------------------------------------


def test_disk_cache_hit_skips_simulation(monkeypatch):
    first = runner.frontend_result("compress", BASELINE, N)
    assert diskcache.stats()["entries"] == 1

    runner.clear_caches()  # memos only; the disk entry survives

    def boom(*args, **kwargs):
        raise AssertionError("simulated despite a disk cache hit")

    monkeypatch.setattr(runner, "FrontEndSimulator", boom)
    second = runner.frontend_result("compress", BASELINE, N)
    assert frontend_result_to_dict(first) == frontend_result_to_dict(second)


def test_machine_memo_keeps_warmed_and_unwarmed_apart(monkeypatch):
    from repro.experiments import scheduler

    monkeypatch.setenv("REPRO_SCALE", "0.01")  # a 5,000-instruction warm-up
    config = MachineConfig(frontend=BASELINE)
    unwarmed = runner.machine_result("compress", config, 2_000, warmup=False)
    warmed = runner.machine_result("compress", config, 2_000, warmup=True)
    assert warmed.cycles != unwarmed.cycles
    runner.clear_caches(disk=True)
    cold = runner.machine_result("compress", config, 2_000, warmup=True)
    assert machine_result_to_dict(warmed) == machine_result_to_dict(cold)

    # A result admitted from a pool worker is keyed by its warm-up too.
    runner.clear_caches()
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    scheduler._admit(GridPoint("machine", "compress", config, 2_000,
                               warmup=False), unwarmed)
    assert runner.cached_machine_result("compress", config, 2_000,
                                        warmup=True) is None
    assert runner.cached_machine_result("compress", config, 2_000,
                                        warmup=False) is unwarmed


def test_machine_disk_round_trip():
    config = MachineConfig(frontend=BASELINE)
    first = runner.machine_result("compress", config, 2_000, warmup=False)
    runner.clear_caches()
    second = runner.machine_result("compress", config, 2_000, warmup=False)
    assert machine_result_to_dict(first) == machine_result_to_dict(second)
    assert second.ipc == first.ipc


def test_corrupted_cache_file_recovers():
    runner.frontend_result("compress", BASELINE, N)
    key = cache_key("frontend", "compress", BASELINE, N)
    path = diskcache.cache_dir() / f"{key}.json"
    assert path.exists()
    path.write_text("{not json at all")

    runner.clear_caches()
    result = runner.frontend_result("compress", BASELINE, N)  # recomputes
    assert result.instructions_retired == N
    # The corrupt entry was replaced by a good one.
    assert diskcache.load(key) is not None


def test_wrong_version_entry_is_discarded():
    runner.frontend_result("compress", BASELINE, N)
    key = cache_key("frontend", "compress", BASELINE, N)
    path = diskcache.cache_dir() / f"{key}.json"
    envelope = json.loads(path.read_text())
    envelope["version"] = -1
    path.write_text(json.dumps(envelope))
    assert diskcache.load(key) is None
    assert not path.exists()  # deleted, not left to shadow future writes


def test_undecodable_payload_is_quarantined_and_recomputed():
    """An entry that parses but whose payload does not decode is
    quarantined and its point recomputed, instead of raising out of
    the cache probe and failing the whole grid."""
    config = MachineConfig(frontend=BASELINE)
    points = [GridPoint("frontend", "compress", BASELINE, N),
              GridPoint("machine", "compress", config, 2_000, warmup=False)]
    expected = run_grid(points, jobs=1)
    runner.clear_caches(disk=True)
    keys = [cache_key("frontend", "compress", BASELINE, N),
            runner.machine_cache_key("compress", config, 2_000, warmup=False)]
    garbage = ({"bogus": 1}, ["not", "a", "payload"])
    for key, kind, payload in zip(keys, ("frontend", "machine"), garbage):
        diskcache.store(key, kind, payload)
    results = run_grid(points, jobs=1)
    assert frontend_result_to_dict(results[points[0]]) \
        == frontend_result_to_dict(expected[points[0]])
    assert machine_result_to_dict(results[points[1]]) \
        == machine_result_to_dict(expected[points[1]])
    assert diskcache.cache_stats()["quarantined"] == 2
    # The recomputation healed both entries.
    assert all(diskcache.load(key) not in garbage for key in keys)


def test_disk_cache_can_be_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    runner.frontend_result("compress", BASELINE, N)
    assert diskcache.stats()["entries"] == 0


def test_clear_caches_disk_purges():
    runner.frontend_result("compress", BASELINE, N)
    assert diskcache.stats()["entries"] == 1
    runner.clear_caches(disk=True)
    assert diskcache.stats()["entries"] == 0


# --- scheduler ---------------------------------------------------------------


def _grid():
    return [GridPoint("frontend", b, c, N)
            for b in ("compress", "m88ksim")
            for c in (BASELINE, PROMOTION_PACKING)]


def test_parallel_matches_serial_byte_identical():
    parallel = run_grid(_grid(), jobs=2)
    runner.clear_caches(disk=True)
    serial = run_grid(_grid(), jobs=1)
    assert set(parallel) == set(serial)
    for point in parallel:
        left = json.dumps(frontend_result_to_dict(parallel[point]), sort_keys=True)
        right = json.dumps(frontend_result_to_dict(serial[point]), sort_keys=True)
        assert left == right


def test_pooled_grid_computes_every_oracle_in_the_parent(monkeypatch,
                                                          tmp_path):
    """A pooled grid computes each oracle once, in the parent, before it
    forks its workers: they inherit the memo instead of re-executing."""
    log = tmp_path / "oracles.txt"
    real = runner.compute_oracle

    def recording(program, n):
        with open(log, "a") as handle:  # a worker's call is logged too
            handle.write(f"{os.getpid()} {program.name} {n}\n")
        return real(program, n)

    monkeypatch.setattr(runner, "compute_oracle", recording)
    assert len(run_grid(_grid(), jobs=2)) == 4
    rows = [line.split() for line in log.read_text().splitlines()]
    assert {int(pid) for pid, _name, _n in rows} == {os.getpid()}
    assert sorted((name, int(n)) for _pid, name, n in rows) == [
        ("compress", N), ("m88ksim", N)]


def test_pooled_grid_leaves_no_executor_thread():
    """A grid that finishes normally shuts its pool down waiting: the
    executor's manager thread is gone when ``run_grid`` returns, so it
    cannot race the interpreter's exit hook."""
    run_grid(_grid(), jobs=2)
    alive = [thread for thread in threading.enumerate()
             if isinstance(thread, _ExecutorManagerThread)]
    assert not alive


def test_run_grid_populates_runner_memo():
    run_grid(_grid(), jobs=2)
    # Direct runner calls must now be memo hits: same object every time.
    first = runner.frontend_result("compress", BASELINE, N)
    assert runner.frontend_result("compress", BASELINE, N) is first


def test_run_grid_serves_cached_points_without_pool(monkeypatch):
    run_grid(_grid(), jobs=1)
    import repro.experiments.scheduler as scheduler

    def boom(*args, **kwargs):
        raise AssertionError("pool created for a fully cached grid")

    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", boom)
    results = run_grid(_grid(), jobs=4)
    assert len(results) == 4


def test_run_grid_deduplicates():
    point = GridPoint("frontend", "compress", BASELINE, N)
    results = run_grid([point, point, point], jobs=1)
    assert len(results) == 1


def test_machine_grid_points():
    config = MachineConfig(frontend=BASELINE)
    results = run_grid(
        [GridPoint("machine", "compress", config, 2_000, warmup=False)], jobs=1)
    (result,) = results.values()
    assert result.retired == 2_000


def _no_pool(monkeypatch):
    import repro.experiments.scheduler as scheduler

    def boom(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(scheduler, "ProcessPoolExecutor", boom)


def test_env_jobs_one_runs_inline(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    _no_pool(monkeypatch)
    serial = run_grid(_grid())
    assert len(serial) == 4
    # Same points by the explicit-argument route: identical memo objects.
    assert run_grid(_grid(), jobs=1) == serial


def test_single_point_grid_runs_inline(monkeypatch):
    _no_pool(monkeypatch)
    results = run_grid([GridPoint("frontend", "compress", BASELINE, N)], jobs=4)
    assert len(results) == 1


def test_pool_respawn_after_worker_crash_matches_serial(monkeypatch):
    """A machine grid whose first worker dies mid-run: the respawned pool
    finishes it with byte-identical results to a clean serial run."""
    config = MachineConfig(frontend=BASELINE)
    grid = [GridPoint("machine", b, config, 2_000, warmup=False)
            for b in ("compress", "m88ksim")]
    serial = run_grid(grid, jobs=1)
    runner.clear_caches(disk=True)

    monkeypatch.setenv("REPRO_FAULTS", "crash:p0")
    monkeypatch.setenv("REPRO_RETRIES", "3")
    monkeypatch.setenv("REPRO_BACKOFF", "0.01")
    respawned = run_grid(grid, jobs=2)
    assert set(respawned) == set(serial)
    for point in serial:
        assert (machine_result_to_dict(respawned[point])
                == machine_result_to_dict(serial[point]))


def test_resolve_jobs(monkeypatch):
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    monkeypatch.setenv("REPRO_JOBS", "junk")
    with pytest.warns(RuntimeWarning):
        assert resolve_jobs() == max(1, os.cpu_count() or 1)
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() == max(1, os.cpu_count() or 1)


def test_unknown_grid_kind_rejected():
    with pytest.raises(ValueError):
        GridPoint("backend", "compress", BASELINE).resolved()


# --- run-length env knobs ----------------------------------------------------


def test_quick_and_scale_compose(monkeypatch):
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert runner.quick_scale() == 1.0
    monkeypatch.setenv("REPRO_QUICK", "1")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert runner.quick_scale() == pytest.approx(0.125)


def test_invalid_scale_warns_once(monkeypatch):
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    monkeypatch.setenv("REPRO_SCALE", "fast")
    runner.clear_caches()  # reset the warn-once latch
    with pytest.warns(RuntimeWarning, match="REPRO_SCALE"):
        assert runner.quick_scale() == 1.0
    # Second call: silent (already warned) but same fallback.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert runner.quick_scale() == 1.0
