"""Fault taxonomy, chaos injection, checkpoint journals, and recovery.

The acceptance bar for the supervision layer is equality: a grid run
under injected worker crashes, hangs and file corruption must produce
byte-identical results to a clean serial run, and a SIGKILLed run must
resume from its checkpoint journal recomputing only unjournaled points.
"""

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.config import BASELINE, PROMOTION_PACKING
from repro.experiments import checkpoint, diskcache, faults, runner, warnonce
from repro.experiments.breaker import CircuitBreaker
from repro.experiments.faults import GridFailures, PointFailure, PointTimeout
from repro.experiments.scheduler import GridPoint, run_grid
from repro.experiments.serialize import frontend_result_to_dict

N = 6_000

REPO = Path(__file__).parent.parent

_KNOBS = ("REPRO_DISK_CACHE", "REPRO_FAULTS", "REPRO_RETRIES",
          "REPRO_POINT_TIMEOUT", "REPRO_KEEP_GOING", "REPRO_RESUME",
          "REPRO_CHECKPOINTS", "REPRO_JOBS", "REPRO_VALIDATE")


@pytest.fixture(autouse=True)
def fresh_state(tmp_path, monkeypatch):
    """Every test: empty cache dir, no supervision knobs, fast backoff."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for knob in _KNOBS:
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_BACKOFF", "0.01")
    runner.clear_caches()
    yield
    runner.clear_caches()


def _grid():
    return [GridPoint("frontend", b, c, N)
            for b in ("compress", "m88ksim")
            for c in (BASELINE, PROMOTION_PACKING)]


def _dicts(results):
    return {point: json.dumps(frontend_result_to_dict(result), sort_keys=True)
            for point, result in results.items()}


# --- taxonomy ----------------------------------------------------------------


def test_classify_taxonomy():
    assert faults.classify(PointTimeout("late")) == faults.TIMEOUT
    assert faults.classify(BrokenProcessPool("died")) == faults.TRANSIENT
    assert faults.classify(OSError("disk")) == faults.TRANSIENT
    assert faults.classify(EOFError()) == faults.TRANSIENT
    assert faults.classify(ValueError("bug")) == faults.DETERMINISTIC
    assert faults.classify(AssertionError()) == faults.DETERMINISTIC


def test_failure_report_helpers():
    failure = PointFailure(point=GridPoint("frontend", "compress", BASELINE, N),
                           kind=faults.DETERMINISTIC, attempts=2,
                           error="ValueError: boom")
    rows = faults.failure_rows([failure])
    assert rows == [["frontend", "compress", BASELINE.describe(),
                     "deterministic", "2", "ValueError: boom"]]
    assert len(rows[0]) == len(faults.FAILURE_HEADERS)
    assert faults.format_error(ValueError("boom")) == "ValueError: boom"
    assert len(faults.format_error(ValueError("x" * 500))) == 120
    exc = GridFailures([failure], {"a": 1})
    assert "1 grid point(s) failed" in str(exc)
    assert exc.failures == [failure] and exc.results == {"a": 1}


# --- supervision policy ------------------------------------------------------

_T, _TO, _D, _V = (faults.TRANSIENT, faults.TIMEOUT, faults.DETERMINISTIC,
                   faults.DIVERGENCE)

#: id -> (REPRO_RETRIES, breaker thresholds on the route list,
#:        [(outcome kind, ran on the floor)], expected actions,
#:        expected attempts, retries used, reported give-up kind or None)
_POLICY_TABLE = {
    "divergence-pins-reference-no-retry-used": (
        2, (), [(_V, False)], ["pin-reference"], 1, 0, None),
    "divergence-when-pinned-gives-up-deterministic": (
        2, (), [(_V, False), (_V, False)], ["pin-reference", "give-up"],
        2, 0, _D),
    "deterministic-off-floor-reruns-inline-no-retry-used": (
        2, (), [(_D, False), (_D, True)], ["rerun-inline", "give-up"],
        2, 0, _D),
    "deterministic-on-floor-gives-up": (
        2, (), [(_D, True)], ["give-up"], 1, 0, _D),
    "deterministic-then-inline-divergence-pins-reference": (
        2, (), [(_D, False), (_V, True)], ["rerun-inline", "pin-reference"],
        2, 0, None),
    "transient-retries-then-gives-up-past-budget": (
        2, (), [(_T, True)] * 3, ["retry", "retry", "give-up"], 3, 3, _T),
    "timeout-retries-then-gives-up-past-budget": (
        1, (), [(_TO, False), (_TO, False)], ["retry", "give-up"], 2, 2,
        _TO),
    "zero-budget-gives-up-at-once": (
        0, (), [(_T, False)], ["give-up"], 1, 1, _T),
    "divergence-leaves-the-retry-budget-whole": (
        1, (), [(_V, False), (_T, False), (_T, False)],
        ["pin-reference", "retry", "give-up"], 3, 2, _T),
    "budget-raised-to-breaker-threshold": (
        2, (3,), [(_T, False)] * 4, ["retry", "retry", "retry", "give-up"],
        4, 4, _T),
    "budget-is-the-largest-threshold": (
        1, (2, 3), [(_T, False)] * 4, ["retry", "retry", "retry", "give-up"],
        4, 4, _T),
    "budget-keeps-larger-retries": (
        4, (3,), [(_TO, False)] * 5, ["retry"] * 4 + ["give-up"], 5, 5, _TO),
}


@pytest.mark.parametrize("case", list(_POLICY_TABLE), ids=list(_POLICY_TABLE))
def test_supervision_policy_table(case):
    retries, thresholds, outcomes, actions, attempts, used, gave_up_as = \
        _POLICY_TABLE[case]
    routes = [faults.Route(f"r{i}", CircuitBreaker(threshold=t))
              for i, t in enumerate(thresholds)] + [faults.INLINE]
    policy = faults.Supervision(budget=faults.retry_budget(routes, retries))
    state = faults.PointState()
    seen = []
    for kind, on_floor in outcomes:
        action, state = policy.step(state, kind, on_floor)
        seen.append(action)
    assert seen == actions
    assert state.runs == attempts and state.retries == used
    assert (state.engine == "reference") == (_V in dict(outcomes))
    assert state.inline == ("rerun-inline" in actions)
    if gave_up_as is not None:
        assert faults.give_up_kind(outcomes[-1][0]) == gave_up_as


def test_pick_route_takes_first_allowed_and_floor_when_pinned():
    fleet = CircuitBreaker(threshold=1, cooldown=60.0, name="fleet")
    pool = CircuitBreaker(threshold=1, cooldown=60.0)
    ready = [False]
    routes = [faults.Route("fleet", fleet, lambda: ready[0]),
              faults.Route("pool", pool), faults.INLINE]
    free = faults.PointState()
    assert faults.pick_route(routes, free).name == "pool"
    ready[0] = True
    assert faults.pick_route(routes, free).name == "fleet"
    fleet.record_break()
    assert faults.pick_route(routes, free).name == "pool"
    pool.record_break()
    assert faults.pick_route(routes, free) is faults.INLINE
    fleet.record_success()
    assert faults.pick_route(routes, faults.PointState(inline=True)) \
        is faults.INLINE


# --- policy knobs ------------------------------------------------------------


def test_resolve_retries(monkeypatch):
    assert faults.resolve_retries() == 2
    assert faults.resolve_retries(5) == 5
    assert faults.resolve_retries(-3) == 0
    monkeypatch.setenv("REPRO_RETRIES", "7")
    assert faults.resolve_retries() == 7
    monkeypatch.setenv("REPRO_RETRIES", "lots")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRIES"):
        assert faults.resolve_retries() == 2


def test_resolve_timeout(monkeypatch):
    assert faults.resolve_timeout() is None
    assert faults.resolve_timeout(1.5) == 1.5
    assert faults.resolve_timeout(0) is None
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "2.5")
    assert faults.resolve_timeout() == 2.5
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "-1")
    assert faults.resolve_timeout() is None


def test_resolve_keep_going_and_backoff(monkeypatch):
    assert faults.resolve_keep_going() is False
    assert faults.resolve_keep_going(True) is True
    monkeypatch.setenv("REPRO_KEEP_GOING", "1")
    assert faults.resolve_keep_going() is True
    assert faults.resolve_backoff(0.5) == 0.5
    assert faults.resolve_backoff() == 0.01  # fixture sets REPRO_BACKOFF
    assert faults.backoff_delay(0.1, 1) == pytest.approx(0.1)
    assert faults.backoff_delay(0.1, 3) == pytest.approx(0.4)
    assert faults.backoff_delay(0.1, 100) == pytest.approx(0.1 * 2 ** 6)
    assert faults.backoff_delay(0.0, 3) == 0.0


# --- fault spec parsing and firing -------------------------------------------


def test_parse_spec():
    specs = faults.parse_spec("crash:0.1, hang:p3:5, corrupt-cache:p7")
    assert specs == (
        faults.FaultSpec("crash", probability=0.1),
        faults.FaultSpec("hang", ordinal=3, arg=5.0),
        faults.FaultSpec("corrupt-cache", ordinal=7),
    )


def test_parse_spec_drops_malformed_entries():
    with pytest.warns(RuntimeWarning, match="malformed REPRO_FAULTS") as caught:
        specs = faults.parse_spec(
            "explode:p1,crash:p2,hang:nine,crash:1.5,corrupt-trace:p0")
    assert specs == (faults.FaultSpec("crash", ordinal=2),)
    # An action that is no longer legal warns and drops like a typo.
    assert any("'corrupt-trace:p0'" in str(w.message) for w in caught)


def test_ordinal_faults_fire_on_first_attempt_only():
    spec = faults.FaultSpec("crash", ordinal=3)
    assert faults._fires(spec, "key", ordinal=3, attempt=0)
    assert not faults._fires(spec, "key", ordinal=3, attempt=1)
    assert not faults._fires(spec, "key", ordinal=2, attempt=0)


def test_probability_faults_are_deterministic():
    always = faults.FaultSpec("crash", probability=1.0)
    never = faults.FaultSpec("crash", probability=0.0)
    for attempt in range(4):
        assert faults._fires(always, "key", 0, attempt)
        assert not faults._fires(never, "key", 0, attempt)
    half = faults.FaultSpec("crash", probability=0.5)
    first = [faults._fires(half, f"k{i}", 0, 0) for i in range(64)]
    second = [faults._fires(half, f"k{i}", 0, 0) for i in range(64)]
    assert first == second  # hashed, not random
    assert any(first) and not all(first)


def test_faults_never_fire_outside_armed_workers(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    assert faults.active_spec() == ()  # this process is the parent
    monkeypatch.setattr(faults, "_in_worker", True)
    assert faults.active_spec() == (faults.FaultSpec("crash", probability=1.0),)


# --- chaos equality ----------------------------------------------------------


def test_chaos_crash_and_corruption_matches_clean_serial(monkeypatch):
    """Worker crash + cache corruption: byte-identical."""
    serial = _dicts(run_grid(_grid(), jobs=1))
    runner.clear_caches(disk=True)

    # Ordinal 0 crashes its worker, ordinal 1's fresh cache entry is
    # stamped with garbage.
    monkeypatch.setenv("REPRO_FAULTS", "crash:p0,corrupt-cache:p1")
    monkeypatch.setenv("REPRO_RETRIES", "3")
    faulted = _dicts(run_grid(_grid(), jobs=2))
    assert faulted == serial


def test_chaos_hang_is_killed_and_retried(monkeypatch):
    """A hung worker blows its deadline, is killed, and the retry wins."""
    serial = _dicts(run_grid(_grid(), jobs=1))
    runner.clear_caches(disk=True)

    monkeypatch.setenv("REPRO_FAULTS", "hang:p1:30")
    monkeypatch.setenv("REPRO_POINT_TIMEOUT", "2")
    start = time.monotonic()
    faulted = _dicts(run_grid(_grid(), jobs=2))
    assert faulted == serial
    # The hang was cut at the ~2s deadline, not slept through.
    assert time.monotonic() - start < 25


@pytest.mark.parametrize("retries", [None, "10"],
                         ids=["default-retries", "retries-10"])
def test_persistent_crashes_degrade_to_serial(monkeypatch, retries):
    """crash:1.0 fires on every pooled attempt; the serial floor finishes.

    Every pool break charges each in-flight point a retry, so the retry
    budget must outlast the pool breaker's threshold even at the
    default ``REPRO_RETRIES``.
    """
    grid = _grid()[:2]
    serial = _dicts(run_grid(grid, jobs=1))
    runner.clear_caches(disk=True)
    warnonce.reset()

    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
    if retries is not None:
        monkeypatch.setenv("REPRO_RETRIES", retries)
    with pytest.warns(RuntimeWarning, match="serially"):
        faulted = _dicts(run_grid(grid, jobs=2))
    assert faulted == serial


def test_pool_breaking_at_submit_with_a_point_in_flight_recovers(
        monkeypatch):
    """A break seen by ``submit`` while another point is in flight.

    The in-flight point's worker died, so its future fails and the next
    submit raises.  That is one pool break: the supervisor settles the
    in-flight point, respawns the pool and completes the grid.
    """
    from concurrent.futures import Future

    import repro.experiments.scheduler as scheduler

    grid = _grid()[:2]
    serial = _dicts(run_grid(grid, jobs=2))
    runner.clear_caches(disk=True)
    warnonce.reset()

    class InParentPool:
        """Runs tasks in the parent; the first pool spawned is broken:
        its first task fails and its second submit raises."""

        spawned = 0

        def __init__(self, workers):
            InParentPool.spawned += 1
            self.broken = InParentPool.spawned == 1
            self.submits = 0

        def submit(self, fn, *args):
            self.submits += 1
            future = Future()
            if not self.broken:
                future.set_result(fn(*args))
            elif self.submits == 1:
                future.set_exception(BrokenProcessPool("worker died"))
            else:
                raise BrokenProcessPool("worker died")
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(scheduler, "_spawn_pool", InParentPool)
    assert _dicts(run_grid(grid, jobs=2)) == serial
    assert InParentPool.spawned == 2


def test_worker_failure_whose_inline_rerun_diverges_pins_reference(
        monkeypatch):
    """Pool failure -> inline re-run -> divergence -> reference engine.

    The point fails deterministically in a worker; its inline re-run in
    the parent diverges; the policy pins it to the reference engine and
    the grid completes byte-identical to a clean serial run.
    """
    import repro.experiments.scheduler as scheduler
    from repro.validate.errors import DivergenceError

    grid = _grid()[:2]
    serial = _dicts(run_grid(grid, jobs=1))
    runner.clear_caches(disk=True)
    warnonce.reset()
    scheduler.take_divergences()
    real = scheduler._run_point

    def staged(point, engine=None):
        if faults.in_worker():
            raise ValueError("worker-only failure")
        if engine is None:
            raise DivergenceError("injected divergence in the parent")
        assert engine == "reference"
        return real(point, engine=engine)

    monkeypatch.setattr(scheduler, "_run_point", staged)
    with pytest.warns(RuntimeWarning, match="diverged from the reference"):
        faulted = _dicts(run_grid(grid, jobs=2))
    assert faulted == serial
    divergences = scheduler.take_divergences()
    assert len(divergences) == len(faulted)
    assert {f.point for f in divergences} == set(faulted)
    assert all(f.kind == faults.DIVERGENCE and f.attempts == 2
               for f in divergences)


# --- deterministic failures --------------------------------------------------


def _break_benchmark(monkeypatch, benchmark):
    import repro.experiments.scheduler as scheduler

    real = scheduler._run_point

    def selective(point, **kwargs):
        if point.benchmark == benchmark:
            raise ValueError(f"injected bug in {benchmark}")
        return real(point, **kwargs)

    monkeypatch.setattr(scheduler, "_run_point", selective)
    return real


def test_deterministic_failure_fails_fast_with_original_exception(monkeypatch):
    _break_benchmark(monkeypatch, "m88ksim")
    with pytest.raises(ValueError, match="injected bug"):
        run_grid(_grid(), jobs=1)


def test_keep_going_collects_failures_and_results(monkeypatch):
    _break_benchmark(monkeypatch, "m88ksim")
    with pytest.raises(GridFailures) as info:
        run_grid(_grid(), jobs=1, keep_going=True)
    failed = info.value
    assert len(failed.failures) == 2
    assert len(failed.results) == 2
    assert all(f.kind == faults.DETERMINISTIC for f in failed.failures)
    assert all(f.point.benchmark == "m88ksim" for f in failed.failures)
    assert "injected bug" in failed.failures[0].error
    assert "ValueError" in failed.failures[0].traceback


def test_transient_failures_exhaust_retries(monkeypatch):
    import repro.experiments.scheduler as scheduler

    attempts = []

    def flaky(point, **kwargs):
        attempts.append(point)
        raise OSError("disk went away")

    monkeypatch.setattr(scheduler, "_run_point", flaky)
    point = GridPoint("frontend", "compress", BASELINE, N)
    with pytest.raises(GridFailures) as info:
        run_grid([point], jobs=1, max_retries=2)
    assert len(attempts) == 3  # first try + 2 retries
    (failure,) = info.value.failures
    assert failure.kind == faults.TRANSIENT and failure.attempts == 3


# --- checkpoint journals -----------------------------------------------------


def _journal_path(points):
    keys = [runner.frontend_cache_key(p.benchmark, p.config, p.n)
            for p in points]
    return checkpoint.checkpoint_dir() / f"{checkpoint.grid_key(keys)}.jsonl"


def test_failed_grid_leaves_journal_and_resume_recomputes_only_missing(
        monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")  # the journal, not the cache
    grid = _grid()
    real = _break_benchmark(monkeypatch, "m88ksim")
    with pytest.raises(GridFailures):
        run_grid(grid, jobs=1, keep_going=True)

    journal = _journal_path(grid)
    assert journal.exists()
    assert len(journal.read_text().splitlines()) == 2  # the compress points

    import repro.experiments.scheduler as scheduler

    recomputed = []

    def counting(point, **kwargs):
        recomputed.append(point)
        return real(point, **kwargs)

    monkeypatch.setattr(scheduler, "_run_point", counting)
    runner.clear_caches()  # drop memos: only the journal can serve now
    results = run_grid(grid, jobs=1)
    assert len(results) == 4
    assert sorted(p.benchmark for p in recomputed) == ["m88ksim", "m88ksim"]
    assert not journal.exists()  # clean completion drops the journal


def test_clean_grid_leaves_no_journal():
    grid = _grid()[:2]
    run_grid(grid, jobs=1)
    assert not _journal_path(grid).exists()
    assert checkpoint.stats()["entries"] == 0


def test_no_resume_ignores_journal(monkeypatch):
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    real = _break_benchmark(monkeypatch, "m88ksim")
    with pytest.raises(GridFailures):
        run_grid(_grid(), jobs=1, keep_going=True)

    import repro.experiments.scheduler as scheduler

    recomputed = []

    def counting(point, **kwargs):
        recomputed.append(point)
        return real(point, **kwargs)

    monkeypatch.setattr(scheduler, "_run_point", counting)
    runner.clear_caches()
    run_grid(_grid(), jobs=1, resume=False)
    assert len(recomputed) == 4  # every point, journal deliberately unused


def test_journal_reader_tolerates_damage(tmp_path):
    keys = ["a" * 64, "b" * 64]
    journal = checkpoint.Journal(keys)
    journal.record(keys[0], "frontend", {"x": 1})
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write(json.dumps({"v": -1, "key": keys[1], "kind": "frontend",
                                 "payload": {}}) + "\n")   # wrong version
        handle.write(json.dumps({"v": 1, "key": "f" * 64, "kind": "frontend",
                                 "payload": {}}) + "\n")   # foreign key
        handle.write('{"v": 1, "key": "' + keys[1])        # SIGKILL torn line
    restored = checkpoint.Journal(keys).load()
    assert restored == {keys[0]: ("frontend", {"x": 1})}


def test_journal_write_failure_disables_with_one_warning():
    directory = checkpoint.checkpoint_dir()
    directory.parent.mkdir(parents=True, exist_ok=True)
    directory.write_text("not a directory")  # mkdir under it must fail
    journal = checkpoint.Journal(["a" * 64])
    with pytest.warns(RuntimeWarning, match="journaling disabled"):
        journal.record("a" * 64, "frontend", {"x": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        journal.record("a" * 64, "frontend", {"x": 2})  # silent no-op now


def test_checkpoints_can_be_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    grid = _grid()
    _break_benchmark(monkeypatch, "m88ksim")
    with pytest.raises(GridFailures):
        run_grid(grid, jobs=1, keep_going=True)
    assert not _journal_path(grid).exists()
    assert checkpoint.stats()["entries"] == 0


#: A two-point grid whose ordinal 0 (BASELINE, first at equal cost)
#: hangs far past the tests below while ordinal 1 completes and is
#: journaled.  SIGUSR1 dumps every thread's stack to stderr, in the
#: parent and, through the fork, in both pool workers.  The child names
#: the journal it opens in the file ``sys.argv[1]``: its cache keys hash
#: the sources as the child reads them, which differ from the test
#: process's cached fingerprint if ``src/`` changed in between.
_HUNG_GRID_SCRIPT = (
    "import faulthandler, os, signal, sys\n"
    "faulthandler.register(signal.SIGUSR1, all_threads=True)\n"
    "from repro.config import BASELINE, PROMOTION_PACKING\n"
    "from repro.experiments import checkpoint\n"
    "from repro.experiments.scheduler import GridPoint, run_grid\n"
    "opened = checkpoint.Journal.__init__\n"
    "def announce(journal, keys):\n"
    "    opened(journal, keys)\n"
    "    with open(sys.argv[1] + '.tmp', 'w') as handle:\n"
    "        handle.write(str(journal.path))\n"
    "    os.replace(sys.argv[1] + '.tmp', sys.argv[1])\n"
    "checkpoint.Journal.__init__ = announce\n"
    f"run_grid([GridPoint('frontend', 'compress', BASELINE, {N}),\n"
    f"          GridPoint('frontend', 'compress', PROMOTION_PACKING, {N})],\n"
    "         jobs=2)\n"
)


def _spawn_hung_grid(stderr_path: Path) -> subprocess.Popen:
    """Start the hung grid in its own process group, stderr to a file.

    The child writes its journal's path to :func:`_journal_path_file`.
    No deadline, so the child blocks forever on the hung worker until
    the test kills the whole group.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_FAULTS"] = "hang:p0:600"
    env["REPRO_DISK_CACHE"] = "0"
    with open(stderr_path, "wb") as stderr:
        return subprocess.Popen([sys.executable, "-c", _HUNG_GRID_SCRIPT,
                                 str(_journal_path_file(stderr_path))],
                                env=env, cwd=REPO, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=stderr)


def _journal_path_file(stderr_path: Path) -> Path:
    """Where the hung-grid child names its journal, beside its stderr."""
    return stderr_path.with_name("child-journal-path.txt")


def _wait_for_journal(child: subprocess.Popen, stderr_path: Path) -> Path:
    """Wait up to 120 s for the first complete line of the child's
    journal; returns the journal's path, as the child named it.

    On a stall, the failure message carries the stacks of the child and
    its workers, dumped by SIGUSR1 before the caller's SIGKILL.
    """
    path_file = _journal_path_file(stderr_path)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if path_file.exists():
            journal = Path(path_file.read_text())
            if journal.exists() and journal.read_text().endswith("\n"):
                return journal
        if child.poll() is not None:
            pytest.fail("child exited before journaling anything; stderr:\n"
                        + stderr_path.read_text(errors="replace"))
        time.sleep(0.2)
    try:
        os.killpg(child.pid, signal.SIGUSR1)
    except ProcessLookupError:
        pass
    time.sleep(2)  # let every process finish writing its dump
    pytest.fail("journal never appeared; stacks of the child and its "
                "workers:\n" + stderr_path.read_text(errors="replace"))


def test_sigkilled_run_resumes_from_journal(monkeypatch, tmp_path):
    """SIGKILL a grid mid-run; the resumed run recomputes only the
    unjournaled point (asserted by journal inspection and a call count)."""
    points = [GridPoint("frontend", "compress", BASELINE, N),
              GridPoint("frontend", "compress", PROMOTION_PACKING, N)]
    stderr_path = tmp_path / "child-stderr.txt"
    child = _spawn_hung_grid(stderr_path)
    try:
        journal = _wait_for_journal(child, stderr_path)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=30)

    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    packing_key = runner.frontend_cache_key("compress", PROMOTION_PACKING, N)
    assert [entry["key"] for entry in entries] == [packing_key]

    import repro.experiments.scheduler as scheduler

    real = scheduler._run_point
    recomputed = []

    def counting(point, **kwargs):
        recomputed.append(point)
        return real(point, **kwargs)

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setattr(scheduler, "_run_point", counting)
    results = run_grid(points, jobs=1)
    assert len(results) == 2
    assert [p.config for p in recomputed] == [BASELINE]  # journal served the rest
    assert not journal.exists()


def test_sigint_interrupted_run_leaves_resumable_journal(monkeypatch,
                                                         tmp_path):
    """Ctrl-C (SIGINT to the parent only) mid-grid must (a) actually
    terminate the run instead of wedging interpreter exit behind the
    hung worker, and (b) leave the checkpoint journal resumable, so the
    next run recomputes only the interrupted point."""
    points = [GridPoint("frontend", "compress", BASELINE, N),
              GridPoint("frontend", "compress", PROMOTION_PACKING, N)]
    stderr_path = tmp_path / "child-stderr.txt"
    child = _spawn_hung_grid(stderr_path)
    try:
        journal = _wait_for_journal(child, stderr_path)
        os.kill(child.pid, signal.SIGINT)  # the parent only, like Ctrl-C
        # The regression: exit used to block on the executor's atexit
        # join of the hung worker.  The scheduler now kills the pool on
        # the way out, so the child must die promptly.
        returncode = child.wait(timeout=30)
        assert returncode != 0
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # sweep any stragglers
        except ProcessLookupError:
            pass
        child.wait(timeout=30)

    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    packing_key = runner.frontend_cache_key("compress", PROMOTION_PACKING, N)
    assert [entry["key"] for entry in entries] == [packing_key]

    import repro.experiments.scheduler as scheduler

    real = scheduler._run_point
    recomputed = []

    def counting(point, **kwargs):
        recomputed.append(point)
        return real(point, **kwargs)

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    monkeypatch.setattr(scheduler, "_run_point", counting)
    results = run_grid(points, jobs=1)
    assert len(results) == 2
    assert [p.config for p in recomputed] == [BASELINE]
    assert not journal.exists()


# --- satellite robustness fixes ----------------------------------------------


def test_diskcache_store_reraises_keyboard_interrupt(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        diskcache.store("e" * 64, "frontend", {"x": 1})
    # The temp file was cleaned up before the interrupt escaped.
    assert list(diskcache.cache_dir().glob("*.tmp")) == []


def test_corrupt_cache_quarantine_tolerates_losing_the_race(monkeypatch):
    """Two processes race to quarantine the same corrupt cache entry: the
    one whose rename loses must treat FileNotFoundError as success."""
    expected = _dicts({"p": runner.frontend_result("compress", BASELINE, N)})
    key = runner.frontend_cache_key("compress", BASELINE, N)
    path = diskcache.entry_path(key)
    faults._corrupt_file(path)
    runner.clear_caches()

    real_replace = os.replace

    def racing_replace(src, dst, *args, **kwargs):
        if str(src) == str(path):
            real_replace(src, dst)  # the concurrent worker wins first...
            raise FileNotFoundError(str(src))  # ...then we lose the race
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", racing_replace)
    assert diskcache.load(key) is None
    assert not path.exists()
    monkeypatch.setattr(os, "replace", real_replace)
    recomputed = runner.frontend_result("compress", BASELINE, N)
    assert _dicts({"p": recomputed}) == expected
