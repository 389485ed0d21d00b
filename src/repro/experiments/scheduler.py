"""Supervised process-pool experiment scheduler.

The paper's tables and figures are grids of independent simulations:
(benchmark, configuration, run length) points.  This module fans a grid
out over worker processes and merges the results back into the runner's
caches, so experiment builders keep their simple serial loops — by the
time a builder iterates, every point it asks for is a memo hit.

Scheduling decisions:

* **Per-point fan-out.**  Each simulation is its own pool task, handed
  out **largest estimated cost first** (machine points cost roughly
  four front-end points of the same length, plus their warmup), with at
  most ``jobs`` tasks in flight so per-point deadlines measure runtime,
  not queueing.
* **Oracles computed before the fork.**  The parent computes every
  oracle a missing point needs into the runner's memo before it spawns
  the pool, so forked workers inherit them instead of re-executing.
* **Cache-first.**  The parent serves every point it can from the memo
  and disk caches — and from the grid's checkpoint journal
  (:mod:`repro.experiments.checkpoint`) — before spawning anything; a
  fully warm grid never creates a pool.
* **Degradation.**  ``jobs <= 1`` (the default on single-core boxes) or
  a single-point grid runs inline in the parent — same results, no
  pickling, no process startup.

Supervision is :class:`repro.experiments.faults.Supervision`, the one
retry policy the experiment service also runs, over the route list
``[pool, inline]``.  Failed runs are classified by
:func:`~repro.experiments.faults.classify` and the policy answers:
transient failures (a crashed worker, an OS-level IO error) and points
that blow their cost-scaled ``REPRO_POINT_TIMEOUT`` deadline (their hung
worker is killed) retry with exponential backoff; a deterministic
failure in a worker is re-run once inline in the parent, and fails fast
with the clean parent traceback or lands in the end-of-run
:class:`~repro.experiments.faults.GridFailures` report
(``REPRO_KEEP_GOING`` / ``--keep-going``); a divergence caught by the
``REPRO_VALIDATE`` lockstep guard requeues the point **pinned to the
reference engine**, so the grid still completes with trustworthy
numbers and the divergence, with its report path, is surfaced through
:func:`take_divergences` instead of killing the run.  The pool route
sits behind a per-grid circuit breaker: after three pool breaks the rest
of the grid runs serially in the parent, which is always a safe floor
because injected faults never fire outside workers.  Completed points
are journaled as they finish, so an interrupted grid resumes from the
journal instead of recomputing.

Worker count resolution: explicit ``jobs`` argument, else ``REPRO_JOBS``
from the environment, else ``os.cpu_count()``.  An unparseable
``REPRO_JOBS`` warns once per process tree: workers inherit the parent's
already-warned state through the pool initializer.

Workers inherit ``REPRO_CACHE_DIR`` and write the disk cache themselves,
so a parallel run leaves the same warm cache behind as a serial one.
"""

from __future__ import annotations

import math
import os
import signal
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, replace
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.experiments import (checkpoint, diskcache, env, faults, runner,
                               warnonce)
from repro.experiments.breaker import CircuitBreaker
from repro.experiments.serialize import (
    frontend_result_from_dict,
    frontend_result_to_dict,
    machine_result_from_dict,
    machine_result_to_dict,
)
from repro.gcpause import gc_paused

#: GridPoint.kind values.
FRONTEND = "frontend"
MACHINE = "machine"

#: Relative cost of one simulated machine instruction versus one
#: front-end instruction (the cycle-level core is roughly 4x slower).
_MACHINE_COST_FACTOR = 4


@dataclass(frozen=True)
class GridPoint:
    """One simulation in an experiment grid.

    ``n=None`` means "the runner's default length for this benchmark",
    resolved in the parent process at schedule time (so monkeypatched or
    env-scaled lengths apply exactly once, consistently).
    ``warmup`` only applies to machine points.
    """

    kind: str
    benchmark: str
    config: Any
    n: Optional[int] = None
    warmup: bool = True

    def resolved(self) -> "GridPoint":
        if self.n is not None:
            return self
        if self.kind == FRONTEND:
            n = runner.default_length(self.benchmark)
        elif self.kind == MACHINE:
            n = runner.machine_length(self.benchmark)
        else:
            raise ValueError(f"unknown grid point kind: {self.kind!r}")
        return replace(self, n=n)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: argument > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        raw = env.get_raw("REPRO_JOBS")
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                warnonce.warn_once(
                    "repro-jobs",
                    f"ignoring invalid REPRO_JOBS={raw!r} (not an integer)",
                )
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _estimated_cost(point: GridPoint) -> int:
    """Simulated-instruction cost estimate used for longest-first order.

    Machine points pay the cycle-level core's slowdown on their measured
    window plus an oracle-driven front-end warmup at the benchmark's
    full default length; front-end points pay their length directly.
    """
    if point.kind == MACHINE:
        cost = _MACHINE_COST_FACTOR * point.n
        if point.warmup:
            cost += runner.default_length(point.benchmark)
        return cost
    return point.n


def _point_key(point: GridPoint) -> str:
    """The resolved point's content-hash cache key (runner-compatible)."""
    if point.kind == FRONTEND:
        return runner.frontend_cache_key(point.benchmark, point.config,
                                         point.n)
    return runner.machine_cache_key(point.benchmark, point.config, point.n,
                                    warmup=point.warmup)


#: Public aliases for the experiment service, which reuses the
#: scheduler's cost model and key scheme for admission control and
#: machine-wide request coalescing.
estimated_cost = _estimated_cost
point_key = _point_key


def cost_scale(point: GridPoint) -> float:
    """Per-point timeout/lease multiplier relative to the reference cost.

    A point estimated at :data:`faults.COST_REFERENCE` simulated
    instructions gets scale 1.0; heavier points get proportionally more
    budget and lighter ones never get less than the base.  The
    supervisor, the service's pooled dispatch, and fleet lease TTLs all
    share this factor so one knob setting means the same thing on every
    execution path.
    """
    return max(1.0, _estimated_cost(point) / faults.COST_REFERENCE)


def cost_budget(point, base: Optional[float]) -> Optional[float]:
    """``base`` seconds scaled by the point's :func:`cost_scale`, or None
    when ``base`` is unset or non-positive (no deadline)."""
    if base is None or base <= 0:
        return None
    return base * cost_scale(point)


def deadline_point_timeout(points: Sequence[GridPoint],
                           deadline: Optional[float]) -> Optional[float]:
    """Base per-point timeout so a grid's budgets sum to ``deadline``.

    The supervisor scales its base timeout by each point's estimated
    cost relative to :data:`faults.COST_REFERENCE`; normalizing the base
    by the grid's total scale factor hands every point a proportional
    share of the caller's wall-clock budget (exact when points run
    serially, conservative when they run in parallel — a parallel grid
    finishes *earlier* than the budget assumes, never later because of
    this bound).  Returns None for no/non-positive deadline or an empty
    grid.
    """
    if deadline is None or deadline <= 0 or not points:
        return None
    total_scale = sum(cost_scale(point) for point in points)
    if total_scale <= 0:
        return None
    return deadline / total_scale


def _result_to_payload(point: GridPoint, result) -> Dict[str, Any]:
    """Serialize one result for the checkpoint journal."""
    if point.kind == FRONTEND:
        return frontend_result_to_dict(result)
    return machine_result_to_dict(result)


def _result_from_payload(point: GridPoint, payload: Dict[str, Any]):
    """Rebuild a journaled result; raises on a malformed payload."""
    if point.kind == FRONTEND:
        return frontend_result_from_dict(payload)
    return machine_result_from_dict(payload)


def _oracle_needs(point: GridPoint) -> List[Tuple[str, int]]:
    """The (benchmark, length) oracle streams this point will consume."""
    if point.kind == FRONTEND:
        return [(point.benchmark, point.n)]
    if point.warmup:
        return [(point.benchmark, runner.default_length(point.benchmark))]
    return []  # the core itself runs the program, not the oracle


def _prewarm_oracles(points: Sequence[GridPoint]) -> None:
    """Compute each needed oracle once into the runner's memo, so the
    workers forked afterwards inherit it instead of re-executing."""
    needed = set()
    for point in points:
        needed.update(_oracle_needs(point))
    for benchmark, n in sorted(needed):
        runner.get_oracle(benchmark, n)


def _worker_init(emitted_keys: Tuple[str, ...]) -> None:
    """Pool initializer: inherit the parent's already-warned state so a
    grid emits each environment diagnostic once, not once per worker,
    and arm the fault-injection harness (faults fire in workers only).

    Forked workers also inherit the parent's signal dispositions; when
    the parent is the experiment service, SIGTERM is wired to its drain
    handler — useless in a worker, and it would shrug off the
    terminate() that :func:`_kill_pool` relies on.  Restore the default
    so workers stay killable."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (OSError, ValueError):
        pass  # not the worker main thread / platform without SIGTERM
    warnonce.seed(emitted_keys)
    faults.mark_worker()


def _run_point(point: GridPoint, engine: Optional[str] = None):
    """Execute one resolved point through the runner.

    ``engine="reference"`` pins the run to the frozen reference stack —
    the supervisor's degradation path after a detected divergence.

    The whole unit — program generation, oracle, warm-up, simulation and
    result encoding — runs under one pause of the cyclic GC: the
    simulators build no reference cycles (``tests/test_gc_hygiene.py``),
    so collections here would only re-walk live objects.  Serial, pool
    and fleet execution all come through this function.
    """
    with gc_paused():
        if point.kind == FRONTEND:
            return runner.frontend_result(point.benchmark, point.config,
                                          point.n, engine=engine)
        return runner.machine_result(point.benchmark, point.config, point.n,
                                     warmup=point.warmup, engine=engine)


def _run_point_task(point: GridPoint, ordinal: int, attempt: int, key: str,
                    engine: Optional[str] = None):
    """Pool-task wrapper: fault-injection hooks around one point.

    The hooks are no-ops unless this process is an armed worker *and*
    ``REPRO_FAULTS`` is set, so the production path pays two tuple
    checks per point.
    """
    faults.inject_before(key, ordinal, attempt)
    result = _run_point(point, engine=engine)
    faults.inject_after(key, ordinal, attempt,
                        cache_path=diskcache.entry_path(key))
    return result


#: Public alias for fleet workers, which execute individual points (with
#: the same fault-injection hooks the local pool gets) outside a grid.
run_point_task = _run_point_task


def _admit(point: GridPoint, result) -> None:
    if point.kind == FRONTEND:
        runner.admit_frontend_result(result, point.n)
    else:
        runner.admit_machine_result(result, point.n, point.warmup)


def _probe(point: GridPoint, key: Optional[str] = None):
    """The point's ``(result, stored payload)``; see ``runner._probe``.

    ``key``, when given, is the point's :func:`point_key` (it spares the
    probe a second hash of the point).
    """
    if point.kind == FRONTEND:
        return runner.probe_frontend(point.benchmark, point.config, point.n,
                                     key=key)
    return runner.probe_machine(point.benchmark, point.config, point.n,
                                warmup=point.warmup, key=key)


def _cached(point: GridPoint, key: Optional[str] = None):
    """The point's result from the memo or disk cache, or None."""
    return _probe(point, key)[0]


def _cached_payload(point: GridPoint,
                    key: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """The point's wire payload from the memo or disk cache, or None.

    The memo is probed first.  A disk hit answers with the stored dict
    as it is: it is decoded once, to validate it and admit it to the
    memo, but never re-encoded.  Only a memo hit is encoded.
    """
    result, payload = _probe(point, key)
    if payload is None and result is not None:
        payload = _result_to_payload(point, result)
    return payload


def _spawn_pool(workers: int) -> ProcessPoolExecutor:
    """A worker pool whose processes run :func:`_worker_init`.

    A pool is spawned only to compute, so the workload generator (and
    numpy with it) is imported here first: forked workers inherit it
    instead of each importing their own, while a process that only
    serves cached results never loads it.
    """
    import repro.workloads.generator  # noqa: F401
    return ProcessPoolExecutor(max_workers=max(1, workers),
                               initializer=_worker_init,
                               initargs=(warnonce.snapshot(),))


#: Seconds :func:`_kill_pool` waits for the executor's manager thread.
_MANAGER_JOIN_S = 5.0


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool with a hung worker.

    ``shutdown`` alone would block behind the hang: terminate the worker
    processes first (best-effort — ``_processes`` is executor-private,
    so any failure just falls back to an abandoned pool), then release
    the executor without waiting.  Last, wait a bounded time for the
    executor's manager thread to notice the dead workers and exit, just
    as best-effort: left running, it closes its wakeup pipe while the
    interpreter's exit hook writes to it, which prints an ignored
    ``OSError: [Errno 9]`` traceback as the process exits.
    """
    manager = getattr(pool, "_executor_manager_thread", None)  # shutdown drops it
    try:
        processes = dict(getattr(pool, "_processes", None) or {})
        for process in processes.values():
            process.kill()  # SIGKILL: a hung worker may shrug off SIGTERM
    except Exception:
        pass
    pool.shutdown(wait=False, cancel_futures=True)
    try:
        if manager is not None:
            manager.join(_MANAGER_JOIN_S)
    except Exception:
        pass


@dataclass(frozen=True)
class _Policy:
    """Resolved supervision knobs for one grid run."""

    jobs: int
    max_retries: int
    timeout: Optional[float]   #: base seconds at faults.COST_REFERENCE cost
    backoff: float             #: exponential backoff base seconds
    keep_going: bool


class _Supervisor:
    """Drives a grid's miss list to completion under
    :class:`faults.Supervision` over the routes ``[pool, inline]``."""

    def __init__(self, misses: Sequence[GridPoint],
                 keys: Dict[GridPoint, str], policy: _Policy,
                 journal: checkpoint.Journal):
        # Longest first: with independent points, scheduling the most
        # expensive work early minimizes the makespan straggler.
        self.order = sorted(misses, key=_estimated_cost, reverse=True)
        self.ordinals = {point: i for i, point in enumerate(self.order)}
        self.keys = keys
        self.policy = policy
        self.journal = journal
        self.routes: List[faults.Route] = [faults.INLINE]
        if policy.jobs > 1 and len(self.order) > 1:
            # Successes are never reported and the breaker never cools
            # down: the third pool break of a grid finishes it serially.
            self.routes.insert(0, faults.Route("pool", CircuitBreaker(
                threshold=3, cooldown=math.inf)))
        self.supervision = faults.Supervision(
            budget=faults.retry_budget(self.routes, policy.max_retries),
            backoff=policy.backoff)
        self.states: Dict[GridPoint, faults.PointState] = {}
        self.failures: List[faults.PointFailure] = []
        self.results: Dict[GridPoint, Any] = {}
        #: Divergences handled gracefully (the grid still completed);
        #: surfaced in the end-of-run table, not raised.
        self.divergences: List[faults.PointFailure] = []

    # ------------------------------------------------------------ outcomes

    def _state(self, point: GridPoint) -> faults.PointState:
        return self.states.get(point, faults.PointState())

    def _record(self, point: GridPoint, result) -> None:
        """A point completed: admit, remember, journal."""
        _admit(point, result)
        self.results[point] = result
        self.journal.record(self.keys[point], point.kind,
                            _result_to_payload(point, result))

    def _settle(self, point: GridPoint, exc: BaseException, on_floor: bool,
                requeue: Callable[[GridPoint], None]) -> str:
        """Feed one failed run to the policy and carry out its action.

        ``give-up`` reports the point (or raises right now, without
        keep-going) and every other action requeues it (its new state
        picks the route and engine).  Returns the action taken.
        """
        kind = faults.classify(exc)
        action, state = self.supervision.step(self._state(point), kind,
                                              on_floor)
        self.states[point] = state
        if action == faults.GIVE_UP:
            kind = faults.give_up_kind(kind)
            clean = not faults.retryable(kind)
            self.failures.append(faults.PointFailure(
                point=point, kind=kind, attempts=state.runs,
                error=faults.format_error(exc),
                traceback=faults.capture_traceback(exc) if clean else ""))
            if self.policy.keep_going:
                return action
            if clean and isinstance(exc, Exception):
                raise exc  # the clean inline traceback, not a pool wrapper
            raise faults.GridFailures(self.failures, self.results)
        if action == faults.PIN_REFERENCE:
            report = getattr(exc, "report_path", None)
            warnonce.warn_once(
                f"divergence:{self.keys[point]}",
                f"{point.benchmark} {point.kind} point diverged from the "
                "reference engine"
                + (f" (report: {report})" if report else "")
                + "; re-running pinned to the reference stack")
            self.divergences.append(faults.PointFailure(
                point=point, kind=faults.DIVERGENCE, attempts=state.runs,
                error=faults.format_error(exc)))
        requeue(point)
        return action

    # ----------------------------------------------------------- execution

    def run(self) -> Dict[GridPoint, Any]:
        """Run every miss; returns results or raises on failed points."""
        pending: Deque = deque(self.order)
        if len(self.routes) > 1:
            self._run_pooled(pending)
        else:
            self._run_serial(pending)
        if self.failures:
            raise faults.GridFailures(self.failures, self.results)
        return self.results

    def _run_serial(self, pending: Deque) -> None:
        """The inline floor: run each point in the parent until settled
        (faults never fire here)."""
        while pending:
            point = pending.popleft()
            try:
                result = _run_point(point, engine=self._state(point).engine)
            except Exception as exc:
                if self._settle(point, exc, True,
                                pending.appendleft) == faults.RETRY:
                    self.supervision.sleep(self.supervision.delay(
                        self.states[point].retries))
            else:
                self._record(point, result)

    def _run_pooled(self, pending: Deque) -> None:
        """The supervision loop: window, wait, settle, respawn.

        Each point goes to the first route :func:`faults.pick_route`
        allows; floor-routed points (inline re-runs, and every point once
        the pool breaker trips) run in the parent right away.

        ``KeyboardInterrupt`` (and any other control-flow exception)
        forcibly terminates the worker processes before propagating:
        workers may be mid-simulation — or deliberately hung by the
        chaos harness — and a graceful shutdown would block interpreter
        exit behind them, turning Ctrl-C into a hang.  The checkpoint
        journal has already flushed every completed point line by line,
        so the interrupted grid resumes from the journal.
        """
        breaker = self.routes[0].breaker
        pool: Optional[ProcessPoolExecutor] = None
        inflight: Dict[Any, GridPoint] = {}
        deadlines: Dict[Any, float] = {}
        try:
            while pending or inflight:
                broken = False
                # Keep at most ``jobs`` tasks in flight so a submit
                # timestamp approximates a start timestamp and deadlines
                # measure simulation time, not queue time.
                while pending and len(inflight) < self.policy.jobs:
                    point = pending.popleft()
                    state = self._state(point)
                    if faults.pick_route(self.routes, state) is faults.INLINE:
                        self._run_serial(deque([point]))
                        continue
                    if pool is None:
                        pool = _spawn_pool(
                            min(self.policy.jobs, len(pending) + 1))
                    try:
                        future = pool.submit(
                            _run_point_task, point, self.ordinals[point],
                            state.retries, self.keys[point], state.engine)
                    except (BrokenExecutor, RuntimeError):
                        # The pool died between iterations: requeue the
                        # point without charging it a retry and handle
                        # the break below, with the in-flight futures.
                        pending.appendleft(point)
                        broken = True
                        break
                    inflight[future] = point
                    budget = cost_budget(point, self.policy.timeout)
                    if budget is not None:
                        deadlines[future] = time.monotonic() + budget
                # A pool exists whenever a point is in flight or the pool
                # broke; only an all-inline window reaches here without one.
                done = set()
                if inflight:
                    wait_timeout = None
                    if deadlines:
                        wait_timeout = max(
                            0.0, min(deadlines.values()) - time.monotonic())
                    done, _ = wait(set(inflight), timeout=wait_timeout,
                                   return_when=FIRST_COMPLETED)
                for future in done:
                    point = inflight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        result = future.result()
                    except Exception as exc:
                        broken |= isinstance(exc, BrokenExecutor)
                        self._settle(point, exc, False, pending.append)
                    else:
                        self._record(point, result)
                # Hung points: deadline passed and the future still runs.
                now = time.monotonic()
                overdue = [future for future, deadline in deadlines.items()
                           if now >= deadline and future in inflight]
                for future in overdue:
                    point = inflight.pop(future)
                    deadlines.pop(future, None)
                    self._settle(point, faults.PointTimeout(
                        f"{point.benchmark} point exceeded its "
                        f"{cost_budget(point, self.policy.timeout):.1f}s "
                        "deadline"), False, pending.append)
                if overdue:
                    _kill_pool(pool)  # the hung worker must die
                if overdue or broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    # Collateral in-flight points died with the pool
                    # through no fault of their own: requeue them without
                    # consuming a retry (the culprit's own future already
                    # did, when it raised above).
                    pending.extend(inflight.values())
                    inflight.clear()
                    deadlines.clear()
                    self._pool_broke(breaker)
                    # One backoff per break, not per point: a per-point
                    # sleep would stall the whole window.
                    self.supervision.sleep(
                        self.supervision.delay(breaker.strikes))
            if pool is not None:
                # Normal end: every point settled, so the workers are
                # idle.  Waiting lets the executor's manager thread exit
                # now; a non-waiting shutdown leaves it racing the
                # interpreter's exit hook over its wakeup pipe.
                pool.shutdown(wait=True)
        except BaseException:
            if pool is not None:
                _kill_pool(pool)  # terminate workers; do not wait on them
            raise

    @staticmethod
    def _pool_broke(breaker: CircuitBreaker) -> None:
        """Strike the grid's pool breaker; warn once when it trips."""
        breaker.record_break()
        if not breaker.allow_pool():
            warnonce.warn_once(
                "scheduler-serial-degrade",
                f"worker pool broke {breaker.strikes} times; "
                "running the rest of the grid serially")


#: Divergences handled gracefully by grids in this process, in order.
_divergence_log: List[faults.PointFailure] = []


def take_divergences() -> List[faults.PointFailure]:
    """Drain the divergences recorded by grids run so far.

    A divergence is downgraded, not dropped: the grid completes on the
    reference engine and the event lands here for the end-of-run report
    (the CLI prints it beside the failure table).  Draining resets the
    log so each experiment reports only its own divergences.
    """
    global _divergence_log
    drained, _divergence_log = _divergence_log, []
    return drained


def run_grid(points: Sequence[GridPoint], jobs: Optional[int] = None, *,
             resume: Optional[bool] = None,
             max_retries: Optional[int] = None,
             timeout: Optional[float] = None,
             deadline: Optional[float] = None,
             keep_going: Optional[bool] = None) -> Dict[GridPoint, Any]:
    """Run every grid point; returns ``{resolved point: result}``.

    Duplicate points collapse to one simulation.  Results are also left
    in the runner's in-process memo, so subsequent direct
    ``frontend_result`` / ``machine_result`` calls are hits.

    Keyword arguments override their environment knobs (see
    :mod:`repro.experiments.faults`): ``resume`` replays this grid's
    checkpoint journal (default ``REPRO_RESUME``, on), ``max_retries``
    bounds transient retries (``REPRO_RETRIES``; a parallel grid raises
    it to its pool breaker's threshold, see
    :func:`~repro.experiments.faults.retry_budget`), ``timeout`` is the
    base per-point deadline in seconds (``REPRO_POINT_TIMEOUT``), and
    ``keep_going`` finishes the grid before raising
    :class:`~repro.experiments.faults.GridFailures` with the full
    failure table (``REPRO_KEEP_GOING``).

    ``deadline`` is a wall-clock budget in seconds for the whole request
    (the experiment service forwards its clients' deadlines here): when
    no explicit/environment ``timeout`` is set, it is divided into
    cost-proportional per-point budgets through
    :func:`deadline_point_timeout`, so a bounded request can never be
    wedged by one hung point.
    """
    resolved: List[GridPoint] = []
    seen = set()
    for point in points:
        point = point.resolved()
        if point not in seen:
            seen.add(point)
            resolved.append(point)

    keys = {point: _point_key(point) for point in resolved}
    results: Dict[GridPoint, Any] = {}
    misses: List[GridPoint] = []
    for point in resolved:
        cached = _cached(point, keys[point])
        if cached is not None:
            results[point] = cached
        else:
            misses.append(point)

    journal = checkpoint.Journal(keys.values())
    if resume is None:
        resume = checkpoint.resume_default()
    if misses and resume:
        restored = journal.load()
        if restored:
            still_missing = []
            for point in misses:
                entry = restored.get(keys[point])
                if entry is None:
                    still_missing.append(point)
                    continue
                try:
                    result = _result_from_payload(point, entry[1])
                except Exception:
                    still_missing.append(point)  # malformed: recompute
                    continue
                _admit(point, result)
                results[point] = result
            misses = still_missing
    if not misses:
        journal.complete()
        return results

    resolved_timeout = faults.resolve_timeout(timeout)
    if resolved_timeout is None and deadline is not None:
        resolved_timeout = deadline_point_timeout(misses, deadline)
    policy = _Policy(jobs=resolve_jobs(jobs),
                     max_retries=faults.resolve_retries(max_retries),
                     timeout=resolved_timeout,
                     backoff=faults.resolve_backoff(),
                     keep_going=faults.resolve_keep_going(keep_going))
    if policy.jobs > 1 and len(misses) > 1:
        _prewarm_oracles(misses)
    supervisor = _Supervisor(misses, keys, policy, journal)
    try:
        computed = supervisor.run()
    except BaseException:
        journal.close()  # keep the journal so the next run resumes
        raise
    finally:
        _divergence_log.extend(supervisor.divergences)
    results.update(computed)
    journal.complete()
    return results


def prefetch_frontend(benchmarks: Sequence[str], configs: Sequence[Any],
                      n: Optional[int] = None,
                      jobs: Optional[int] = None) -> None:
    """Warm the caches for a benchmarks x front-end-configs grid."""
    run_grid([GridPoint(FRONTEND, b, c, n) for b in benchmarks for c in configs],
             jobs=jobs)


def prefetch_machine(benchmarks: Sequence[str], configs: Sequence[Any],
                     n: Optional[int] = None, warmup: bool = True,
                     jobs: Optional[int] = None) -> None:
    """Warm the caches for a benchmarks x machine-configs grid."""
    run_grid([GridPoint(MACHINE, b, c, n, warmup)
              for b in benchmarks for c in configs], jobs=jobs)
