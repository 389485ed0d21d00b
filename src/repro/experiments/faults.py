"""Failure taxonomy, the supervision policy, and a fault-injection harness.

The experiment scheduler fans simulation grids out over worker processes;
at that scale, *something* eventually fails — a worker segfaults under
memory pressure, a point hangs, the disk fills mid-write, a cache file is
corrupted by a killed process.  This module gives every supervisor — the
grid scheduler in :mod:`repro.experiments.scheduler` and the experiment
service in :mod:`repro.service.server` — four things:

1. **A failure taxonomy.**  :func:`classify` sorts an exception raised by
   a grid point into *transient* (broken process pool, worker killed,
   OS-level cache IO errors — worth retrying with backoff),
   *timeout* (the point exceeded its wall-clock deadline — also retried),
   *divergence* (the lockstep guard caught the fast stack disagreeing
   with the reference) or *deterministic* (a simulation exception or
   invariant violation — retrying in a pool reproduces it).

2. **One supervision policy**, :class:`Supervision`: a pure retry state
   machine over an ordered route list (:class:`Route`,
   :func:`pick_route`) that decides what each failure kind leads to.

3. **Policy knobs**, all environment-driven so one setting covers every
   grid a script touches: ``REPRO_RETRIES`` (transient retry budget,
   default 2), ``REPRO_POINT_TIMEOUT`` (base wall-clock seconds per
   point at the reference cost of 100k simulated instructions, scaled by
   each point's estimated cost; unset disables deadlines),
   ``REPRO_BACKOFF`` (base of the exponential retry backoff, default
   0.1s) and ``REPRO_KEEP_GOING`` (finish the grid and report all
   failures at the end instead of failing fast).

4. **A deterministic fault-injection harness** for chaos testing, driven
   by ``REPRO_FAULTS`` — a comma-separated spec like
   ``crash:0.1,hang:p3,corrupt-cache:p7``.  Each entry is
   ``action:when[:arg]`` where *action* is one of ``crash`` (the worker
   calls ``os._exit``), ``hang`` (the worker sleeps *arg* seconds,
   default 30), ``corrupt-cache`` (the point's freshly written result
   cache entry is overwritten with garbage) or ``diverge`` (see below).
   *when* is either ``pN`` — fire on the point scheduled at ordinal
   ``N``, first attempt only, so retries succeed — or a probability in
   ``[0, 1]`` hashed from (action, point key, attempt), so a given run
   is exactly reproducible.
   The ``diverge`` action arms the :mod:`repro.validate` forced-latch so
   the next validated fetch/run reports an (injected) divergence —
   chaos coverage for the lockstep guard's detect/report/requeue path.
   Faults only ever fire inside pool workers (the pool initializer calls
   :func:`mark_worker`); serial runs and parent-side inline re-runs are
   never faulted, which is what makes "degrade to serial" a safe floor.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback as traceback_module
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments import env, warnonce
from repro.validate.errors import DivergenceError

# ------------------------------------------------------------- taxonomy

#: Point outcome kinds.
OK = "ok"
TRANSIENT = "transient"
TIMEOUT = "timeout"
DETERMINISTIC = "deterministic"
DIVERGENCE = "divergence"

#: Every failure kind :func:`classify` can answer.
KINDS = (TRANSIENT, TIMEOUT, DETERMINISTIC, DIVERGENCE)


def retryable(kind: str) -> bool:
    """Whether another attempt of a ``kind`` failure may succeed."""
    return kind in (TRANSIENT, TIMEOUT)


class Classified(Exception):
    """An exception carrying its own taxonomy kind, which :func:`classify`
    answers: a failure classified at its source or by construction."""

    kind = DETERMINISTIC

    def __init__(self, message: str = "", kind: Optional[str] = None):
        super().__init__(message)
        if kind is not None:
            self.kind = kind


class PointTimeout(Classified):
    """A grid point exceeded its wall-clock deadline and was cancelled."""

    kind = TIMEOUT


def classify(exc: BaseException) -> str:
    """Sort a grid-point exception into the retry taxonomy:
    :class:`Classified` -> its own ``kind``; ``DivergenceError`` ->
    :data:`DIVERGENCE`; broken pools, killed workers and OS-level IO
    errors on the cache files -> :data:`TRANSIENT`; anything
    else -> :data:`DETERMINISTIC`.  :class:`Supervision` decides the rest.
    """
    if isinstance(exc, Classified):
        return exc.kind
    if isinstance(exc, DivergenceError):
        return DIVERGENCE
    if isinstance(exc, (BrokenExecutor, OSError, EOFError)):
        return TRANSIENT
    return DETERMINISTIC


@dataclass(frozen=True)
class PointFailure:
    """One grid point's terminal failure, for the end-of-run report."""

    point: Any          #: the GridPoint that failed
    kind: str           #: TRANSIENT, TIMEOUT, DETERMINISTIC or DIVERGENCE
    attempts: int       #: how many attempts were consumed
    error: str          #: compact ``repr`` of the final exception
    traceback: str = ""  #: full traceback for deterministic failures


class GridFailures(RuntimeError):
    """Raised when a grid finishes (or fails fast) with failed points.

    Carries the per-point :class:`PointFailure` list and every result
    that *did* complete, so a ``--keep-going`` caller can report both.
    """

    def __init__(self, failures: Sequence[PointFailure], results: dict):
        super().__init__(f"{len(failures)} grid point(s) failed "
                         f"({len(results)} completed)")
        self.failures = list(failures)
        self.results = dict(results)


#: Column headers matching :func:`failure_rows`.
FAILURE_HEADERS = ("sim", "benchmark", "config", "failure", "attempts", "error")


def failure_rows(failures: Sequence[PointFailure]) -> List[List[str]]:
    """Tabular form of a failure list (rows match :data:`FAILURE_HEADERS`)."""
    rows = []
    for f in failures:
        describe = getattr(f.point.config, "describe", None)
        label = describe() if callable(describe) else str(f.point.config)
        rows.append([f.point.kind, f.point.benchmark, label,
                     f.kind, str(f.attempts), f.error])
    return rows


def format_error(exc: BaseException) -> str:
    """Compact one-line rendering of an exception for failure tables."""
    text = f"{type(exc).__name__}: {exc}".strip().rstrip(":")
    return text if len(text) <= 120 else text[:117] + "..."


def capture_traceback(exc: BaseException) -> str:
    """The exception's full traceback as a string (empty if unraised)."""
    return "".join(traceback_module.format_exception(
        type(exc), exc, exc.__traceback__))


# --------------------------------------------------------------- policy

#: Estimated-cost denominator for timeout scaling: a point costing this
#: many simulated instructions gets exactly the base timeout.
COST_REFERENCE = 100_000


def resolve_retries(override: Optional[int] = None) -> int:
    """Transient retry budget: argument > ``REPRO_RETRIES`` > 2."""
    if override is not None:
        return max(0, override)
    return max(0, env.get_int("REPRO_RETRIES", 2))


def resolve_timeout(override: Optional[float] = None) -> Optional[float]:
    """Base per-point deadline in seconds, or None when disabled.

    Argument > ``REPRO_POINT_TIMEOUT`` > disabled.  Non-positive values
    disable deadlines.  The scheduler scales the base by each point's
    estimated cost relative to :data:`COST_REFERENCE`.
    """
    timeout = override
    if timeout is None:
        timeout = env.get_float("REPRO_POINT_TIMEOUT", 0.0)
    return timeout if timeout and timeout > 0 else None


def resolve_keep_going(override: Optional[bool] = None) -> bool:
    """Keep-going mode: argument > ``REPRO_KEEP_GOING`` > fail-fast."""
    if override is not None:
        return override
    return env.get_flag("REPRO_KEEP_GOING", False)


def resolve_backoff(override: Optional[float] = None) -> float:
    """Exponential-backoff base in seconds: argument > ``REPRO_BACKOFF`` > 0.1."""
    if override is not None:
        return max(0.0, override)
    return max(0.0, env.get_float("REPRO_BACKOFF", 0.1))


def backoff_delay(base: float, attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based): base * 2^(n-1)."""
    if base <= 0 or attempt <= 0:
        return 0.0
    return base * (2 ** (min(attempt, 7) - 1))


# ----------------------------------------------------- supervision policy

#: Supervision actions.
RETRY = "retry"
RERUN_INLINE = "rerun-inline"
PIN_REFERENCE = "pin-reference"
GIVE_UP = "give-up"


@dataclass(frozen=True)
class PointState:
    """One point's supervision state."""

    runs: int = 0                 #: executions that ended in a failure
    retries: int = 0              #: transient/timeout retries used
    engine: Optional[str] = None  #: engine pin (``"reference"`` after a divergence)
    inline: bool = False          #: pinned to the inline floor


@dataclass(frozen=True)
class Route:
    """One execution route; ``breaker=None`` marks the inline floor, and
    ``ready`` is an availability test asked before the breaker."""

    name: str
    breaker: Any = None
    ready: Optional[Callable[[], bool]] = None


#: The inline floor every route list ends with.
INLINE = Route("inline")


def pick_route(routes: Sequence[Route], state: PointState) -> Route:
    """The first route allowed for a point; the last one is the floor.

    A point pinned inline always gets the floor.  A breaker is only
    asked once its route is otherwise ready, because asking may move an
    open breaker to its half-open probe.
    """
    if not state.inline:
        for route in routes[:-1]:
            if (route.ready is None or route.ready()) \
                    and route.breaker.allow_pool():
                return route
    return routes[-1]


def retry_budget(routes: Sequence[Route], retries: int) -> int:
    """``max(retries, threshold of every breaker on the route list)``:
    each break of a route can charge a point one retry, and the point
    must outlast the breaks that trip the route and send it onward."""
    return max([retries] + [route.breaker.threshold for route in routes
                            if route.breaker is not None])


def give_up_kind(kind: str) -> str:
    """The kind a point that gave up after a ``kind`` outcome reports:
    a divergence on the pinned reference engine is a real failure."""
    return DETERMINISTIC if kind == DIVERGENCE else kind


@dataclass(frozen=True)
class Supervision:
    """The per-point retry state machine shared by every supervisor.

    :meth:`step` is pure.  Divergence pins the reference engine without
    using a retry, and a pinned point that diverges again gives up as
    deterministic; a deterministic failure off the inline floor gets one
    inline re-run, and on the floor gives up; a transient failure or
    timeout uses one retry and gives up past ``budget``
    (:func:`retry_budget`).  A failure reports ``attempts = runs``.  The
    sleep is injected (the service passes ``asyncio.sleep`` and awaits
    it), and :meth:`delay` goes through :func:`backoff_delay`.
    """

    budget: int
    backoff: float = 0.0
    sleep: Callable[[float], Any] = time.sleep

    def step(self, state: PointState, kind: str,
             on_floor: bool) -> Tuple[str, PointState]:
        """Map one failed run's outcome to ``(action, next state)``."""
        state = replace(state, runs=state.runs + 1)
        if kind == DIVERGENCE:
            if state.engine == "reference":
                return GIVE_UP, state
            return PIN_REFERENCE, replace(state, engine="reference")
        if retryable(kind):
            state = replace(state, retries=state.retries + 1)
            return (GIVE_UP if state.retries > self.budget else RETRY), state
        if on_floor:
            return GIVE_UP, state
        return RERUN_INLINE, replace(state, inline=True)

    def delay(self, retry: int) -> float:
        """Backoff before retry number ``retry`` (1-based)."""
        return backoff_delay(self.backoff, retry)


# ---------------------------------------------------- injection harness

#: Legal ``REPRO_FAULTS`` actions.
ACTIONS = ("crash", "hang", "corrupt-cache", "diverge")

#: Worker exit status used by the ``crash`` action (visible in pool logs).
CRASH_EXIT_STATUS = 37

#: Default ``hang`` stall in seconds when the spec gives no argument.
DEFAULT_HANG_SECONDS = 30.0

_in_worker = False


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``REPRO_FAULTS`` entry (``action:when[:arg]``)."""

    action: str
    ordinal: Optional[int] = None      #: ``pN`` form: fire on ordinal N, attempt 0
    probability: Optional[float] = None  #: float form: hash-based, any attempt
    arg: Optional[float] = None        #: action argument (hang seconds)


def mark_worker(armed: bool = True) -> bool:
    """Arm the harness for this process (called by the pool initializer).

    Faults never fire in the parent, so serial execution — including the
    scheduler's degraded-mode fallback and inline deterministic re-runs —
    is always a safe floor.  ``armed=False`` disarms it again; the
    previous state is returned, so a caller that arms only for its own
    lifetime (an in-process fleet worker) can restore it.
    """
    global _in_worker
    previous, _in_worker = _in_worker, armed
    return previous


def in_worker() -> bool:
    """Whether this process is an armed pool worker."""
    return _in_worker


def parse_spec(raw: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value; malformed entries warn once and drop.

    The harness must never turn a typo into a crashed experiment — an
    entry that does not parse is skipped, loudly.
    """
    specs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        spec = None
        if 2 <= len(parts) <= 3 and parts[0] in ACTIONS:
            action, when = parts[0], parts[1]
            try:
                arg = float(parts[2]) if len(parts) == 3 else None
                if when.startswith("p") and when[1:].isdigit():
                    spec = FaultSpec(action, ordinal=int(when[1:]), arg=arg)
                else:
                    probability = float(when)
                    if 0.0 <= probability <= 1.0:
                        spec = FaultSpec(action, probability=probability, arg=arg)
            except ValueError:
                spec = None
        if spec is None:
            warnonce.warn_once(
                f"repro-faults:{chunk}",
                f"ignoring malformed REPRO_FAULTS entry {chunk!r} "
                "(expected action:pN[:arg] or action:probability[:arg])")
            continue
        specs.append(spec)
    return tuple(specs)


def active_spec() -> Tuple[FaultSpec, ...]:
    """The parsed ``REPRO_FAULTS`` spec, or () outside armed workers."""
    raw = env.get_str("REPRO_FAULTS")
    if not raw or not _in_worker:
        return ()
    return parse_spec(raw)


def _fires(spec: FaultSpec, key: str, ordinal: int, attempt: int) -> bool:
    """Deterministic fire decision for one spec on one point attempt."""
    if spec.ordinal is not None:
        # Ordinal faults fire on the first attempt only, so a retried
        # point succeeds — the harness proves recovery, not permafailure.
        return attempt == 0 and ordinal == spec.ordinal
    digest = hashlib.sha256(
        f"{spec.action}|{key}|{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2 ** 64
    return unit < (spec.probability or 0.0)


def _corrupt_file(path) -> None:
    """Stamp garbage over the head of ``path`` (missing files are fine)."""
    try:
        with open(path, "r+b") as handle:
            handle.write(b"\xde\xad\xbe\xef{corrupt")
    except OSError:
        pass


def inject_before(key: str, ordinal: int, attempt: int) -> None:
    """Worker-side hook before a point runs: crash, hang, diverge."""
    for spec in active_spec():
        if not _fires(spec, key, ordinal, attempt):
            continue
        if spec.action == "crash":
            os._exit(CRASH_EXIT_STATUS)
        elif spec.action == "hang":
            time.sleep(spec.arg if spec.arg is not None
                       else DEFAULT_HANG_SECONDS)
        elif spec.action == "diverge":
            from repro.validate import errors
            errors.arm_forced_divergence()


def inject_after(key: str, ordinal: int, attempt: int,
                 cache_path: Any = None) -> None:
    """Worker-side hook after a point stored its result: corrupt-cache."""
    for spec in active_spec():
        if spec.action != "corrupt-cache":
            continue
        if not _fires(spec, key, ordinal, attempt):
            continue
        if cache_path is not None:
            _corrupt_file(cache_path)
