"""Memoized simulation runners shared by every experiment.

Results are served from a two-level cache:

1. in-process memo dicts (same objects returned on repeat calls — the
   oracle stream in particular is computed once per benchmark and
   replayed against every front-end configuration), and
2. the persistent on-disk cache (:mod:`repro.experiments.diskcache`),
   keyed by content hash of (benchmark profile, config, run length,
   simulator source fingerprint), so re-running an experiment script is
   warm across processes and across parallel workers.

The oracle stream is memoized in process only; a pooled grid computes
every oracle it needs in the parent before forking its workers
(:func:`repro.experiments.scheduler.run_grid`), so they inherit it.

Cache keys are memoized too, on (kind, benchmark, config, length,
warm-up length).  A key is a pure function of those within one process
(the benchmark profiles and the source fingerprint never change), so
:func:`clear_caches` keeps that memo: a warm service that drops its
result memos still hashes each point once.

Run-length environment knobs (they compose):

* ``REPRO_QUICK=1`` divides all run lengths by four (fast CI passes);
* ``REPRO_SCALE=<float>`` applies an arbitrary multiplier on top.

An unparseable ``REPRO_SCALE`` warns once (via the resettable
:mod:`repro.experiments.warnonce` registry) and falls back to 1.0 — it
used to be silently ignored, which made typos look like real runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.config import FrontEndConfig, MachineConfig
from repro.core.machine import Machine, MachineResult
from repro.experiments import diskcache, env, warnonce
from repro.experiments.cachekey import cache_key
from repro.experiments.serialize import (
    frontend_result_from_dict,
    frontend_result_to_dict,
    machine_result_from_dict,
    machine_result_to_dict,
)
from repro.frontend import build, store
from repro.frontend.simulator import FrontEndResult, FrontEndSimulator, compute_oracle
from repro.isa.program import Program
from repro.workloads.profiles import get_profile

_programs: Dict[str, Program] = {}
_oracles: Dict[Tuple[str, int], list] = {}
_frontend: Dict[Tuple[str, FrontEndConfig, int], FrontEndResult] = {}
_machine: Dict[Tuple[str, MachineConfig, int, bool], MachineResult] = {}
#: ``(kind, benchmark, config, n, warmup length or None) -> cache key``;
#: never cleared (see the module docstring).  Points arrive from service
#: clients too, so it stops growing at ``_KEYS_MAX`` entries.
_keys: Dict[Tuple[str, str, Any, int, Optional[int]], str] = {}
_KEYS_MAX = 1 << 16

def quick_scale() -> float:
    """Run-length multiplier from the environment.

    ``REPRO_QUICK`` contributes x0.25 and ``REPRO_SCALE`` multiplies on
    top of it, so ``REPRO_QUICK=1 REPRO_SCALE=0.5`` runs at x0.125 —
    they used to be exclusive, with QUICK silently masking SCALE.
    """
    scale = env.get_float("REPRO_SCALE", 1.0)
    if env.get_raw("REPRO_QUICK"):
        scale *= 0.25
    return scale


def clear_caches(disk: bool = False) -> None:
    """Drop every memoized program, oracle and result.

    The cache-key memo stays: keys do not change within a process.

    With ``disk=True`` also purge the persistent on-disk state — the
    result cache (entries, size index, pins, quarantine, lock files)
    and the checkpoint journals — then prune the now-empty bookkeeping
    subdirectories (``checkpoints/``, ``divergences/`` and friends), so
    a cleared cache dir is empty.  Used by benchmarks that need
    genuinely cold runs and by service operators resetting a shared
    cache.

    Also drops the compiled state living *inside* engines built so far
    (compiled fetch variants, fill-unit state machines, segment memos —
    see :func:`repro.frontend.build.reset_compiled_state`), so a
    long-lived process that switches configurations or regenerates
    programs (the differential fuzzer, notebook sessions) can never be
    served plans compiled against dropped programs.
    """
    import os

    from repro.experiments import checkpoint

    _programs.clear()
    _oracles.clear()
    _frontend.clear()
    _machine.clear()
    warnonce.reset()
    build.reset_compiled_state()
    if disk:
        diskcache.purge()
        checkpoint.purge()
        root = diskcache.cache_dir()
        # Prune the empty bookkeeping directories (missing or non-empty
        # ones are left alone — rmdir refuses non-empty dirs).
        for name in ("checkpoints", "divergences", "locks", "pins",
                     "quarantine"):
            try:
                os.rmdir(root / name)
            except OSError:
                pass


def generate_program(benchmark: str) -> Program:
    """A fresh synthetic program for a paper benchmark.

    The generator, and numpy with it, is imported on the first call:
    a process serving cached results never pays for it.
    """
    from repro.workloads.generator import generate_program as generate
    return generate(benchmark)


def get_program(benchmark: str) -> Program:
    """Memoized synthetic program for a paper benchmark.

    A miss first lets go of this thread's compiled front-end state
    (:mod:`repro.frontend.store`): it belongs to another program, and
    would otherwise stay alive while this one is generated.
    """
    program = _programs.get(benchmark)
    if program is None:
        store.drop_program_store()
        program = generate_program(benchmark)
        _programs[benchmark] = program
    return program


def run_lengths(benchmark: str, scale: float) -> Tuple[int, int]:
    """(front-end, machine) run lengths at run-length multiplier ``scale``.

    Machine runs are slower; they get a third of the front-end budget.
    """
    n = max(5_000, int(get_profile(benchmark).default_dynamic * scale))
    return n, max(5_000, n // 3)


def default_length(benchmark: str) -> int:
    """Front-end run length for this benchmark, after env scaling."""
    return run_lengths(benchmark, quick_scale())[0]


def machine_length(benchmark: str) -> int:
    """Machine run length for this benchmark, after env scaling."""
    return run_lengths(benchmark, quick_scale())[1]


def get_oracle(benchmark: str, n: Optional[int] = None) -> list:
    """Memoized correct-path instruction stream (computed on a miss)."""
    if n is None:
        n = default_length(benchmark)
    key = (benchmark, n)
    oracle = _oracles.get(key)
    if oracle is None:
        oracle = compute_oracle(get_program(benchmark), n)
        _oracles[key] = oracle
    return oracle


def _memoized_key(kind: str, benchmark: str, config, n: int,
                  warmup_n: Optional[int]) -> str:
    """:func:`cache_key` through the key memo."""
    memo_key = (kind, benchmark, config, n, warmup_n)
    key = _keys.get(memo_key)
    if key is None:
        extra = None if warmup_n is None else {"warmup": warmup_n}
        key = cache_key(kind, benchmark, config, n, extra=extra)
        if len(_keys) < _KEYS_MAX:
            _keys[memo_key] = key
    return key


def frontend_cache_key(benchmark: str, config: FrontEndConfig, n: int) -> str:
    """The disk-cache key a front-end result is stored under."""
    return _memoized_key("frontend", benchmark, config, n, None)


def machine_cache_key(benchmark: str, config: MachineConfig, n: int,
                      warmup: bool = True) -> str:
    """The disk-cache key a machine result is stored under.

    The warmup window scales with the environment knobs, so it is part
    of the key — shared here so the scheduler's checkpoint journal and
    fault harness address exactly the entries the runner writes.
    """
    warmup_n = default_length(benchmark) if warmup else 0
    return _memoized_key("machine", benchmark, config, n, warmup_n)


def _probe(memo: dict, memo_key: tuple, key: str, decode) -> Tuple[Any, Any]:
    """``(result, stored payload)`` from the memo or disk cache.

    A memo hit has no stored payload (``(result, None)``); a miss is
    ``(None, None)``.  A disk hit is decoded, which validates it, and
    admitted to the memo.  An entry that parses but does not decode (a
    foreign or truncated payload) is quarantined like an unparseable
    file, so the point is recomputed instead of failing its grid.
    """
    result = memo.get(memo_key)
    if result is not None:
        return result, None
    payload = diskcache.load(key)
    if payload is None:
        return None, None
    try:
        result = decode(payload)
    except (LookupError, TypeError, ValueError, AttributeError):
        diskcache.quarantine(diskcache.entry_path(key))
        return None, None
    memo[memo_key] = result
    return result, payload


def probe_frontend(benchmark: str, config: FrontEndConfig,
                   n: Optional[int] = None,
                   key: Optional[str] = None) -> Tuple[Any, Any]:
    """Front-end ``(result, stored payload)``; see :func:`_probe`.

    ``key`` is the point's cache key when the caller already has it.
    """
    if n is None:
        n = default_length(benchmark)
    if key is None:
        key = frontend_cache_key(benchmark, config, n)
    return _probe(_frontend, (benchmark, config, n), key,
                  frontend_result_from_dict)


def cached_frontend_result(benchmark: str, config: FrontEndConfig,
                           n: Optional[int] = None) -> Optional[FrontEndResult]:
    """Memo- or disk-cached front-end result, or None (never computes)."""
    return probe_frontend(benchmark, config, n)[0]


def admit_frontend_result(result: FrontEndResult, n: int) -> None:
    """Insert a result computed elsewhere (a pool worker) into the memo."""
    _frontend[(result.benchmark, result.config, n)] = result


def _discard_forced_divergence() -> None:
    """Drop any armed ``diverge`` fault latch before an unchecked run.

    When a point is requeued with ``engine="reference"`` the lockstep
    guard is skipped, so a latch armed by the chaos harness for *this*
    point must not leak into a later validated point in the same
    worker.
    """
    from repro.validate import errors
    errors.arm_forced_divergence(0)


def _sample_params(key: str) -> Tuple[int, int]:
    """(stride, offset) for sample-mode validation of one grid point.

    The offset is seeded from the point's content-hash cache key, so
    the checked 1-in-N fetch slice is deterministic per point but
    varies across points — repeated CI runs cover the same slices,
    different points cover different ones.
    """
    from repro import validate
    stride = validate.sample_stride()
    return stride, int(key[:16], 16) % stride


def _plan(kind: str, key: str,
          engine: Optional[str]) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """``(fast, check)``: how one uncached point runs.

    ``engine`` pins the point to one stack with no validation (the
    scheduler's graceful-degradation path after a detected divergence).
    Otherwise an armed ``REPRO_VALIDATE`` cross-checks the point through
    :func:`repro.validate.lockstep.lockstep` with ``check = (stride,
    offset)``: the front end samples fetches, the machine samples points
    (in ``sample`` mode only the 1-in-N points whose key-seeded offset
    is 0 run lockstep, the rest run plain on the fast stack).  Under
    ``REPRO_ENGINE=reference`` the default stack is the reference stack,
    so a differential run would compare it to itself: it runs plain.
    """
    from repro import validate
    if engine is None and validate.armed() and build.fast_stack_enabled():
        stride, offset = _sample_params(key)
        if kind == "frontend":
            return True, (stride, offset)
        if offset == 0:
            return True, (1, 0)
        engine = "fast"
    if engine is None:
        return build.fast_stack_enabled(), None
    _discard_forced_divergence()
    return engine != "reference", None


def run_frontend(program: Program, config: FrontEndConfig, n: int,
                 oracle: Optional[list], *, fast: bool,
                 observer=None) -> FrontEndResult:
    """One front-end run on the named stack, from explicit inputs.

    ``fast`` selects the fast stack or the frozen reference stack;
    ``oracle`` is the correct-path stream (None computes ``n``
    instructions of it).  ``observer`` is a per-fetch lockstep observer
    (:mod:`repro.validate.observer`).  Nothing is memoized or cached.
    """
    engine = build.build_engine(program, config, fast=fast)
    return FrontEndSimulator(program, config, oracle=oracle,
                             max_instructions=n, engine=engine,
                             observer=observer).run()


def run_machine(program: Program, config: MachineConfig, n: int,
                oracle: Optional[list], *, fast: bool) -> MachineResult:
    """One machine run of ``n`` instructions on the named stack.

    ``fast=True`` runs the fast front end and the event-driven core
    (:mod:`repro.core.machine`); ``fast=False`` the frozen reference
    front end and :mod:`repro.core.machine_reference`.  The engine is
    built here for both, cold runs included.  ``oracle`` is the warm-up
    stream the front end is first trained over functionally; None runs
    cold.
    """
    engine = build.build_engine(program, config.frontend,
                                memory_config=config.memory, fast=fast)
    if oracle is not None:
        FrontEndSimulator(program, config.frontend, oracle=oracle,
                          engine=engine).run()
    if fast:
        machine_cls = Machine
    else:
        from repro.core.machine_reference import Machine as machine_cls
    return machine_cls(program, config, max_instructions=n,
                       engine=engine).run()


def frontend_result(benchmark: str, config: FrontEndConfig,
                    n: Optional[int] = None,
                    engine: Optional[str] = None) -> FrontEndResult:
    """Oracle-driven front-end run, memoized in process and on disk.

    ``engine`` pins the run to one stack, ``"fast"`` or ``"reference"``;
    see :func:`_plan`.  The two stacks are byte-identical, so validated,
    pinned and plain results all share one cache key.
    """
    if n is None:
        n = default_length(benchmark)
    result = cached_frontend_result(benchmark, config, n)
    if result is not None:
        return result
    key = frontend_cache_key(benchmark, config, n)
    fast, check = _plan("frontend", key, engine)
    if check is None:
        result = run_frontend(get_program(benchmark), config, n,
                              get_oracle(benchmark, n), fast=fast)
    else:
        from repro.validate.lockstep import lockstep
        result = lockstep("frontend", benchmark, config, n,
                          stride=check[0], offset=check[1])
    diskcache.store(key, "frontend", frontend_result_to_dict(result))
    _frontend[(benchmark, config, n)] = result
    return result


def machine_result(benchmark: str, config: MachineConfig,
                   n: Optional[int] = None, warmup: bool = True,
                   engine: Optional[str] = None) -> MachineResult:
    """Cycle-level machine run with functional front-end warmup.

    The pure-Python machine is ~4x slower than the oracle-driven front-end
    simulator, so measured machine windows are short; without warmup they
    would be dominated by predictor and trace-cache cold-start.  Standard
    practice (SimpleScalar's fast-forwarding): train the front-end
    structures functionally, then measure.

    The warmup window scales with the environment knobs, so it is part
    of the disk cache key.  ``engine`` pins the run to one complete
    stack (machine core + front end); see :func:`_plan`.
    """
    if n is None:
        n = machine_length(benchmark)
    result = cached_machine_result(benchmark, config, n, warmup=warmup)
    if result is not None:
        return result
    key = machine_cache_key(benchmark, config, n, warmup=warmup)
    fast, check = _plan("machine", key, engine)
    if check is None:
        result = run_machine(get_program(benchmark), config, n,
                             get_oracle(benchmark) if warmup else None,
                             fast=fast)
    else:
        from repro.validate.lockstep import lockstep
        result = lockstep("machine", benchmark, config, n, warmup=warmup)
    diskcache.store(key, "machine", machine_result_to_dict(result))
    _machine[(benchmark, config, n, warmup)] = result
    return result


def probe_machine(benchmark: str, config: MachineConfig,
                  n: Optional[int] = None, warmup: bool = True,
                  key: Optional[str] = None) -> Tuple[Any, Any]:
    """Machine ``(result, stored payload)``; see :func:`probe_frontend`."""
    if n is None:
        n = machine_length(benchmark)
    if key is None:
        key = machine_cache_key(benchmark, config, n, warmup=warmup)
    return _probe(_machine, (benchmark, config, n, warmup), key,
                  machine_result_from_dict)


def cached_machine_result(benchmark: str, config: MachineConfig,
                          n: Optional[int] = None,
                          warmup: bool = True) -> Optional[MachineResult]:
    """Memo- or disk-cached machine result, or None (never computes)."""
    return probe_machine(benchmark, config, n, warmup=warmup)[0]


def admit_machine_result(result: MachineResult, n: int, warmup: bool) -> None:
    """Insert a result computed elsewhere (a pool worker) into the memo."""
    _machine[(result.benchmark, result.config, n, warmup)] = result
