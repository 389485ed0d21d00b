"""Memoized simulation runners shared by every experiment.

Results are served from a two-level cache:

1. in-process memo dicts (same objects returned on repeat calls — the
   oracle stream in particular is computed once per benchmark and
   replayed against every front-end configuration), and
2. the persistent on-disk cache (:mod:`repro.experiments.diskcache`),
   keyed by content hash of (benchmark profile, config, run length,
   simulator source fingerprint), so re-running an experiment script is
   warm across processes and across parallel workers.

The oracle stream additionally persists as a compact binary trace file
(:mod:`repro.experiments.tracefile`): it is computed at most once per
(benchmark, length) machine-wide, and every other process memory-maps
the stored trace instead of re-executing the program functionally.

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
from repro.experiments import diskcache, env, tracefile, warnonce
from repro.experiments.cachekey import cache_key
from repro.experiments.serialize import (
    frontend_result_from_dict,
    frontend_result_to_dict,
    machine_result_from_dict,
    machine_result_to_dict,
)
from repro.frontend.simulator import FrontEndResult, FrontEndSimulator, compute_oracle
from repro.isa.program import Program
from repro.workloads.profiles import get_profile

_programs: Dict[str, Program] = {}
_oracles: Dict[Tuple[str, int], list] = {}
_frontend: Dict[Tuple[str, FrontEndConfig, int], FrontEndResult] = {}
_machine: Dict[Tuple[str, MachineConfig, int, bool], MachineResult] = {}

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

    With ``disk=True`` also purge the persistent on-disk state — the
    result cache (entries, size index, pins, quarantine, lock files),
    the stored oracle trace files, the checkpoint journals, and the
    cross-process warn-once marker files — then prune the now-empty
    bookkeeping subdirectories (``warned/``, ``checkpoints/``,
    ``divergences/``, ``traces/`` and friends).  It used to leave the
    markers and empty directories behind, so a "cleared" cache dir was
    never actually empty.  Used by benchmarks that need genuinely cold
    runs and by service operators resetting a shared cache.

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
    tracefile.clear_column_memo()
    warnonce.reset()
    from repro.frontend.build import reset_compiled_state
    reset_compiled_state()
    if disk:
        diskcache.purge()
        tracefile.purge()
        checkpoint.purge()
        root = diskcache.cache_dir()
        # warnonce.reset() above already removed the marker files; what
        # remains is pruning empty bookkeeping directories (missing or
        # non-empty ones are left alone — rmdir refuses non-empty dirs).
        for name in ("warned", "checkpoints", "divergences", "traces",
                     "locks", "pins", "quarantine"):
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
    """Memoized synthetic program for a paper benchmark."""
    program = _programs.get(benchmark)
    if program is None:
        program = generate_program(benchmark)
        _programs[benchmark] = program
    return program


def default_length(benchmark: str) -> int:
    """Front-end run length for this benchmark, after env scaling."""
    return max(5_000, int(get_profile(benchmark).default_dynamic * quick_scale()))


def machine_length(benchmark: str) -> int:
    """Machine runs are slower; use a third of the front-end budget."""
    return max(5_000, default_length(benchmark) // 3)


def get_oracle(benchmark: str, n: Optional[int] = None) -> list:
    """Memoized correct-path instruction stream.

    Cold path: try the shared binary trace file first (mmap read — no
    functional re-execution), and on a genuine miss compute the stream
    once and persist it for every other process on the machine.
    """
    if n is None:
        n = default_length(benchmark)
    key = (benchmark, n)
    oracle = _oracles.get(key)
    if oracle is None:
        program = get_program(benchmark)
        oracle = tracefile.load_oracle(benchmark, n, program)
        if oracle is None:
            # Memoize the column-carrying view so the trace-file store
            # reuses one column build.
            oracle = tracefile.as_columns(compute_oracle(program, n))
            tracefile.store_oracle(benchmark, n, oracle)
        _oracles[key] = oracle
    return oracle


def frontend_cache_key(benchmark: str, config: FrontEndConfig, n: int) -> str:
    """The disk-cache key a front-end result is stored under."""
    return cache_key("frontend", benchmark, config, n)


def machine_cache_key(benchmark: str, config: MachineConfig, n: int,
                      warmup: bool = True) -> str:
    """The disk-cache key a machine result is stored under.

    The warmup window scales with the environment knobs, so it is part
    of the key — shared here so the scheduler's checkpoint journal and
    fault harness address exactly the entries the runner writes.
    """
    warmup_n = default_length(benchmark) if warmup else 0
    return cache_key("machine", benchmark, config, n,
                     extra={"warmup": warmup_n})


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
    """Drop any armed ``diverge`` fault latch before a pinned run.

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


def frontend_result(benchmark: str, config: FrontEndConfig,
                    n: Optional[int] = None,
                    engine: Optional[str] = None) -> FrontEndResult:
    """Oracle-driven front-end run, memoized in process and on disk.

    ``engine`` pins the run to one stack: ``"fast"`` or ``"reference"``
    (no validation — this is the scheduler's graceful-degradation path
    after a detected divergence).  With ``engine=None`` and
    ``REPRO_VALIDATE`` armed, the run goes through the lockstep
    differential guard; the two stacks are byte-identical on success,
    so validated, pinned and plain results all share one cache key.
    """
    if n is None:
        n = default_length(benchmark)
    result = cached_frontend_result(benchmark, config, n)
    if result is not None:
        return result
    from repro import validate
    from repro.frontend.build import build_engine, fast_stack_enabled
    if engine is not None:
        _discard_forced_divergence()
        built = build_engine(get_program(benchmark), config,
                             fast=(engine != "reference"))
        result = FrontEndSimulator(
            get_program(benchmark), config,
            oracle=get_oracle(benchmark, n), engine=built).run()
    elif validate.armed() and fast_stack_enabled():
        from repro.validate.lockstep import lockstep_frontend
        stride, offset = _sample_params(
            frontend_cache_key(benchmark, config, n))
        result = lockstep_frontend(benchmark, config, n,
                                   stride=stride, offset=offset)
    else:
        # Under REPRO_ENGINE=reference the default stack is the reference
        # stack, so a differential run would compare it to itself.
        result = FrontEndSimulator(
            get_program(benchmark), config,
            oracle=get_oracle(benchmark, n)).run()
    diskcache.store(frontend_cache_key(benchmark, config, n),
                    "frontend", frontend_result_to_dict(result))
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
    of the disk cache key.

    ``engine`` pins the run to one complete stack (machine core + front
    end): ``"fast"`` or ``"reference"``, with no validation.  With
    ``engine=None`` and ``REPRO_VALIDATE`` armed the run goes through
    the lockstep machine driver; in ``sample`` mode only a deterministic
    1-in-N slice of grid points (seeded from the cache key) is
    cross-checked, the rest run plain.
    """
    if n is None:
        n = machine_length(benchmark)
    result = cached_machine_result(benchmark, config, n, warmup=warmup)
    if result is not None:
        return result
    from repro import validate
    from repro.frontend.build import fast_stack_enabled
    if engine is not None:
        _discard_forced_divergence()
        result = _machine_one_stack(benchmark, config, n, warmup,
                                    fast=(engine != "reference"))
    elif validate.armed() and fast_stack_enabled():
        stride, offset = _sample_params(
            machine_cache_key(benchmark, config, n, warmup=warmup))
        if offset == 0:
            from repro.validate.lockstep import lockstep_machine
            result = lockstep_machine(benchmark, config, n, warmup=warmup)
        else:
            _discard_forced_divergence()
            result = _machine_one_stack(benchmark, config, n, warmup,
                                        fast=True)
    else:
        # As in frontend_result: REPRO_ENGINE=reference is not
        # cross-checked against itself.
        result = _machine_one_stack(benchmark, config, n, warmup,
                                    fast=fast_stack_enabled())
    diskcache.store(machine_cache_key(benchmark, config, n, warmup=warmup),
                    "machine", machine_result_to_dict(result))
    _machine[(benchmark, config, n, warmup)] = result
    return result


def _machine_one_stack(benchmark: str, config: MachineConfig, n: int,
                       warmup: bool, fast: bool) -> MachineResult:
    """One plain machine run on the named stack (no cross-checking).

    ``fast=True`` runs the fast front end and the event-driven core
    (:mod:`repro.core.machine`); ``fast=False`` the frozen reference
    stack and :mod:`repro.core.machine_reference` (``REPRO_ENGINE=
    reference``, and the scheduler's post-divergence degradation path).
    """
    program = get_program(benchmark)
    engine = None
    if warmup:
        from repro.frontend.build import build_engine
        engine = build_engine(program, config.frontend,
                              memory_config=config.memory, fast=fast)
        FrontEndSimulator(program, config.frontend,
                          oracle=get_oracle(benchmark), engine=engine).run()
    if fast:
        machine_cls = Machine
    else:
        from repro.core.machine_reference import Machine as machine_cls
    return machine_cls(program, config, max_instructions=n,
                       engine=engine).run()


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
