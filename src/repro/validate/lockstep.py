"""Lockstep differential drivers: fast vs reference, same inputs.

The two front-end stacks consume the identical oracle stream, so a
reference run recorded fetch-by-fetch followed by a fast run checked
against the recording is observationally equivalent to driving both
engines side by side — and it pinpoints the exact first mismatching
fetch ordinal (see :mod:`repro.validate.observer`).  On top of the
per-fetch checks, both drivers compare the complete serialized results
byte-for-byte and the final engine-state digests, so even a mismatch
outside the sampled slice is caught at run end.

Two entry points:

* :func:`lockstep_frontend` — oracle-driven front-end simulation
  through both stacks; returns the (verified) fast result.
* :func:`lockstep_machine` — full cycle-level runs through the fast
  machine core + fast front end and the frozen reference machine +
  reference front end; the machine core has no per-fetch observer, so
  the check is the end-of-run serialized-result comparison.

On the first mismatch a divergence report is written
(:mod:`repro.validate.report`) and the enriched
:class:`~repro.validate.errors.DivergenceError` propagates; the
experiment scheduler catches it and requeues the point pinned to the
reference engine.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import (
    frontend_result_to_dict,
    machine_result_to_dict,
)
from repro.validate import errors, report as report_module
from repro.validate.digests import engine_digest
from repro.validate.observer import FetchChecker, FetchRecorder


def _mode_label(stride: int) -> str:
    return "lockstep" if stride <= 1 else "sample"


def lockstep_frontend(benchmark: str, config, n: int, *, stride: int = 1,
                      offset: int = 0, report: bool = True,
                      program=None, oracle=None):
    """Run one front-end point through both stacks and cross-check.

    ``program``/``oracle`` default to the runner's memoized ones for
    ``benchmark``; the fuzzer passes synthetic ones directly (with
    ``benchmark`` as a label).  Returns the verified fast result.
    """
    from repro.experiments import runner
    from repro.frontend.build import build_engine
    from repro.frontend.simulator import FrontEndSimulator

    if program is None:
        program = runner.get_program(benchmark)
    if oracle is None:
        oracle = runner.get_oracle(benchmark, n)

    ref_engine = build_engine(program, config, fast=False)
    recorder = FetchRecorder(ref_engine, stride=stride, offset=offset)
    ref_result = FrontEndSimulator(program, config, oracle=oracle,
                                   engine=ref_engine,
                                   observer=recorder).run()

    fast_engine = build_engine(program, config, fast=True)
    checker = FetchChecker(fast_engine, recorder)
    divergence: Optional[errors.DivergenceError] = None
    fast_result = None
    try:
        fast_result = FrontEndSimulator(program, config, oracle=oracle,
                                        engine=fast_engine,
                                        observer=checker).run()
    except errors.DivergenceError as exc:
        divergence = exc
    if divergence is None:
        divergence = checker.excess_fetches()
    if divergence is None and engine_digest(fast_engine) != engine_digest(ref_engine):
        divergence = errors.DivergenceError(
            "fast engine diverged from reference: end-of-run engine "
            "state digest mismatch")
        divergence.expected = engine_digest(ref_engine)
        divergence.got = engine_digest(fast_engine)
    if divergence is None:
        fast_bytes = canonical_json(frontend_result_to_dict(fast_result))
        ref_bytes = canonical_json(frontend_result_to_dict(ref_result))
        if fast_bytes != ref_bytes:
            divergence = errors.DivergenceError(
                "fast engine diverged from reference: serialized "
                "FrontEndResult mismatch")
    if divergence is not None:
        if report:
            path = report_module.write_report(
                kind="frontend", benchmark=benchmark, config=config, n=n,
                exc=divergence, mode=_mode_label(stride), stride=stride,
                offset=offset)
            if path is not None:
                divergence = divergence.with_report(path)
        raise divergence
    return fast_result


def lockstep_machine(benchmark: str, config, n: int, *, warmup: bool = True,
                     warmup_n: Optional[int] = None, report: bool = True,
                     program=None, warmup_oracle=None):
    """Run one machine point through both full stacks and cross-check.

    The reference side pairs the frozen machine core with the frozen
    front end; the fast side pairs the event-driven core with the fast
    front end — so a mismatch flags a divergence in *either* layer.
    ``program``/``warmup_oracle`` default to the runner's memoized ones
    for ``benchmark`` (the warm-up oracle over ``warmup_n``
    instructions); the fuzzer passes synthetic ones directly (with
    ``benchmark`` as a label).  Returns the verified fast result.
    """
    from repro.core.machine import Machine
    from repro.core.machine_reference import Machine as ReferenceMachine
    from repro.experiments import runner
    from repro.frontend.build import build_engine
    from repro.frontend.simulator import FrontEndSimulator

    if program is None:
        program = runner.get_program(benchmark)
    if warmup and warmup_n is None and warmup_oracle is None:
        warmup_n = runner.default_length(benchmark)

    def one_run(machine_cls, fast: bool):
        engine = None
        if warmup:
            engine = build_engine(program, config.frontend,
                                  memory_config=config.memory, fast=fast)
            oracle = warmup_oracle
            if oracle is None:
                oracle = runner.get_oracle(benchmark, warmup_n)
            FrontEndSimulator(program, config.frontend, oracle=oracle,
                              engine=engine).run()
        return machine_cls(program, config, max_instructions=n,
                           engine=engine).run()

    divergence: Optional[errors.DivergenceError] = None
    if errors.consume_forced_divergence():
        divergence = errors.DivergenceError(
            "fast machine diverged from reference: injected divergence",
            injected=True)
        fast_result = None
    else:
        ref_result = one_run(ReferenceMachine, fast=False)
        fast_result = one_run(Machine, fast=True)
        fast_bytes = canonical_json(machine_result_to_dict(fast_result))
        ref_bytes = canonical_json(machine_result_to_dict(ref_result))
        if fast_bytes != ref_bytes:
            divergence = errors.DivergenceError(
                "fast machine diverged from reference: serialized "
                "MachineResult mismatch")
    if divergence is not None:
        if report:
            path = report_module.write_report(
                kind="machine", benchmark=benchmark, config=config, n=n,
                exc=divergence, mode="lockstep", warmup=warmup,
                warmup_n=warmup_n)
            if path is not None:
                divergence = divergence.with_report(path)
        raise divergence
    return fast_result


def lockstep_parity_cases(cases, n: int) -> List[str]:
    """Run lockstep over a list of ``(benchmark, config)`` cases.

    Returns the list of divergence report paths (empty on full parity);
    used by the CI validation job to sweep the pinned parity cases plus
    the paper grids through the online guard.
    """
    paths = []
    for benchmark, config in cases:
        try:
            lockstep_frontend(benchmark, config, n)
        except errors.DivergenceError as exc:
            paths.append(exc.report_path or f"<unwritten: {exc.message}>")
    return paths
