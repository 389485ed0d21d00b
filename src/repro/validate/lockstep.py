"""The differential harness: one point, fast vs reference, same inputs.

:func:`lockstep` runs a point of either kind through both stacks with
the runner's one-stack runs (:func:`repro.experiments.runner.run_frontend`
and :func:`~repro.experiments.runner.run_machine`), reference first,
then compares them.  A table (:data:`KINDS`) says per kind which run to
use, how to serialize its result, and whether the per-fetch observer and
the engine digest apply:

* ``"frontend"`` — oracle-driven front-end simulation.  The two stacks
  consume the identical oracle stream, so a reference run recorded
  fetch-by-fetch followed by a fast run checked against the recording
  is observationally equivalent to driving both engines side by side,
  and it pinpoints the first mismatching fetch ordinal (see
  :mod:`repro.validate.observer`).  The end-of-run engine-state digests
  are compared too.
* ``"machine"`` — full cycle-level runs through the fast core + fast
  front end and the frozen seed core + reference front end, cold or
  functionally warmed.  The machine core has no per-fetch observer.

Both kinds end with a byte-level comparison of the serialized results,
so even a mismatch outside the sampled slice is caught at run end.  On
the first mismatch a divergence report is written
(:mod:`repro.validate.report`) and the enriched
:class:`~repro.validate.errors.DivergenceError` propagates; the
experiment scheduler catches it and requeues the point pinned to the
reference engine.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional

from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import (
    frontend_result_to_dict,
    machine_result_to_dict,
)
from repro.validate import errors, report as report_module
from repro.validate.digests import engine_digest
from repro.validate.observer import FetchChecker, FetchRecorder


class Kind(NamedTuple):
    """One differential pairing: a one-stack run taking ``fast=``."""

    run: Callable
    serialize: Callable
    #: Whether the per-fetch observer and the engine digest apply.
    per_fetch: bool


KINDS: Dict[str, Kind] = {
    "frontend": Kind(runner.run_frontend, frontend_result_to_dict, True),
    "machine": Kind(runner.run_machine, machine_result_to_dict, False),
}


def _digest_mismatch(checker: FetchChecker,
                     recorder: FetchRecorder) -> Optional[errors.DivergenceError]:
    expected = engine_digest(recorder.engine)
    got = engine_digest(checker.engine)
    if got == expected:
        return None
    exc = errors.DivergenceError(
        "fast engine diverged from reference: end-of-run engine state "
        "digest mismatch")
    exc.expected = expected
    exc.got = got
    return exc


def _compare(kind: str, inputs: tuple, stride: int, offset: int):
    """``(fast result, first divergence or None)`` of one dual run."""
    spec = KINDS[kind]
    if spec.per_fetch:
        recorder = FetchRecorder(stride=stride, offset=offset)
        ref_result = spec.run(*inputs, fast=False, observer=recorder)
        checker = FetchChecker(recorder)
        try:
            fast_result = spec.run(*inputs, fast=True, observer=checker)
        except errors.DivergenceError as exc:
            return None, exc
        divergence = (checker.excess_fetches()
                      or _digest_mismatch(checker, recorder))
        if divergence is not None:
            return fast_result, divergence
    elif errors.consume_forced_divergence():
        # No per-fetch observer to fire an armed injection: it fires here.
        return None, errors.DivergenceError(
            f"fast {kind} diverged from reference: injected divergence",
            injected=True)
    else:
        ref_result = spec.run(*inputs, fast=False)
        fast_result = spec.run(*inputs, fast=True)
    if (canonical_json(spec.serialize(fast_result))
            != canonical_json(spec.serialize(ref_result))):
        return fast_result, errors.DivergenceError(
            f"fast {kind} diverged from reference: serialized "
            f"{type(fast_result).__name__} mismatch")
    return fast_result, None


def lockstep(kind: str, benchmark: str, config, n: int, *, stride: int = 1,
             offset: int = 0, warmup: bool = True,
             warmup_n: Optional[int] = None, report: bool = True,
             program=None, oracle=None):
    """Run one point through both stacks and cross-check them.

    ``stride``/``offset`` select the checked 1-in-N fetch slice where
    the per-fetch observer applies.  ``warmup``/``warmup_n`` apply to
    the machine: a warm run first trains the front end over a
    ``warmup_n``-instruction oracle (default: the benchmark's front-end
    run length); a cold one takes no oracle.  ``program``/``oracle``
    (the front-end stream, or the machine's warm-up stream) default to
    the runner's memoized ones for ``benchmark``; the fuzzer passes
    synthetic ones directly (with ``benchmark`` as a label).  Returns
    the verified fast result.
    """
    machine = kind == "machine"
    if program is None:
        program = runner.get_program(benchmark)
    if oracle is None and (warmup or not machine):
        if machine and warmup_n is None:
            warmup_n = runner.default_length(benchmark)
        oracle = runner.get_oracle(benchmark, warmup_n if machine else n)
    fast_result, divergence = _compare(kind, (program, config, n, oracle),
                                       stride, offset)
    if divergence is None:
        return fast_result
    if report:
        path = report_module.write_report(
            kind=kind, benchmark=benchmark, config=config, n=n,
            exc=divergence, mode="lockstep" if stride <= 1 else "sample",
            stride=stride, offset=offset,
            **({"warmup": warmup, "warmup_n": warmup_n} if machine else {}))
        if path is not None:
            divergence = divergence.with_report(path)
    raise divergence
