"""Byte-level parity between the machine core and the frozen seed core.

The current machine (:mod:`repro.core.machine`) is an event-driven
rewrite of the seed loop — completion wheel, ready counter, quiescent
skip-ahead — a pure performance change.  These tests pin the contract
that makes it trustworthy: on identical inputs, its serialized
:class:`MachineResult` must be **byte-identical** to the one produced by
the frozen reference copy of the seed implementation
(:mod:`repro.core.machine_reference`), including every cycle count,
event counter, and derived rate.

The cases deliberately cross the interesting machine features: cold and
functionally warmed front ends, promotion (promoted-branch faults),
trace packing, the plain icache front end, the perfect-memory-
disambiguation scheduler, and seeded-random ablation draws (inactive
issue off).  A second group pins the one-pass multi-config runner path
(:func:`runner.run_machine_multi`) and the ``REPRO_FAST_MACHINE``
escape hatch.
"""

import dataclasses
import random

import pytest

from repro import config as cfg
from repro.config import CoreConfig, MachineConfig
from repro.core.machine import Machine
from repro.core.machine_reference import Machine as ReferenceMachine
from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import machine_result_to_dict
from repro.frontend.build import build_engine
from repro.frontend.simulator import FrontEndSimulator

#: Machine window length for the parity runs; the warmup, when on, uses
#: a longer oracle-driven front-end pass first (as the runner does).
N = 4_000
WARMUP_N = 10_000

CASES = [
    pytest.param("compress", MachineConfig(frontend=cfg.BASELINE),
                 False, id="compress-baseline-cold"),
    pytest.param("compress", MachineConfig(frontend=cfg.PROMOTION),
                 True, id="compress-promotion-warm"),
    pytest.param("li", MachineConfig(frontend=cfg.PROMOTION_PACKING),
                 False, id="li-packing-cold"),
    pytest.param("gcc", MachineConfig(frontend=cfg.ICACHE),
                 True, id="gcc-icache-warm"),
    pytest.param("go",
                 MachineConfig(frontend=cfg.BASELINE,
                               core=CoreConfig(perfect_disambiguation=True)),
                 True, id="go-perfect-disamb-warm"),
]


def _run(machine_cls, benchmark: str, config: MachineConfig, warmup: bool):
    program = runner.get_program(benchmark)
    engine = None
    if warmup:
        engine = build_engine(program, config.frontend,
                              memory_config=config.memory)
        FrontEndSimulator(program, config.frontend,
                          oracle=runner.get_oracle(benchmark, WARMUP_N),
                          engine=engine).run()
    return machine_cls(program, config, max_instructions=N,
                       engine=engine).run()


@pytest.mark.parametrize("bench, config, warmup", CASES)
def test_event_driven_core_matches_reference(bench, config, warmup):
    reference = _run(ReferenceMachine, bench, config, warmup)
    optimized = _run(Machine, bench, config, warmup)
    assert canonical_json(machine_result_to_dict(optimized)) == \
        canonical_json(machine_result_to_dict(reference))


def test_parity_covers_ipc_exactly():
    """IPC equality is exact (not approximate): same cycles, same retires."""
    config = MachineConfig(frontend=cfg.PROMOTION_PACKING)
    reference = _run(ReferenceMachine, "compress", config, True)
    optimized = _run(Machine, "compress", config, True)
    assert optimized.cycles == reference.cycles
    assert optimized.retired == reference.retired
    assert optimized.ipc == reference.ipc


# ---------------------------------------------------- randomized ablations

#: Front ends the directed cases above do not stress: inactive issue off
#: (the flag exists only for ablation, so nothing else exercises the
#: active-slots-only paths), with and without the other paper features.
_ABLATION_FRONTENDS = (
    dataclasses.replace(cfg.BASELINE, inactive_issue=False),
    dataclasses.replace(cfg.PROMOTION, inactive_issue=False),
    dataclasses.replace(cfg.PROMOTION_PACKING, inactive_issue=False),
)


def _random_ablation_cases(count: int = 4):
    """Seeded random draw over (benchmark, ablation config, warmup).

    Deterministic (fixed seed) so a failure reproduces, but the specific
    combinations are not hand-picked: each draw crosses an inactive-issue
    ablation with a random benchmark, a random memory-disambiguation mode
    (conservative vs the figure-16 perfect scheduler), and a random
    warmup decision.
    """
    rng = random.Random(1998)
    cases = []
    for i in range(count):
        bench = rng.choice(("compress", "li", "go", "m88ksim"))
        frontend = rng.choice(_ABLATION_FRONTENDS)
        perfect = rng.random() < 0.5
        warmup = rng.random() < 0.5
        config = MachineConfig(frontend=frontend,
                               core=CoreConfig(perfect_disambiguation=perfect))
        tag = "perfmem" if perfect else "conservative"
        cases.append(pytest.param(bench, config, warmup,
                                  id=f"rand{i}-{bench}-{tag}"))
    return cases


@pytest.mark.parametrize("bench, config, warmup", _random_ablation_cases())
def test_randomized_ablation_parity(bench, config, warmup):
    reference = _run(ReferenceMachine, bench, config, warmup)
    optimized = _run(Machine, bench, config, warmup)
    assert canonical_json(machine_result_to_dict(optimized)) == \
        canonical_json(machine_result_to_dict(reference))


# ------------------------------------------------- multi-config machine runs

def test_run_machine_multi_matches_per_point():
    """One-pass batched grid == isolated per-point runs, same cache keys.

    The batched pass shares one program and one oracle stream across the
    configs, but every result must serialize byte-identically to an
    isolated :func:`runner.machine_result` call, and must land on disk
    under the **unchanged** per-config cache key (the scheduler's
    checkpoint journal and the fault harness address entries by that
    key, so a batched run has to be indistinguishable from singles).
    """
    from repro.experiments import diskcache

    configs = [MachineConfig(frontend=cfg.BASELINE),
               MachineConfig(frontend=cfg.PROMOTION),
               MachineConfig(frontend=cfg.PROMOTION_PACKING)]
    n = 1_500
    runner.clear_caches(disk=True)
    singles = [runner.machine_result("compress", c, n, warmup=False)
               for c in configs]
    runner.clear_caches(disk=True)
    batched = runner.run_machine_multi("compress", configs, n, warmup=False)
    assert [canonical_json(machine_result_to_dict(r)) for r in batched] == \
        [canonical_json(machine_result_to_dict(r)) for r in singles]
    for config, result in zip(configs, batched):
        key = runner.machine_cache_key("compress", config, n, warmup=False)
        assert diskcache.load(key) == machine_result_to_dict(result)


def test_fast_machine_flag_pins_reference_core(monkeypatch):
    """``REPRO_FAST_MACHINE=0`` routes runner machine runs to the seed core.

    The knob is the escape hatch if machine-core parity is ever in
    doubt in the field; it must actually instantiate the reference
    implementation, and the result must not change.
    """
    from repro.core import machine_reference

    calls = []
    real = machine_reference.Machine

    class Spy(real):
        def __init__(self, *args, **kwargs):
            calls.append(1)
            real.__init__(self, *args, **kwargs)

    monkeypatch.setattr(machine_reference, "Machine", Spy)
    config = MachineConfig(frontend=cfg.BASELINE)
    # An armed divergence guard instantiates the reference core on every
    # point by design; disarm it so the spy observes only the routing.
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.setenv("REPRO_FAST_MACHINE", "0")
    runner.clear_caches(disk=True)
    pinned = runner.machine_result("compress", config, 1_000, warmup=False)
    assert calls, "REPRO_FAST_MACHINE=0 must run the reference core"

    monkeypatch.delenv("REPRO_FAST_MACHINE")
    runner.clear_caches(disk=True)
    calls.clear()
    fast = runner.machine_result("compress", config, 1_000, warmup=False)
    assert not calls, "the default path must use the fast machine core"
    assert canonical_json(machine_result_to_dict(fast)) == \
        canonical_json(machine_result_to_dict(pinned))
