"""Byte-level parity between the machine core and the frozen seed core.

The current machine (:mod:`repro.core.machine`) is an event-driven
rewrite of the seed loop — completion wheel, ready counter, quiescent
skip-ahead — a pure performance change.  These tests pin the contract
that makes it trustworthy: on identical inputs, its serialized
:class:`MachineResult` must be **byte-identical** to the one produced by
the frozen reference copy of the seed implementation
(:mod:`repro.core.machine_reference`), including every cycle count,
event counter, and derived rate.  The byte-identity cases run through
the differential harness (:func:`repro.validate.lockstep.lockstep`),
whose reference side pairs the seed core with the seed front end.

The cases deliberately cross the interesting machine features: cold and
functionally warmed front ends, promotion (promoted-branch faults),
trace packing, the plain icache front end, the perfect-memory-
disambiguation scheduler, and seeded-random ablation draws (inactive
issue off).  A second group pins a grid of one benchmark's machine
configs to isolated per-point runs and the ``REPRO_ENGINE`` stack
selector.
"""

import dataclasses
import random

import pytest

from repro import config as cfg
from repro.config import CoreConfig, MachineConfig
from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import machine_result_to_dict
from repro.validate.lockstep import lockstep

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
    pytest.param("compress", MachineConfig(frontend=cfg.PROMOTION_PACKING),
                 True, id="compress-packing-warm"),
]


@pytest.mark.parametrize("bench, config, warmup", CASES)
def test_event_driven_core_matches_reference(bench, config, warmup):
    lockstep("machine", bench, config, N, warmup=warmup, warmup_n=WARMUP_N,
             report=False)


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
    lockstep("machine", bench, config, N, warmup=warmup, warmup_n=WARMUP_N,
             report=False)


# ---------------------------------------------- machine grids and the stack

#: Machine window of the grid-level tests below.
GRID_N = 1_500


@pytest.fixture
def small_machine_runs(monkeypatch):
    """Floor-length warm-ups on the default stack, no divergence guard.

    An armed guard instantiates the reference core on every point by
    design, which would hide the stack routing the tests observe.
    """
    for knob in ("REPRO_QUICK", "REPRO_VALIDATE", "REPRO_ENGINE",
                 "REPRO_FAULTS"):
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_SCALE", "0.01")


@pytest.mark.parametrize("jobs", [1, 2])
def test_machine_grid_matches_isolated_points(jobs, tmp_path, monkeypatch,
                                              small_machine_runs):
    """A grid of one benchmark's Fig 11 configs == isolated runs.

    Every grid result must serialize byte-identically to an isolated
    :func:`runner.machine_result` call and sit on disk under its own
    per-point cache key: the checkpoint journal and the fault harness
    address entries by that key.
    """
    from repro.experiments import diskcache, paper
    from repro.experiments.scheduler import MACHINE, GridPoint, run_grid

    configs = [config for _label, config in paper._machine_configs(False)]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "singles"))
    singles = []
    for config in configs:
        runner.clear_caches()
        singles.append(runner.machine_result("compress", config, GRID_N))

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "grid"))
    runner.clear_caches()
    points = [GridPoint(MACHINE, "compress", config, GRID_N, warmup=True)
              for config in configs]
    results = run_grid(points, jobs=jobs)
    for point, config, single in zip(points, configs, singles):
        payload = machine_result_to_dict(results[point])
        assert canonical_json(payload) == \
            canonical_json(machine_result_to_dict(single))
        key = runner.machine_cache_key("compress", config, GRID_N)
        assert diskcache.load(key) == payload
    runner.clear_caches()


def _spy_stacks(monkeypatch):
    """Record the engine of every reference core and every built engine."""
    from repro.core import machine_reference
    from repro.frontend import build

    machines, engines = [], []
    real_machine = machine_reference.Machine
    real_build = build.build_engine

    class Spy(real_machine):
        def __init__(self, *args, **kwargs):
            real_machine.__init__(self, *args, **kwargs)
            machines.append(self.engine)

    def spy_build(*args, **kwargs):
        engine = real_build(*args, **kwargs)
        engines.append(engine)
        return engine

    monkeypatch.setattr(machine_reference, "Machine", Spy)
    monkeypatch.setattr(build, "build_engine", spy_build)
    return machines, engines


def _stack_modules(engine):
    """Modules of the engine, its predictor and its fill unit."""
    return {type(engine).__module__, type(engine.predictor).__module__,
            type(engine.fill_unit).__module__}


def _reference_modules():
    from repro.branch import reference as branch_reference
    from repro.frontend import fetch_reference
    from repro.trace import fill_unit_reference
    return {fetch_reference.__name__, branch_reference.__name__,
            fill_unit_reference.__name__}


def test_cold_reference_side_runs_the_reference_front_end(monkeypatch,
                                                          small_machine_runs):
    """A cold run passes no warmed engine to the core; its reference side
    must still build the seed front end, not the ``REPRO_ENGINE`` one."""
    machines, engines = _spy_stacks(monkeypatch)
    config = MachineConfig(frontend=cfg.PROMOTION_PACKING)
    runner.clear_caches(disk=True)
    lockstep("machine", "compress", config, 1_000, warmup=False, report=False)
    runner.machine_result("compress", config, 1_000, warmup=False,
                          engine="reference")
    assert [_stack_modules(engine) for engine in machines] == \
        [_reference_modules()] * 2
    # Each reference core runs on the engine built for it (lockstep
    # builds the reference side first).
    assert machines == [engines[0], engines[2]]
    runner.clear_caches(disk=True)


def test_engine_reference_pins_both_halves(monkeypatch, small_machine_runs):
    """``REPRO_ENGINE=reference`` runs the seed core *and* the seed front
    end; the default runs neither, and the results are byte-identical.

    The knob is the escape hatch if parity is ever in doubt in the
    field, so it must actually instantiate the reference stack.
    """
    machines, engines = _spy_stacks(monkeypatch)
    config = MachineConfig(frontend=cfg.PROMOTION_PACKING)
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    runner.clear_caches(disk=True)
    pinned = runner.machine_result("compress", config, 1_000)
    assert machines, "REPRO_ENGINE=reference must run the reference core"
    assert [_stack_modules(engine) for engine in engines] == \
        [_reference_modules()]

    monkeypatch.delenv("REPRO_ENGINE")
    runner.clear_caches(disk=True)
    machines.clear()
    engines.clear()
    fast = runner.machine_result("compress", config, 1_000)
    assert not machines, "the default path must use the fast machine core"
    assert len(engines) == 1
    assert not _stack_modules(engines[0]) & _reference_modules()
    assert canonical_json(machine_result_to_dict(fast)) == \
        canonical_json(machine_result_to_dict(pinned))
    runner.clear_caches(disk=True)


def test_invalid_engine_warns_once_and_runs_fast(monkeypatch,
                                                 small_machine_runs):
    import warnings

    machines, _engines = _spy_stacks(monkeypatch)
    monkeypatch.setenv("REPRO_ENGINE", "refrence")
    runner.clear_caches(disk=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for config in (MachineConfig(frontend=cfg.BASELINE),
                       MachineConfig(frontend=cfg.PROMOTION)):
            runner.machine_result("compress", config, 1_000)
    messages = [str(w.message) for w in caught
                if "REPRO_ENGINE" in str(w.message)]
    assert messages == ["ignoring invalid REPRO_ENGINE='refrence'; "
                        "using 'fast'"]
    assert not machines, "an invalid value must run the fast stack"
    runner.clear_caches(disk=True)
