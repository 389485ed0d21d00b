"""The experiment runner's caching and the front-end factory."""

import os

import pytest

from repro import BASELINE, ICACHE, PROMOTION
from repro.config import MachineConfig
from repro.frontend.build import build_engine, build_memory, build_predictor
from repro.frontend.fetch import ICacheFetchEngine, TraceFetchEngine
from repro.branch.multiple import MultipleBranchPredictor, SplitMultiplePredictor
from repro.workloads import generate_program


@pytest.fixture(scope="module")
def program():
    return generate_program("compress")


# --- build factory ----------------------------------------------------------

def test_build_tc_engine(program):
    engine = build_engine(program, BASELINE)
    assert isinstance(engine, TraceFetchEngine)
    assert engine.trace_cache.n_lines == 2048
    assert engine.fill_unit.bias_table is None
    assert isinstance(engine.predictor, MultipleBranchPredictor)


def test_build_promotion_engine(program):
    engine = build_engine(program, PROMOTION)
    assert engine.fill_unit.promote
    assert engine.fill_unit.bias_table.threshold == 64
    assert engine.fill_unit.bias_table.entries == 8192


def test_build_icache_engine(program):
    engine = build_engine(program, ICACHE)
    assert isinstance(engine, ICacheFetchEngine)
    # The reference config swaps in the 128KB dual-ported icache.
    assert engine.memory.config.l1i_bytes == 128 * 1024


def test_build_split_predictor(program):
    from dataclasses import replace
    engine = build_engine(program, replace(BASELINE, predictor="split"))
    assert isinstance(engine.predictor, SplitMultiplePredictor)


def test_build_rejects_unknown_kinds(program):
    from dataclasses import replace
    with pytest.raises(ValueError):
        build_engine(program, replace(BASELINE, kind="victim"))
    with pytest.raises(ValueError):
        build_predictor(replace(BASELINE, predictor="perceptron"))


def test_build_memory_sizes():
    memory = build_memory(BASELINE)
    assert memory.config.l1i_bytes == 4 * 1024
    icache_memory = build_memory(ICACHE)
    assert icache_memory.config.l1i_bytes == 128 * 1024


def test_clear_caches_empties_compiled_blocks(program):
    """``runner.clear_caches`` drops every live engine's compiled blocks,
    and the fill unit's state graph down to its empty node."""
    import repro.experiments.runner as runner
    from repro.frontend import build
    from repro.frontend.simulator import FrontEndSimulator
    engines = [build_engine(program, config) for config in (ICACHE, BASELINE)]
    for engine, config in zip(engines, (ICACHE, BASELINE)):
        FrontEndSimulator(program, config, max_instructions=3_000,
                          engine=engine).run()
        assert engine._compiled_blocks
    fill_unit = engines[1].fill_unit
    assert len(fill_unit._nodes) == len(fill_unit._state_nodes) > 1
    runner.clear_caches()
    for engine in list(build._live_engines):
        assert not getattr(engine, "_compiled_blocks", None)
    assert fill_unit._nodes == [fill_unit._empty_node]
    assert fill_unit._state_nodes == {((), ()): fill_unit._empty_node}
    assert fill_unit._cur_node is None and not fill_unit._segment_memo


# --- runner caching -----------------------------------------------------------

def test_runner_caches_and_scales(monkeypatch):
    import repro.experiments.runner as runner
    runner.clear_caches()
    monkeypatch.setattr(runner, "default_length", lambda b: 5_000)
    monkeypatch.setattr(runner, "machine_length", lambda b: 2_000)
    try:
        first = runner.frontend_result("compress", BASELINE)
        second = runner.frontend_result("compress", BASELINE)
        assert first is second  # cached object identity

        oracle_a = runner.get_oracle("compress", 5_000)
        oracle_b = runner.get_oracle("compress", 5_000)
        assert oracle_a is oracle_b

        program_a = runner.get_program("compress")
        program_b = runner.get_program("compress")
        assert program_a is program_b

        machine_first = runner.machine_result("compress", MachineConfig(frontend=BASELINE))
        machine_second = runner.machine_result("compress", MachineConfig(frontend=BASELINE))
        assert machine_first is machine_second
        assert machine_first.retired == 2_000
    finally:
        runner.clear_caches()


def test_quick_scale_env(monkeypatch):
    import repro.experiments.runner as runner
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert runner.quick_scale() == 1.0
    monkeypatch.setenv("REPRO_QUICK", "1")
    assert runner.quick_scale() == 0.25
    monkeypatch.delenv("REPRO_QUICK")
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert runner.quick_scale() == 0.5
    monkeypatch.setenv("REPRO_SCALE", "garbage")
    with pytest.warns(RuntimeWarning, match="invalid REPRO_SCALE"):
        assert runner.quick_scale() == 1.0


def test_default_lengths_floor(monkeypatch):
    import repro.experiments.runner as runner
    monkeypatch.setenv("REPRO_SCALE", "0.0001")
    assert runner.default_length("compress") >= 5_000
    assert runner.machine_length("compress") >= 5_000


def test_machine_warmup_can_be_disabled(monkeypatch):
    import repro.experiments.runner as runner
    runner.clear_caches()
    monkeypatch.setattr(runner, "default_length", lambda b: 4_000)
    try:
        cold = runner.machine_result("compress", MachineConfig(frontend=BASELINE),
                                     n=2_000, warmup=False)
        assert cold.retired == 2_000
    finally:
        runner.clear_caches()
