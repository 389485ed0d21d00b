"""A process loads numpy and the frozen reference stack only when it
uses them.

Each check runs in a fresh interpreter: this test process has long
since imported everything.  The probe is the one the CI job summary
reports (``benchmarks/import_footprint.py``): perfbench's import probe
plus the package and its CLI, all a process serving cached results
imports.
"""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def footprint():
    path = ROOT / "benchmarks" / "import_footprint.py"
    spec = importlib.util.spec_from_file_location("import_footprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env(tmp_path, **knobs):
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.update(knobs)
    return env


def test_serving_imports_load_neither_numpy_nor_reference(footprint,
                                                          tmp_path):
    report = footprint.run_probe(footprint.probe_source(), _env(tmp_path))
    assert report["heavy"] == []


def test_failing_probe_reports_its_traceback(footprint, tmp_path):
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        footprint.run_probe("1 / 0", _env(tmp_path))


def test_spawning_a_worker_pool_loads_numpy(footprint, tmp_path):
    # Forked workers inherit the generator instead of importing it each.
    code = footprint.probe_source() + """
from repro.experiments import scheduler
scheduler._spawn_pool(1).shutdown()
"""
    report = footprint.run_probe(code, _env(tmp_path))
    assert report["heavy"] == ["numpy"]


def test_first_program_generation_loads_numpy(footprint, tmp_path):
    code = footprint.probe_source() + """
from repro.experiments import runner
runner.get_program("compress")
"""
    report = footprint.run_probe(code, _env(tmp_path))
    assert report["heavy"] == ["numpy"]


def test_lazy_reexports_resolve(footprint, tmp_path):
    code = footprint.probe_source() + """
from repro import generate_program
from repro.workloads import (BranchBehavior, BranchKind, WorkloadGenerator,
                             WorkloadStats, characterize)
from repro.workloads import generate_program as from_workloads
from repro.workloads import generator, stats
assert generate_program is from_workloads is generator.generate_program
assert WorkloadGenerator is generator.WorkloadGenerator
assert (WorkloadStats, characterize) == (stats.WorkloadStats,
                                         stats.characterize)
namespace = {}
exec("from repro.workloads import *", namespace)
assert namespace["generate_program"] is generate_program
for module, name in ((repro, "no_such_name"),
                     (repro.workloads, "no_such_name")):
    try:
        getattr(module, name)
    except AttributeError:
        pass
    else:
        raise AssertionError(name)
"""
    assert footprint.run_probe(code, _env(tmp_path))["heavy"] == ["numpy"]


def test_reference_engine_loads_the_reference_stack(footprint, tmp_path):
    code = footprint.probe_source() + """
from repro.config import PROMOTION_PACKING, MachineConfig
from repro.experiments import runner
from repro.frontend.build import build_engine
engine = build_engine(runner.get_program("compress"), PROMOTION_PACKING)
assert {type(engine).__module__, type(engine.predictor).__module__,
        type(engine.fill_unit).__module__,
        type(engine.fill_unit.bias_table).__module__} == {
    "repro.frontend.fetch_reference", "repro.branch.reference",
    "repro.trace.fill_unit_reference"}
runner.machine_result("compress", MachineConfig(), 1_000, warmup=False)
"""
    report = footprint.run_probe(
        code, _env(tmp_path, REPRO_ENGINE="reference", REPRO_DISK_CACHE="0"))
    assert report["heavy"] == [
        "numpy", "repro.branch.reference", "repro.core.machine_reference",
        "repro.frontend.fetch_reference", "repro.trace.fill_unit_reference"]


def test_fast_machine_run_leaves_the_reference_stack_unloaded(footprint,
                                                              tmp_path):
    code = footprint.probe_source() + """
from repro.config import MachineConfig
from repro.experiments import runner
runner.machine_result("compress", MachineConfig(), 1_000)
"""
    report = footprint.run_probe(
        code, _env(tmp_path, REPRO_DISK_CACHE="0", REPRO_SCALE="0.01"))
    assert report["heavy"] == ["numpy"]
