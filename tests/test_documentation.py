"""Documentation hygiene: every public item carries a docstring, and the
repository documents what it promises."""

import importlib
import inspect
import pathlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.isa", "repro.isa.assembler", "repro.isa.executor",
    "repro.isa.instruction", "repro.isa.opcodes", "repro.isa.program",
    "repro.workloads", "repro.workloads.behaviors", "repro.workloads.builder",
    "repro.workloads.generator", "repro.workloads.profiles", "repro.workloads.stats",
    "repro.branch", "repro.branch.counters", "repro.branch.gshare",
    "repro.branch.history", "repro.branch.hybrid", "repro.branch.indirect",
    "repro.branch.multiple", "repro.branch.pas", "repro.branch.ras",
    "repro.branch.reference",
    "repro.mem", "repro.mem.cache", "repro.mem.hierarchy",
    "repro.trace", "repro.trace.bias_table", "repro.trace.fill_unit",
    "repro.trace.fill_unit_reference",
    "repro.trace.segment", "repro.trace.static_promotion", "repro.trace.trace_cache",
    "repro.frontend", "repro.frontend.build", "repro.frontend.fetch",
    "repro.frontend.fetch_reference",
    "repro.frontend.simulator", "repro.frontend.stats",
    "repro.core", "repro.core.inflight", "repro.core.machine",
    "repro.experiments", "repro.experiments.paper", "repro.experiments.runner",
    "repro.experiments.seeds", "repro.experiments.scheduler",
    "repro.experiments.faults", "repro.experiments.checkpoint",
    "repro.experiments.diskcache", "repro.experiments.tracefile",
    "repro.experiments.warnonce", "repro.experiments.cachekey",
    "repro.experiments.serialize", "repro.experiments.env",
    "repro.experiments.breaker",
    "repro.service", "repro.service.protocol",
    "repro.service.coalesce", "repro.service.server", "repro.service.client",
    "repro.service.fleet", "repro.service.worker", "repro.service.events",
    "repro.validate", "repro.validate.errors", "repro.validate.digests",
    "repro.validate.observer", "repro.validate.lockstep",
    "repro.validate.report",
    "repro.analysis", "repro.analysis.branches", "repro.analysis.tracecache",
    "repro.analysis.timeline",
    "repro.report", "repro.report.tables",
    "repro.config",
]

REPO = pathlib.Path(__file__).parent.parent


@pytest.mark.parametrize("name", PACKAGES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_and_functions_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for attr_name in dir(module):
        if attr_name.startswith("_"):
            continue
        attr = getattr(module, attr_name)
        if getattr(attr, "__module__", None) != name:
            continue  # re-exported from elsewhere
        if inspect.isclass(attr) or inspect.isfunction(attr):
            if not (attr.__doc__ and attr.__doc__.strip()):
                undocumented.append(attr_name)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_required_documents_exist():
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "MODEL.md"):
        path = REPO / doc
        assert path.exists() and path.stat().st_size > 1_000, doc


def test_design_covers_every_experiment():
    text = (REPO / "DESIGN.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Table 4", "Figure 4",
                     "Figure 7", "Figure 10", "Figure 11", "Figure 16"):
        assert artifact in text, artifact


def test_experiments_records_every_artifact():
    text = (REPO / "EXPERIMENTS.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Table 4",
                     "Figure 7", "Figure 9", "Figure 10", "Figure 11",
                     "Figure 12", "Figure 13", "Figure 14", "Figure 15",
                     "Figure 16"):
        assert artifact in text, artifact


def test_examples_exist_and_are_executable_scripts():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 3
    for example in examples:
        text = example.read_text()
        assert '"""' in text.split("\n", 2)[2] or text.startswith("#!"), example
        assert "def main" in text or "__main__" in text, example


def _knob_table_names():
    """``REPRO_*`` names in the first column of README's knob table."""
    text = (REPO / "README.md").read_text()
    table = text.split("### Run-time knobs", 1)[1]
    return [line.split("`")[1] for line in table.splitlines()
            if line.startswith("| `REPRO_")]


def test_knob_table_matches_knobs_read():
    documented = _knob_table_names()
    assert len(documented) == len(set(documented)), "duplicate knob rows"
    pattern = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
    read = set()
    for tree in ("src", "benchmarks"):
        for path in (REPO / tree).rglob("*.py"):
            read.update(pattern.findall(path.read_text()))
    assert set(documented) == read, (
        f"undocumented: {sorted(read - set(documented))}, "
        f"documented but never read: {sorted(set(documented) - read)}")
