"""perfbench's layer hooks still find every attribute they patch.

``perfbench/run.py`` times the layers by replacing module and class
attributes of ``repro`` (``Tracer.patch`` reads ``vars(owner)[attr]``).
A rename or deletion in ``src/`` would only surface when the benchmark
runs, so this installs and removes every hook of every workload.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("frontend_grid", "machine_grid", "warm_service")


@pytest.fixture
def perfbench_run(monkeypatch):
    """``perfbench/run.py`` imported with ``perfbench/`` on the path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_hook_installs_and_restores(perfbench_run, workload):
    from repro.core import memo

    assert set(perfbench_run.WORKLOADS) == set(WORKLOADS)
    tracer = perfbench_run.Tracer()
    try:
        perfbench_run.install_spans(tracer, workload)
        perfbench_run.install_laps(tracer, perfbench_run.harness.ScaledClock(),
                                   workload)
        patched = list(tracer._saved)
    finally:
        tracer.restore()
    names = {attr for _owner, attr, _original in patched}
    assert {"load_oracle", "store_oracle", "compute_oracle"} <= names
    # A lap hook may wrap a span hook; the first save holds the original.
    originals = {}
    for owner, attr, original in patched:
        originals.setdefault((owner, attr), original)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    assert memo.aggregate_stats()["hits"] == 0
