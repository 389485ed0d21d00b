"""Shared infrastructure for the ablation, robustness and engine benches.

Every ``bench_*`` function runs its experiment once under
pytest-benchmark timing (these are simulations, not microbenchmarks),
prints what it measured, saves it under ``benchmarks/output/``, and
asserts the shape it expects.  The paper's own tables and figures, and
their claims, come from ``python -m repro experiment <name>|all``.

Set ``REPRO_QUICK=1`` for a fast pass at quarter-length runs.  To time
the simulations themselves rather than cache loads, point
``REPRO_CACHE_DIR`` at a fresh empty directory.
"""

import os
import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def strict() -> bool:
    """Full-scale runs assert the paper's quantitative shapes; quick runs
    (REPRO_QUICK=1) only smoke-test structure — promotion and trace-cache
    warmup need the full run lengths."""
    return not os.environ.get("REPRO_QUICK")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def emit():
    """Print a rendered artifact and persist it for EXPERIMENTS.md."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit

