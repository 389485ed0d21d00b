"""Synthetic workloads standing in for SPECint95 + UNIX applications.

The paper simulates 15 benchmark binaries (Table 1).  Those binaries and
inputs are not available here, so this package generates seeded synthetic
programs whose *populations* of branches and blocks match each benchmark's
published character: static code footprint, fetch-block size, fraction of
strongly biased branches, loop structure, call behaviour, indirect-jump
frequency and data working set.  See DESIGN.md section 2 for the
substitution argument.

The generator (which needs numpy) and the characterization statistics
load on first use: a process that only reads profiles — cache keys, the
experiment service answering from the disk cache — never imports them.
"""

import importlib

from repro.workloads.builder import CodeBuilder, DataBuilder
from repro.workloads.behaviors import BranchBehavior, BranchKind
from repro.workloads.profiles import BenchmarkProfile, PROFILES, BENCHMARK_NAMES, get_profile

#: Names served on first access (PEP 562), and the module each lives in.
_LAZY = {
    "generate_program": "repro.workloads.generator",
    "WorkloadGenerator": "repro.workloads.generator",
    "WorkloadStats": "repro.workloads.stats",
    "characterize": "repro.workloads.stats",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "CodeBuilder",
    "DataBuilder",
    "BranchBehavior",
    "BranchKind",
    "BenchmarkProfile",
    "PROFILES",
    "BENCHMARK_NAMES",
    "get_profile",
    "generate_program",
    "WorkloadGenerator",
    "WorkloadStats",
    "characterize",
]
