"""Workload characterization: measure what the generator actually produced.

Used by tests to assert each profile realizes its intended population (bias
mix, block sizes, instruction mix) and by the Table 1 bench to report the
suite inventory.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.executor import FunctionalExecutor
from repro.isa.opcodes import OpClass
from repro.isa.program import Program


@dataclass
class WorkloadStats:
    """Dynamic-stream statistics for one program run."""

    name: str
    dynamic_instructions: int = 0
    static_touched: int = 0
    static_total: int = 0
    cond_branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    calls: int = 0
    returns: int = 0
    indirect_jumps: int = 0
    traps: int = 0
    fetch_blocks: int = 0
    #: dynamic branch count per static branch site, and taken count
    site_executions: Dict[int, int] = field(default_factory=dict)
    site_taken: Dict[int, int] = field(default_factory=dict)
    block_size_histogram: Counter = field(default_factory=Counter)

    @property
    def avg_block_size(self) -> float:
        """Mean dynamic fetch-block size (instructions per control transfer)."""
        if not self.fetch_blocks:
            return 0.0
        return self.dynamic_instructions / self.fetch_blocks

    @property
    def taken_rate(self) -> float:
        return self.taken_branches / self.cond_branches if self.cond_branches else 0.0

    @property
    def cond_branch_frac(self) -> float:
        return self.cond_branches / self.dynamic_instructions if self.dynamic_instructions else 0.0

    @property
    def load_frac(self) -> float:
        return self.loads / self.dynamic_instructions if self.dynamic_instructions else 0.0

    @property
    def store_frac(self) -> float:
        return self.stores / self.dynamic_instructions if self.dynamic_instructions else 0.0

    def strongly_biased_dynamic_frac(self, threshold: float = 0.95) -> float:
        """Fraction of dynamic conditional branches from strongly biased sites.

        A site is strongly biased when its realized taken rate is >= threshold
        or <= 1 - threshold over the run (sites executed fewer than 8 times
        are ignored, matching how a bias table would never see them).
        """
        biased = 0
        total = 0
        for addr, count in self.site_executions.items():
            if count < 8:
                continue
            rate = self.site_taken.get(addr, 0) / count
            total += count
            if rate >= threshold or rate <= 1.0 - threshold:
                biased += count
        return biased / total if total else 0.0


def characterize(program: Program, max_instructions: Optional[int] = 50_000) -> WorkloadStats:
    """Run ``program`` functionally and collect :class:`WorkloadStats`."""
    stats = WorkloadStats(name=program.name, static_total=len(program))
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    touched = set()
    block_len = 0
    for dyn in executor.run():
        inst = dyn.inst
        opclass = inst.op.opclass
        stats.dynamic_instructions += 1
        touched.add(inst.addr)
        block_len += 1
        if opclass is OpClass.LOAD:
            stats.loads += 1
        elif opclass is OpClass.STORE:
            stats.stores += 1
        elif opclass is OpClass.COND_BRANCH:
            stats.cond_branches += 1
            stats.site_executions[inst.addr] = stats.site_executions.get(inst.addr, 0) + 1
            if dyn.result.taken:
                stats.taken_branches += 1
                stats.site_taken[inst.addr] = stats.site_taken.get(inst.addr, 0) + 1
        elif opclass is OpClass.CALL:
            stats.calls += 1
        elif opclass is OpClass.RETURN:
            stats.returns += 1
        elif opclass is OpClass.INDIRECT:
            stats.indirect_jumps += 1
        elif opclass is OpClass.TRAP:
            stats.traps += 1
        if inst.op.ends_fetch_block:
            stats.fetch_blocks += 1
            stats.block_size_histogram[min(block_len, 16)] += 1
            block_len = 0
    stats.static_touched = len(touched)
    return stats
