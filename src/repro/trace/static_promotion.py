"""Static branch promotion (the paper's section 4 closing discussion).

    "Branch promotion can be done statically, as well.  The ISA must allow
    for extra encodings to communicate strongly biased branches to the
    hardware. ... branches need not go through a warm-up phase before
    being detected as promotable ..."

This module plays the compiler's role: profile a program's conditional
branches over a training run and emit the set of strongly biased ones with
their likely directions.  The fill unit then embeds those branches with
static predictions from the first time it sees them — no bias table, no
warm-up — at the cost of missing branches whose bias is input-dependent or
shifts over time (they keep faulting, with no demotion mechanism to
rescue them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.executor import FunctionalExecutor
from repro.isa.program import Program


@dataclass(frozen=True)
class StaticPromotion:
    """One statically promoted branch."""

    addr: int
    direction: bool
    executions: int
    taken_rate: float


def profile_biased_branches(
    program: Program,
    max_instructions: Optional[int] = 60_000,
    bias_threshold: float = 0.95,
    min_executions: int = 32,
) -> Dict[int, StaticPromotion]:
    """Run the program and return strongly biased branch sites.

    A branch qualifies when it executed at least ``min_executions`` times
    in the training run and went one direction at least ``bias_threshold``
    of the time.  Returns {branch address -> StaticPromotion}.
    """
    if not 0.5 < bias_threshold <= 1.0:
        raise ValueError("bias_threshold must be in (0.5, 1.0]")
    executions: Dict[int, int] = {}
    taken: Dict[int, int] = {}
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    for dyn in executor.run():
        if dyn.inst.op.is_cond_branch:
            addr = dyn.inst.addr
            executions[addr] = executions.get(addr, 0) + 1
            if dyn.result.taken:
                taken[addr] = taken.get(addr, 0) + 1

    promotions: Dict[int, StaticPromotion] = {}
    for addr, count in executions.items():
        if count < min_executions:
            continue
        rate = taken.get(addr, 0) / count
        if rate >= bias_threshold:
            direction = True
        elif rate <= 1.0 - bias_threshold:
            direction = False
        else:
            continue
        promotions[addr] = StaticPromotion(
            addr=addr, direction=direction, executions=count, taken_rate=rate
        )
    return promotions
