"""Fetch termination taxonomy and front-end statistics.

The seven fetch-termination categories are the paper's Figure 4 legend;
the six cycle categories are its Figure 12 legend.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional


class FetchReason(enum.Enum):
    """Why a fetch delivered no more instructions than it did (Fig. 4)."""

    PARTIAL_MATCH = "PartialMatch"
    ATOMIC_BLOCKS = "AtomicBlocks"
    ICACHE = "Icache"
    MISPRED_BR = "MispredBR"
    MAX_SIZE = "MaxSize"
    RET_INDIR_TRAP = "Ret, Indir, Trap"
    MAXIMUM_BRS = "MaximumBRs"

    # Members are singletons: hashing by identity (a C slot) is exact and
    # spares Enum's Python-level hash of the name on every histogram
    # update and every decoded histogram row.
    __hash__ = object.__hash__


class CycleCategory(enum.Enum):
    """Where each fetch cycle went (Fig. 12)."""

    USEFUL_FETCH = "Useful Fetch"
    BRANCH_MISSES = "Branch Misses"
    CACHE_MISSES = "Cache Misses"
    FULL_WINDOW = "Full Window"
    TRAPS = "Traps"
    MISFETCHES = "Misfetches"

    __hash__ = object.__hash__  # as FetchReason


@dataclass(frozen=True)
class FetchRecord:
    """Per-fetch outcome used to build histograms."""

    size: int            # correct-path instructions delivered
    reason: FetchReason
    predictions: int     # dynamic predictions this fetch consumed
    source: str          # "tc" or "icache"


@dataclass
class FetchStats:
    """Aggregated front-end statistics for one simulation run."""

    fetches: int = 0
    useful_instructions: int = 0
    size_reason_histogram: Counter = field(default_factory=Counter)  # (size, reason) -> n
    predictions_histogram: Counter = field(default_factory=Counter)  # n_predictions -> fetches
    cycle_accounting: Counter = field(default_factory=Counter)       # CycleCategory -> cycles
    tc_fetches: int = 0
    icache_fetches: int = 0

    # branch outcome accounting (correct-path branches only)
    cond_branches: int = 0
    cond_mispredicts: int = 0      # dynamic mispredictions on conditional branches
    promoted_branches: int = 0     # promoted conditional branch executions
    promoted_faults: int = 0       # promoted branches that went the other way
    indirect_jumps: int = 0
    indirect_mispredicts: int = 0

    cache_miss_cycles: int = 0     # fetch cycles lost to instruction-supply misses

    def record_fetch(self, record: FetchRecord) -> None:
        self.fetches += 1
        self.useful_instructions += record.size
        self.size_reason_histogram[(record.size, record.reason)] += 1
        self.predictions_histogram[record.predictions] += 1
        if record.source == "tc":
            self.tc_fetches += 1
        else:
            self.icache_fetches += 1

    # --- derived metrics ---------------------------------------------------

    @property
    def effective_fetch_rate(self) -> float:
        """Average correct-path instructions per fetch that delivered any."""
        if not self.fetches:
            return 0.0
        return self.useful_instructions / self.fetches

    @property
    def total_cond_mispredicts(self) -> int:
        """Conditional mispredictions including promoted-branch faults."""
        return self.cond_mispredicts + self.promoted_faults

    @property
    def cond_mispredict_rate(self) -> float:
        total = self.cond_branches + self.promoted_branches
        return self.total_cond_mispredicts / total if total else 0.0

    @property
    def total_mispredicted_branches(self) -> int:
        """Conditional + indirect mispredictions (the paper's Figure 14)."""
        return self.total_cond_mispredicts + self.indirect_mispredicts

    def size_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for (size, _reason), count in self.size_reason_histogram.items():
            histogram[size] = histogram.get(size, 0) + count
        return histogram

    def reason_breakdown(self) -> Dict[FetchReason, int]:
        breakdown: Dict[FetchReason, int] = {}
        for (_size, reason), count in self.size_reason_histogram.items():
            breakdown[reason] = breakdown.get(reason, 0) + count
        return breakdown

    def predictions_buckets(self) -> Dict[str, float]:
        """Fractions of fetches needing 0-1 / 2 / 3 predictions (Table 3)."""
        if not self.fetches:
            return {"0 or 1": 0.0, "2": 0.0, "3": 0.0}
        zero_one = sum(c for n, c in self.predictions_histogram.items() if n <= 1)
        two = self.predictions_histogram.get(2, 0)
        three = sum(c for n, c in self.predictions_histogram.items() if n >= 3)
        return {
            "0 or 1": zero_one / self.fetches,
            "2": two / self.fetches,
            "3": three / self.fetches,
        }
