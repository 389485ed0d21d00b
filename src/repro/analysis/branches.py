"""Dynamic branch-population analysis.

The paper's motivation rests on a population statistic — "over 50% of
conditional branches are strongly biased" — and branch promotion's
threshold semantics depend on *consecutive-run* structure, not just bias.
This module measures both for any program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.executor import FunctionalExecutor
from repro.isa.program import Program


@dataclass
class BranchSiteProfile:
    """Dynamic statistics for one static conditional branch."""

    addr: int
    executions: int = 0
    taken: int = 0
    #: longest run of consecutive same-direction outcomes
    longest_run: int = 0
    #: direction of the longest run
    longest_run_direction: Optional[bool] = None
    _current_run: int = 0
    _previous: Optional[bool] = None

    def record(self, outcome: bool) -> None:
        self.executions += 1
        if outcome:
            self.taken += 1
        if outcome == self._previous:
            self._current_run += 1
        else:
            self._current_run = 1
            self._previous = outcome
        if self._current_run > self.longest_run:
            self.longest_run = self._current_run
            self.longest_run_direction = outcome

    @property
    def taken_rate(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def bias(self) -> float:
        """Max of taken rate and not-taken rate (0.5 = coin flip)."""
        return max(self.taken_rate, 1.0 - self.taken_rate)

    def is_strongly_biased(self, threshold: float = 0.95) -> bool:
        return self.bias >= threshold

    def promotable_at(self, threshold: int) -> bool:
        """Would the bias table ever promote this branch at ``threshold``?"""
        return self.longest_run >= threshold

    def classify(self) -> str:
        """A coarse label matching the generator's behaviour taxonomy."""
        if self.bias >= 0.999:
            return "always"
        if self.bias >= 0.95:
            return "strongly_biased"
        if self.bias >= 0.85:
            return "nearly_biased"
        if self.bias >= 0.65:
            return "moderate"
        return "hard"


@dataclass
class BranchPopulation:
    """Aggregate view over every conditional branch site in a run."""

    sites: Dict[int, BranchSiteProfile]
    dynamic_branches: int

    def strongly_biased_fraction(self, threshold: float = 0.95,
                                 min_executions: int = 8) -> float:
        """Fraction of *dynamic* branch executions from strongly biased
        sites — the paper's >50% population statistic."""
        biased = total = 0
        for site in self.sites.values():
            if site.executions < min_executions:
                continue
            total += site.executions
            if site.is_strongly_biased(threshold):
                biased += site.executions
        return biased / total if total else 0.0

    def promotable_fraction(self, threshold: int = 64,
                            min_executions: int = 8) -> float:
        """Fraction of dynamic executions from sites a bias table at
        ``threshold`` would (at some point) promote."""
        promotable = total = 0
        for site in self.sites.values():
            if site.executions < min_executions:
                continue
            total += site.executions
            if site.promotable_at(threshold):
                promotable += site.executions
        return promotable / total if total else 0.0

    def class_mix(self) -> Dict[str, float]:
        """Dynamic-execution share of each behaviour class."""
        mix: Dict[str, int] = {}
        for site in self.sites.values():
            mix[site.classify()] = mix.get(site.classify(), 0) + site.executions
        total = sum(mix.values()) or 1
        return {label: count / total for label, count in sorted(mix.items())}

    def top_sites(self, k: int = 10) -> List[BranchSiteProfile]:
        """The ``k`` most-executed branch sites."""
        return sorted(self.sites.values(), key=lambda s: -s.executions)[:k]


def profile_branches(program: Program,
                     max_instructions: Optional[int] = 60_000) -> BranchPopulation:
    """Run ``program`` functionally and profile every conditional branch."""
    sites: Dict[int, BranchSiteProfile] = {}
    dynamic = 0
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    for dyn in executor.run():
        if dyn.inst.op.is_cond_branch:
            dynamic += 1
            site = sites.get(dyn.inst.addr)
            if site is None:
                site = BranchSiteProfile(addr=dyn.inst.addr)
                sites[dyn.inst.addr] = site
            site.record(bool(dyn.result.taken))
    return BranchPopulation(sites=sites, dynamic_branches=dynamic)
