"""Branch behaviour models for the synthetic workload generator.

A generated conditional branch gets its dynamic behaviour from a small data
array: the condition register is loaded from ``array[step & (period-1)]``
where ``step`` advances once per loop iteration, so the branch's outcome
sequence is the array read cyclically.  The *run structure* of the array —
not just its ones-fraction — is what drives the paper's phenomena:

* promotion requires long consecutive same-direction runs (>= threshold),
  so strongly biased branches place their rare minority outcomes in one or
  two small clusters, like real error-check branches;
* *nearly* biased branches have majority runs of ~60-120: long enough to
  promote at threshold 64, too short for 128+ — and their minority
  clusters (2+ consecutive) trigger demotion.  This reproduces the
  ``plot`` benchmark's premature-promotion faulting (paper Fig. 7);
* moderate branches use short periods (8-32), making them learnable by a
  history-based predictor after warmup, like real correlated branches;
* hard branches use long pseudo-random periods — effectively
  unpredictable, like data-dependent search branches in ``go``;
* phase-flip branches are pure one direction until the program's mutator
  inverts their array, exercising demote-then-repromote dynamics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # numpy loads with the generator, not with the profiles
    import numpy as np


class BranchKind(enum.Enum):
    """Behaviour classes for generated data-dependent branches."""

    ALWAYS_TAKEN = "always_taken"
    ALWAYS_NOT_TAKEN = "always_not_taken"
    STRONGLY_BIASED = "strongly_biased"  # long runs; promotes at any threshold
    NEARLY_BIASED = "nearly_biased"      # runs ~60-120; premature-promotion prone
    MODERATE = "moderate"                # short learnable patterns
    HARD = "hard"                        # effectively random
    PHASE_FLIP = "phase_flip"            # pure bias that inverts mid-run


@dataclass(frozen=True)
class BranchBehavior:
    """A sampled behaviour: kind plus concrete array parameters."""

    kind: BranchKind
    p_taken: float
    #: period of the underlying data array (power of two).
    period: int
    #: minority outcomes are grouped into this many clusters (0 = scatter).
    clusters: int = 0

    @property
    def is_strongly_biased(self) -> bool:
        return self.p_taken >= 0.95 or self.p_taken <= 0.05


def sample_behavior(kind: BranchKind, rng: np.random.Generator) -> BranchBehavior:
    """Draw a concrete behaviour of the given kind."""
    flip = rng.random() < 0.5
    if kind is BranchKind.ALWAYS_TAKEN:
        return BranchBehavior(kind, 1.0, 8)
    if kind is BranchKind.ALWAYS_NOT_TAKEN:
        return BranchBehavior(kind, 0.0, 8)
    if kind is BranchKind.STRONGLY_BIASED:
        p = float(rng.uniform(0.97, 0.995))
        period = int(2 ** rng.integers(8, 10))  # 256 or 512: runs >= ~120
        return BranchBehavior(kind, 1.0 - p if flip else p, period, clusters=int(rng.integers(1, 3)))
    if kind is BranchKind.NEARLY_BIASED:
        p = float(rng.uniform(0.95, 0.98))
        period = int(2 ** rng.integers(7, 9))   # 128 or 256: runs ~60-120
        return BranchBehavior(kind, 1.0 - p if flip else p, period, clusters=2)
    if kind is BranchKind.MODERATE:
        # Clustered minorities give runs of ~5-25 consecutive outcomes, so
        # the direction is stable across nearby loop iterations (keeping
        # stored trace paths fresh) yet the pattern stays short enough for
        # a history predictor to learn.
        p = float(rng.uniform(0.68, 0.88))
        period = int(2 ** rng.integers(4, 7))   # 16..64
        return BranchBehavior(kind, 1.0 - p if flip else p, period,
                              clusters=int(rng.integers(1, 4)))
    if kind is BranchKind.HARD:
        # Not a coin flip: real "hard" branches still lean one way (a 2-bit
        # counter gets ~70% right), but their pattern is too long-period
        # for global history to learn in a scaled-down run.
        p = float(rng.uniform(0.62, 0.75))
        period = int(2 ** rng.integers(7, 11))  # long pseudo-random sequence
        return BranchBehavior(kind, 1.0 - p if flip else p, period)
    if kind is BranchKind.PHASE_FLIP:
        p = 1.0 if not flip else 0.0
        return BranchBehavior(kind, p, 64)
    raise ValueError(kind)  # pragma: no cover - exhaustive


def realize_array(behavior: BranchBehavior, rng: np.random.Generator) -> List[int]:
    """Fill the behaviour's data array with 0/1 words.

    A ``1`` entry makes the canonical condition (``BNE value, r0``) taken,
    so the fraction of ones equals ``p_taken`` and the arrangement follows
    the behaviour's run structure.
    """
    n = behavior.period
    p = behavior.p_taken
    if p >= 1.0:
        return [1] * n
    if p <= 0.0:
        return [0] * n
    majority = 1 if p >= 0.5 else 0
    minority = 1 - majority
    minority_count = max(1, round(n * (1.0 - p if majority else p)))
    minority_count = min(minority_count, n - 1)
    values = [majority] * n

    if behavior.clusters > 0:
        # Rare events arrive in bursts: split the minority outcomes into
        # clusters spaced evenly, leaving long majority runs between them.
        clusters = min(behavior.clusters, minority_count)
        base, extra = divmod(minority_count, clusters)
        start = int(rng.integers(0, n))
        for c in range(clusters):
            size = base + (1 if c < extra else 0)
            offset = start + (c * n) // clusters
            for k in range(size):
                values[(offset + k) % n] = minority
    else:
        positions = rng.choice(n, size=minority_count, replace=False)
        for pos in positions.tolist():
            values[pos] = minority
    return values


def mix_counts(total: int, fractions: dict, rng: np.random.Generator) -> List[BranchKind]:
    """Expand a {kind: fraction} mix into a shuffled list of ``total`` kinds."""
    kinds: List[BranchKind] = []
    items = sorted(fractions.items(), key=lambda kv: kv[0].value)
    for kind, fraction in items:
        kinds.extend([kind] * int(round(fraction * total)))
    while len(kinds) < total:
        kinds.append(items[-1][0])
    kinds = kinds[:total]
    rng.shuffle(kinds)
    return kinds
