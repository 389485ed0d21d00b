"""The branch bias table: detection, promotion and demotion (paper Fig. 5).

Each entry records a branch's previous outcome and the number of
consecutive times it has repeated, plus the promotion state machine:

* when the consecutive-outcome count reaches the threshold, the branch is
  *promoted* in that direction — the fill unit will embed it with a static
  prediction;
* a promoted branch is *demoted* when there are two or more consecutive
  outcomes opposite its promoted direction, or when its entry misses in
  the (tagged) table.  A single opposite outcome — e.g. the final
  iteration of a loop — does not demote.

The table is stored as parallel flat arrays (tag list plus ``array('l')``
counters and bytearrays for the direction/promotion bits) rather than a
list of entry objects: :meth:`update_fast` runs once per retired
conditional branch, and indexed array reads/writes avoid both the
per-entry allocation and the attribute traffic of the object layout.
:class:`BiasEntry` remains the inspection API — :meth:`lookup` and
:meth:`update` materialize one on demand as a value snapshot of the
addressed slot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional


@dataclass
class BiasEntry:
    """Value snapshot of one bias-table slot (see module docstring)."""

    tag: int
    direction: bool       # previous outcome
    count: int            # consecutive occurrences of ``direction``
    promoted: bool = False
    promoted_dir: bool = False


class BranchBiasTable:
    """Direct-mapped, tagged table of bias entries (default 8K).

    Layout: ``_tags[slot]`` holds the full PC (−1 = empty), ``_counts`` the
    consecutive-outcome counter (an ``array('l')`` — counts exceed one byte
    at the paper's 10-bit counter width), and ``_dirs``/``_promoted``/
    ``_promoted_dirs`` one byte each for the single-bit fields.  A slot is
    addressed by ``pc % entries`` exactly as the object-based layout did.
    """

    def __init__(self, entries: int = 8192, threshold: int = 64, counter_bits: int = 10):
        if entries <= 0:
            raise ValueError("entries must be positive")
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.entries = entries
        self.threshold = threshold
        self.count_cap = (1 << counter_bits) - 1
        if self.count_cap < threshold:
            raise ValueError("counter too narrow for threshold")
        self._tags = [-1] * entries
        self._dirs = bytearray(entries)
        self._counts = array("l", [0]) * entries
        self._promoted = bytearray(entries)
        self._promoted_dirs = bytearray(entries)
        self.promotions = 0
        self.demotions = 0
        # Structural self-checks, armed at construction: a True return
        # from update_fast promises the fill unit that the slot really
        # is promoted in the retired direction.  The checked wrapper is
        # bound as an instance attribute only when armed, so the off
        # path keeps the bare method — zero added cost per branch.
        from repro import validate
        if validate.invariants_armed():
            self.update_fast = self._update_fast_checked

    def _slot(self, pc: int) -> int:
        return pc % self.entries

    def _entry_view(self, slot: int) -> BiasEntry:
        return BiasEntry(
            tag=self._tags[slot],
            direction=bool(self._dirs[slot]),
            count=self._counts[slot],
            promoted=bool(self._promoted[slot]),
            promoted_dir=bool(self._promoted_dirs[slot]),
        )

    def lookup(self, pc: int) -> Optional[BiasEntry]:
        slot = pc % self.entries
        if self._tags[slot] == pc:
            return self._entry_view(slot)
        return None

    def update(self, pc: int, taken: bool) -> BiasEntry:
        """Record a retired outcome; returns a snapshot of the entry."""
        self.update_fast(pc, taken)
        return self._entry_view(pc % self.entries)

    def update_fast(self, pc: int, taken: bool) -> bool:
        """Record a retired outcome; True iff the branch retires promoted.

        The return value is exactly the fill unit's question: *is this
        branch promoted in the direction it just went?*  One array-indexed
        state-machine step, no entry object.
        """
        slot = pc % self.entries
        t = 1 if taken else 0
        tags = self._tags
        counts = self._counts
        dirs = self._dirs
        if tags[slot] != pc:
            # Allocate, evicting any conflicting branch.  The evicted branch
            # loses its promoted status (a future bias-table miss demotes).
            tags[slot] = pc
            dirs[slot] = t
            counts[slot] = 1
            self._promoted[slot] = 0
            self._promoted_dirs[slot] = 0
            return False
        if t == dirs[slot]:
            count = counts[slot]
            if count < self.count_cap:
                counts[slot] = count = count + 1
        else:
            dirs[slot] = t
            counts[slot] = count = 1
        promoted = self._promoted
        if not promoted[slot]:
            if count >= self.threshold:
                promoted[slot] = 1
                self._promoted_dirs[slot] = t
                self.promotions += 1
                return True
            return False
        # Promoted: demote on >= 2 consecutive outcomes against the
        # promoted direction.
        if t != self._promoted_dirs[slot]:
            if count >= 2:
                promoted[slot] = 0
                self.demotions += 1
                # The run in the new direction may itself qualify immediately.
                if count >= self.threshold:
                    promoted[slot] = 1
                    self._promoted_dirs[slot] = t
                    self.promotions += 1
                    return True
            return False
        return True

    def _update_fast_checked(self, pc: int, taken: bool) -> bool:
        """:meth:`update_fast` plus the promoted-consistency invariant."""
        promoted = BranchBiasTable.update_fast(self, pc, taken)
        slot = pc % self.entries
        if promoted and not (self._tags[slot] == pc
                             and self._promoted[slot]
                             and bool(self._promoted_dirs[slot]) == taken):
            from repro.validate.errors import InvariantError
            raise InvariantError(
                f"bias table promoted branch {pc:#x} inconsistently: "
                f"entry={self._entry_view(slot)!r} taken={taken}")
        return promoted

    def is_promoted(self, pc: int) -> bool:
        slot = pc % self.entries
        return self._tags[slot] == pc and bool(self._promoted[slot])

    def promoted_direction(self, pc: int) -> Optional[bool]:
        slot = pc % self.entries
        if self._tags[slot] == pc and self._promoted[slot]:
            return bool(self._promoted_dirs[slot])
        return None
