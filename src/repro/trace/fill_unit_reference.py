"""Frozen reference copies of the seed fill unit and bias table (PR 4).

**Verbatim copies** of :class:`repro.trace.fill_unit.FillUnit` and
:class:`repro.trace.bias_table.BranchBiasTable` exactly as they stood
before the fast front-end rewrite.  ``REPRO_ENGINE=reference`` wires a
reference trace-cache front end from these classes (see
:mod:`repro.frontend.build`) so the optimized fill path can be pinned
byte-identical against known-good behaviour.

Do not optimize or otherwise edit this module; it is the contract.
"""


from __future__ import annotations

import enum
import os
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from repro.isa.instruction import Instruction
from repro.trace.segment import (
    MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTRUCTIONS,
    FinalizeReason,
    SegmentBranch,
    TraceSegment,
)
from repro.trace.fill_unit import PackingPolicy
from repro.trace.trace_cache import TraceCache


#: One instruction queued in the fill unit: ``(inst, direction, promoted)``.
#: A plain tuple, not a dataclass — the fill unit consumes every retired
#: instruction, so per-instruction allocation cost dominates its profile.
_Slot = tuple

#: Validate every finalized segment against its structural invariants.
#: The checks are pure paranoia about fill-unit bugs (they re-walk each
#: segment instruction by instruction) and cost ~15% of front-end
#: simulation time, so they are opt-in: set ``REPRO_VALIDATE=1``.
VALIDATE_SEGMENTS = os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


class FillUnit:
    """Builds and writes trace segments from retire-order instructions."""

    def __init__(
        self,
        trace_cache: TraceCache,
        bias_table: Optional[BranchBiasTable] = None,
        policy: PackingPolicy = PackingPolicy.ATOMIC,
        promote: bool = False,
        static_promotions: Optional[dict] = None,
    ):
        if promote and bias_table is None:
            raise ValueError("promotion requires a bias table")
        if promote and static_promotions is not None:
            raise ValueError("dynamic and static promotion are exclusive")
        self.trace_cache = trace_cache
        self.bias_table = bias_table
        self.policy = policy
        self.promote = promote
        #: addr -> StaticPromotion: compiler-marked strongly biased branches
        #: (no warm-up, no demotion; see repro.trace.static_promotion)
        self.static_promotions = static_promotions
        self._pending: List[_Slot] = []
        self._block: List[_Slot] = []
        #: dynamic (non-promoted) conditional branches in ``_pending``,
        #: maintained incrementally — scanning per merge was a hot spot.
        self._pending_dyn = 0
        #: (reason, ((addr, dir, promoted), ...)) -> TraceSegment.  Loops
        #: finalize the same slot sequence over and over; reusing the
        #: previously built (immutable-in-practice) segment skips the
        #: SegmentBranch/TraceSegment construction, which dominated
        #: finalize time.  Keyed by address — a program address names a
        #: unique static instruction.
        self._segment_memo: dict = {}
        self.finalize_reasons: Counter = Counter()
        self.segments_built = 0

    # ------------------------------------------------------------- retire

    def retire(self, inst: Instruction, taken: Optional[bool] = None) -> None:
        """Feed one retired instruction (with its outcome if a branch)."""
        op = inst.op
        block = self._block
        if op.is_cond_branch:
            if taken is None:
                raise ValueError(f"retiring branch {inst} without an outcome")
            promoted = False
            if self.promote:
                entry = self.bias_table.update(inst.addr, taken)
                promoted = entry.promoted and entry.promoted_dir == taken
            elif self.static_promotions is not None:
                static = self.static_promotions.get(inst.addr)
                promoted = static is not None and static.direction == taken
            block.append((inst, taken, promoted))
            if not promoted:
                # A block's ONLY dynamic branch is its terminating one.
                self._block = []
                self._merge_block(block, False, 1)
            elif len(block) >= MAX_SEGMENT_INSTRUCTIONS:
                self._block = []
                self._merge_block(block, False, 0)
        else:
            block.append((inst, None, False))
            if op.ends_trace_segment:
                self._block = []
                self._merge_block(block, True, 0)
            elif len(block) >= MAX_SEGMENT_INSTRUCTIONS:
                self._block = []
                self._merge_block(block, False, 0)  # straightline fragment cap

    def retire_batch(self, items) -> None:
        """Feed a sequence of ``(inst, taken, ...)`` retirements at once.

        Only the first two fields of each item are read, so callers may
        pass richer tuples (the front-end simulator hands its
        ``(inst, taken, promoted, record)`` slots straight through).
        Identical behaviour to calling :meth:`retire` per element, minus
        one Python call frame and the per-call attribute traffic for each
        retired instruction — this is the front-end simulator's retire
        path, executed once per simulated instruction.
        """
        block = self._block
        bias_update = self.bias_table.update if self.promote else None
        statics = self.static_promotions
        merge = self._merge_block
        cap = MAX_SEGMENT_INSTRUCTIONS
        for item in items:
            inst = item[0]
            taken = item[1]
            op = inst.op
            if op.is_cond_branch:
                if taken is None:
                    raise ValueError(f"retiring branch {inst} without an outcome")
                promoted = False
                if bias_update is not None:
                    entry = bias_update(inst.addr, taken)
                    promoted = entry.promoted and entry.promoted_dir == taken
                elif statics is not None:
                    static = statics.get(inst.addr)
                    promoted = static is not None and static.direction == taken
                block.append((inst, taken, promoted))
                if not promoted:
                    full, block = block, []
                    self._block = block
                    merge(full, False, 1)
                elif len(block) >= cap:
                    full, block = block, []
                    self._block = block
                    merge(full, False, 0)
            else:
                block.append((inst, None, False))
                if op.ends_trace_segment:
                    full, block = block, []
                    self._block = block
                    merge(full, True, 0)
                elif len(block) >= cap:
                    full, block = block, []
                    self._block = block
                    merge(full, False, 0)

    def flush(self) -> None:
        """Finalize any partial state (end of simulation)."""
        if self._block:
            # A partial block never holds a dynamic branch: a non-promoted
            # conditional branch terminates its block at retire time.
            block, self._block = self._block, []
            self._merge_block(block, False, 0)
        self._finalize(FinalizeReason.FLUSH)

    def note_recovery(self) -> None:
        """A branch misprediction flushed the pipeline.

        Real fill units finalize the pending segment on a flush, which
        re-synchronizes segment start addresses with fetch addresses —
        without this, trace packing can drift into alignments the fetch
        engine never looks up (a closed loop whose block boundaries never
        coincide with the 16-instruction packing stride becomes
        unreachable in the trace cache).
        """
        if self._block:
            block, self._block = self._block, []
            self._merge_block(block, False, 0)
        self._finalize(FinalizeReason.RECOVERY)

    # -------------------------------------------------------------- merging

    @staticmethod
    def _block_branches(block: List[_Slot]) -> int:
        return sum(1 for inst, _dir, promoted in block
                   if inst.op.is_cond_branch and not promoted)

    def _pending_branches(self) -> int:
        return self._pending_dyn

    def _merge_block(self, block: List[_Slot], seg_end: bool,
                     block_dyn: int) -> None:
        # ``block_dyn`` is the number of dynamic (non-promoted) conditional
        # branches in the block — 0 or 1, and when 1 the branch is the
        # block's LAST instruction (a dynamic branch terminates its block
        # at retire time).  Passing it explicitly replaces a per-merge
        # rescan of the block.
        if self.policy.packs and self._pack_allowed():
            self._merge_packing(block, seg_end, block_dyn)
        else:
            self._merge_atomic(block, seg_end, block_dyn)

    def _pack_allowed(self) -> bool:
        """May the *pending segment* accept a split block right now?"""
        if self.policy is not PackingPolicy.COST_REGULATED:
            return True
        if not self._pending:
            return True
        free = MAX_SEGMENT_INSTRUCTIONS - len(self._pending)
        if 2 * free >= len(self._pending):
            return True
        return self._has_tight_loop_branch()

    def _has_tight_loop_branch(self, max_displacement: int = 32) -> bool:
        for inst, _dir, _promoted in self._pending:
            if inst.op.is_cond_branch and inst.target is not None:
                if inst.target < inst.addr and inst.addr - inst.target <= max_displacement:
                    return True
        return False

    def _merge_atomic(self, block: List[_Slot], seg_end: bool,
                      block_dyn: int) -> None:
        if self._pending:
            fits_brs = self._pending_dyn + block_dyn <= MAX_SEGMENT_BRANCHES
            fits_size = len(self._pending) + len(block) <= MAX_SEGMENT_INSTRUCTIONS
            if not fits_brs:
                self._finalize(FinalizeReason.MAX_BRANCHES)
            elif not fits_size:
                self._finalize(FinalizeReason.ATOMIC_BLOCK)
        self._pending.extend(block)
        self._pending_dyn += block_dyn
        self._post_append(seg_end)

    def _merge_packing(self, block: List[_Slot], seg_end: bool,
                       block_dyn: int) -> None:
        granule = self.policy.granule
        while block:
            free = MAX_SEGMENT_INSTRUCTIONS - len(self._pending)
            brs_left = MAX_SEGMENT_BRANCHES - self._pending_dyn
            # How much of the block may enter the pending segment?
            take = min(free, len(block))
            brs_limited = False
            # A block's dynamic branch, if any, is its last instruction —
            # so a prefix holds ``block_dyn`` branches only when it is the
            # whole block.
            if (block_dyn if take == len(block) else 0) > brs_left:
                # The block's terminating branch (its last instruction)
                # cannot be added; take at most everything before it.
                take = min(take, len(block) - 1)
                brs_limited = True
            if take < len(block) and granule > 1 and self._pending:
                # Split points restricted to multiples of the granule,
                # measured from the start of the block.
                take = (take // granule) * granule
            if take == len(block):
                self._pending.extend(block)
                self._pending_dyn += block_dyn
                block = []
                self._post_append(seg_end)
                continue
            # Partial merge: append the prefix, finalize, carry the rest —
            # the remainder keeps the block's terminating dynamic branch.
            self._pending.extend(block[:take])
            block = block[take:]
            if brs_limited and len(self._pending) < MAX_SEGMENT_INSTRUCTIONS:
                self._finalize(FinalizeReason.MAX_BRANCHES)
            elif len(self._pending) == MAX_SEGMENT_INSTRUCTIONS:
                self._finalize(FinalizeReason.MAX_SIZE)
            else:
                # Granule prevented any (or a full) merge.
                self._finalize(FinalizeReason.ATOMIC_BLOCK)

    def _post_append(self, seg_end: bool) -> None:
        if seg_end:
            self._finalize(FinalizeReason.SEG_ENDER)
        elif len(self._pending) >= MAX_SEGMENT_INSTRUCTIONS:
            self._finalize(FinalizeReason.MAX_SIZE)

    # ------------------------------------------------------------- finalize

    def _finalize(self, reason: FinalizeReason) -> None:
        if not self._pending:
            return
        slots, self._pending = self._pending, []
        self._pending_dyn = 0
        key = (reason, tuple([(inst.addr, direction, promoted)
                              for inst, direction, promoted in slots]))
        segment = self._segment_memo.get(key)
        if segment is None:
            self._segment_memo[key] = segment = self._build_segment(slots, reason)
        self.trace_cache.insert(segment)
        self.finalize_reasons[reason] += 1
        self.segments_built += 1

    def _build_segment(self, slots: List[_Slot],
                       reason: FinalizeReason) -> TraceSegment:
        instructions = [inst for inst, _dir, _promoted in slots]
        branches = [
            SegmentBranch(position=i, direction=direction, promoted=promoted)
            for i, (inst, direction, promoted) in enumerate(slots)
            if inst.op.is_cond_branch
        ]
        # Successor of the whole segment along its embedded path, computed
        # directly from the last slot (cheaper than the generic
        # TraceSegment walk, which re-derives each branch's direction).
        last_inst, last_dir, _last_promoted = slots[-1]
        last_op = last_inst.op
        if last_op.is_cond_branch:
            next_addr = last_inst.target if last_dir else last_inst.fall_through
        elif last_op.is_direct_control:  # JMP / CALL
            next_addr = last_inst.target
        elif last_op.is_indirect_control:
            next_addr = -1  # not statically known; segment ends here
        else:
            next_addr = last_inst.fall_through
        segment = TraceSegment(
            start_addr=instructions[0].addr,
            instructions=instructions,
            branches=branches,
            finalize_reason=reason,
            next_addr=next_addr,
        )
        if VALIDATE_SEGMENTS:
            segment.validate()
        return segment


# ----- frozen copy of repro.trace.bias_table -----

@dataclass
class BiasEntry:
    tag: int
    direction: bool       # previous outcome
    count: int            # consecutive occurrences of ``direction``
    promoted: bool = False
    promoted_dir: bool = False


class BranchBiasTable:
    """Direct-mapped, tagged table of :class:`BiasEntry` (default 8K)."""

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
        self._table: List[Optional[BiasEntry]] = [None] * entries
        self.promotions = 0
        self.demotions = 0

    def _slot(self, pc: int) -> int:
        return pc % self.entries

    def lookup(self, pc: int) -> Optional[BiasEntry]:
        entry = self._table[self._slot(pc)]
        if entry is not None and entry.tag == pc:
            return entry
        return None

    def update(self, pc: int, taken: bool) -> BiasEntry:
        """Record a retired outcome; returns the (possibly new) entry."""
        slot = self._slot(pc)
        entry = self._table[slot]
        if entry is None or entry.tag != pc:
            # Allocate, evicting any conflicting branch.  The evicted branch
            # loses its promoted status (a future bias-table miss demotes).
            entry = BiasEntry(tag=pc, direction=taken, count=1)
            self._table[slot] = entry
            return entry
        if taken == entry.direction:
            if entry.count < self.count_cap:
                entry.count += 1
        else:
            entry.direction = taken
            entry.count = 1
        self._apply_promotion_rules(entry)
        return entry

    def _apply_promotion_rules(self, entry: BiasEntry) -> None:
        if not entry.promoted:
            if entry.count >= self.threshold:
                entry.promoted = True
                entry.promoted_dir = entry.direction
                self.promotions += 1
            return
        # Promoted: demote on >= 2 consecutive outcomes against the
        # promoted direction.
        if entry.direction != entry.promoted_dir and entry.count >= 2:
            entry.promoted = False
            self.demotions += 1
            # The run in the new direction may itself qualify immediately.
            if entry.count >= self.threshold:
                entry.promoted = True
                entry.promoted_dir = entry.direction
                self.promotions += 1

    def is_promoted(self, pc: int) -> bool:
        entry = self.lookup(pc)
        return entry is not None and entry.promoted

    def promoted_direction(self, pc: int) -> Optional[bool]:
        entry = self.lookup(pc)
        if entry is not None and entry.promoted:
            return entry.promoted_dir
        return None
