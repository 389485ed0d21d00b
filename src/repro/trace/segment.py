"""Trace segments: the unit stored in, and supplied by, the trace cache."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.instruction import Instruction

#: Maximum instructions per trace cache line.
MAX_SEGMENT_INSTRUCTIONS = 16

#: Maximum *non-promoted* conditional branches per line (one per prediction
#: the multiple branch predictor can supply).
MAX_SEGMENT_BRANCHES = 3


class FinalizeReason(enum.Enum):
    """Why the fill unit finalized a segment.

    These map one-to-one onto the fetch-termination categories of the
    paper's Figures 4 and 6 (the front end adds the fetch-time categories
    PartialMatch, MispredBR and Icache).
    """

    MAX_SIZE = "max_size"            # 16 instructions collected
    MAX_BRANCHES = "max_branches"    # a 4th dynamic branch would not fit
    ATOMIC_BLOCK = "atomic_block"    # next block didn't fit and blocks are atomic
    SEG_ENDER = "ret_indir_trap"     # return / indirect jump / trap
    RECOVERY = "recovery"            # pending segment cut by a pipeline flush
    FLUSH = "flush"                  # pipeline drain at end of run

    # Identity hash, a C slot: see repro.frontend.stats.FetchReason.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class SegmentBranch:
    """A conditional branch embedded in a segment.

    Attributes:
        position: index within the segment's instruction list.
        direction: the direction the trace embeds (the retired outcome when
            the segment was built).
        promoted: True when the fill unit promoted this branch; promoted
            branches carry their static prediction in ``direction`` and
            consume no dynamic-predictor bandwidth.
    """

    position: int
    direction: bool
    promoted: bool


@dataclass
class TraceSegment:
    """One trace cache line's worth of logically contiguous instructions."""

    start_addr: int
    instructions: List[Instruction] = field(default_factory=list)
    branches: List[SegmentBranch] = field(default_factory=list)
    finalize_reason: FinalizeReason = FinalizeReason.FLUSH
    #: Address the fetch continues at when every embedded branch follows the
    #: segment's path.
    next_addr: int = 0
    #: position -> SegmentBranch, built on first use.  The fetch engine
    #: probes every branch position on every hit, so the linear scan this
    #: replaces dominated segment-fetch time.
    _branch_map: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    #: per-instruction ``(inst, branch, call_fall_through)`` walk list,
    #: built on first fetch (see :meth:`fetch_slots`).
    _fetch_slots: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    #: event-compressed fetch walk, built on first fetch (see
    #: :meth:`fetch_plan`).
    _fetch_plan: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    #: predicted-pattern -> compiled fetch variant (see
    #: :func:`repro.frontend.fetch.compile_variant`); populated lazily by
    #: the fast fetch engine, never read by the reference stack.
    _variants: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    #: mask selecting the predictor-pattern bits this segment's dynamic
    #: branches actually consume: ``(1 << num_dynamic) - 1``.
    _pattern_mask: int = field(default=-1, init=False, repr=False, compare=False)
    #: the pattern whose bit ``k`` is the embedded direction of the
    #: ``k``-th dynamic branch — the key of the variant that follows the
    #: trace path end to end (valid once ``_pattern_mask`` is computed).
    _trace_key: int = field(default=0, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def dynamic_branches(self) -> List[SegmentBranch]:
        """Branches needing a prediction (non-promoted), in fetch order."""
        return [b for b in self.branches if not b.promoted]

    @property
    def promoted_branches(self) -> List[SegmentBranch]:
        return [b for b in self.branches if b.promoted]

    @property
    def num_dynamic_branches(self) -> int:
        return sum(1 for b in self.branches if not b.promoted)

    def branch_at(self, position: int) -> Optional[SegmentBranch]:
        bmap = self._branch_map
        if bmap is None or len(bmap) != len(self.branches):
            bmap = {b.position: b for b in self.branches}
            self._branch_map = bmap
        return bmap.get(position)

    def fetch_slots(self) -> list:
        """Cached per-instruction walk list for the fetch engine.

        Each element is ``(inst, branch, call_fall_through)``: ``branch``
        is the :class:`SegmentBranch` when ``inst`` is a conditional
        branch (else None), ``call_fall_through`` is ``inst.fall_through``
        when ``inst`` is a CALL (else None).  The fetch engine walks every
        resident segment instruction on every trace-cache hit; hoisting
        the opcode classification here turns that walk into tuple loads.
        """
        slots = self._fetch_slots
        if slots is None:
            slots = []
            for pos, inst in enumerate(self.instructions):
                op = inst.op
                branch = self.branch_at(pos) if op.is_cond_branch else None
                call_ft = inst.fall_through if op.is_call else None
                slots.append((inst, branch, call_ft))
            self._fetch_slots = slots
        return slots

    def fetch_plan(self) -> tuple:
        """Cached event-compressed walk for the fetch engine.

        Segments are immutable once built (``SegmentBranch`` is frozen and
        the fill unit never edits a finalized segment), so everything about
        a segment fetch that does not depend on live predictor/RAS state
        can be precomputed once: the control *events* (calls and branches,
        in fetch order) and the per-position direction/promotion templates
        along the segment's embedded path.

        Returns ``(events, dirs, promoted, promoted_addrs, tail)``:

        * ``events`` — list of ``(kind, position, payload)``; kind 0 is a
          call (payload = fall-through to push on the RAS), kind 1 a
          promoted branch (payload = its static direction), kind 2 a
          dynamic branch (payload = ``(embedded_direction, addr)``).
        * ``dirs`` / ``promoted`` — full per-position direction and
          promotion templates when the fetch follows the embedded path.
        * ``promoted_addrs`` — frozenset of promoted-branch addresses, for
          the fault-override disjointness test.
        * ``tail`` — how the segment ends: 0 follows ``next_addr``, 1 RET,
          2 indirect jump, 3 trap/halt.
        """
        plan = self._fetch_plan
        if plan is None:
            n = len(self.instructions)
            dirs: List[Optional[bool]] = [None] * n
            promoted = [False] * n
            events = []
            promoted_addrs = []
            for pos, inst in enumerate(self.instructions):
                op = inst.op
                if op.is_cond_branch:
                    branch = self.branch_at(pos)
                    dirs[pos] = branch.direction
                    if branch.promoted:
                        promoted[pos] = True
                        promoted_addrs.append(inst.addr)
                        events.append((1, pos, branch.direction))
                    else:
                        events.append((2, pos, (branch.direction, inst.addr)))
                elif op.is_call:
                    events.append((0, pos, inst.fall_through))
            last_op = self.instructions[-1].op
            if last_op.is_indirect_control:
                tail = 1 if last_op.mnemonic == "RET" else 2
            elif last_op.is_serializing or last_op.mnemonic == "HALT":
                tail = 3
            else:
                tail = 0
            plan = (events, dirs, promoted, frozenset(promoted_addrs), tail)
            self._fetch_plan = plan
        return plan

    def block_boundaries(self) -> List[int]:
        """End positions (inclusive) of each fetch block within the segment.

        Blocks are delimited by *non-promoted* conditional branches —
        promoted branches do not terminate an execution atomic unit.  The
        final block runs to the end of the segment.
        """
        ends = [b.position for b in self.branches if not b.promoted]
        last = len(self.instructions) - 1
        if not ends or ends[-1] != last:
            ends.append(last)
        return ends

    def validate(self) -> None:
        """Check the structural invariants the fill unit must maintain."""
        if not self.instructions:
            raise ValueError("empty segment")
        if len(self.instructions) > MAX_SEGMENT_INSTRUCTIONS:
            raise ValueError(f"segment of {len(self.instructions)} instructions")
        if self.instructions[0].addr != self.start_addr:
            raise ValueError("start_addr does not match first instruction")
        if self.num_dynamic_branches > MAX_SEGMENT_BRANCHES:
            raise ValueError(f"{self.num_dynamic_branches} dynamic branches in one segment")
        positions = {b.position for b in self.branches}
        if len(positions) != len(self.branches):
            raise ValueError("duplicate branch positions")
        for branch in self.branches:
            inst = self.instructions[branch.position]
            if not inst.op.is_cond_branch:
                raise ValueError(f"branch record at non-branch {inst}")
        # Logical contiguity: each instruction's successor along the
        # embedded path is the next instruction in the segment.
        for i, inst in enumerate(self.instructions[:-1]):
            expected = self._successor(i)
            if expected is not None and self.instructions[i + 1].addr != expected:
                raise ValueError(
                    f"discontiguous segment at position {i}: {inst} -> "
                    f"{self.instructions[i + 1].addr}, expected {expected}"
                )

    def _successor(self, position: int) -> Optional[int]:
        """Address following instruction ``position`` along the embedded path."""
        inst = self.instructions[position]
        if inst.op.is_cond_branch:
            branch = self.branch_at(position)
            if branch is None:
                raise ValueError(f"unrecorded branch at position {position}")
            return inst.target if branch.direction else inst.fall_through
        if inst.op.is_direct_control:  # JMP / CALL
            return inst.target
        if inst.op.is_indirect_control:
            return None  # not statically known; segment must end here
        return inst.fall_through

    def compute_next_addr(self) -> Optional[int]:
        """Successor of the whole segment along its embedded path."""
        return self._successor(len(self.instructions) - 1)
