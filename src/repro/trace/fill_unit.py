"""The fill unit: builds trace segments from the retired instruction stream.

The fill unit collects retired instructions into fetch blocks (a block ends
at a non-promoted conditional branch, a segment-ending instruction, or a
16-instruction cap) and merges blocks into a pending segment under one of
the paper's block policies:

* **atomic** (baseline): a block merges only if it fits entirely; otherwise
  the pending segment is finalized and the block starts a new one;
* **unregulated packing**: blocks split at any instruction — segments are
  greedily packed to 16;
* **chunked packing (n=2, n=4)**: blocks split only at multiples of n
  instructions, halving/quartering the number of distinct split points;
* **cost-regulated packing**: a block may split only when the pending
  segment has at least half its length free, OR the pending segment
  contains a backward conditional branch with displacement <= 32
  instructions (a tight loop worth unrolling).

With promotion enabled, every retiring conditional branch consults the
:class:`~repro.trace.bias_table.BranchBiasTable`; promoted branches are
embedded with a static prediction, do not terminate blocks, and do not
count against the three-dynamic-branch limit.
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from typing import List, Optional

from repro.isa.instruction import Instruction
from repro.trace.bias_table import BranchBiasTable
from repro.trace.segment import (
    MAX_SEGMENT_BRANCHES,
    MAX_SEGMENT_INSTRUCTIONS,
    FinalizeReason,
    SegmentBranch,
    TraceSegment,
)
from repro.trace.trace_cache import TraceCache


class PackingPolicy(enum.Enum):
    """The fill unit's block-merge policies (paper section 5)."""

    ATOMIC = "atomic"
    UNREGULATED = "unregulated"
    CHUNK2 = "chunk2"
    CHUNK4 = "chunk4"
    COST_REGULATED = "cost_regulated"

    @property
    def granule(self) -> int:
        if self is PackingPolicy.CHUNK2:
            return 2
        if self is PackingPolicy.CHUNK4:
            return 4
        return 1

    @property
    def packs(self) -> bool:
        return self is not PackingPolicy.ATOMIC


#: One instruction queued in the fill unit: ``(inst, direction, promoted)``.
#: A plain tuple, not a dataclass — the fill unit consumes every retired
#: instruction, so per-instruction allocation cost dominates its profile.
_Slot = tuple


def _slot_codes(slots) -> list:
    """Int codes naming ``slots``, one per slot:
    ``(addr << 2) | (dir is True) << 1 | promoted``.

    An address names one static instruction, so whether it is a branch
    is known and ``dir is True`` tells its two directions apart (a
    non-branch's direction is None).  The low bits come from a
    conditional rather than from shifts: fewer bytecodes per slot.
    """
    return [(inst.addr << 2) + ((3 if p else 2) if d else p)
            for inst, d, p in slots]


def _packed(codes: list) -> bytes:
    """``codes`` as one bytes object: the memo and state keys live as
    long as the program's compiled state, and one bytes object takes a
    fraction of the room of a tuple of ``(addr, dir, promoted)`` triples,
    or even of int objects."""
    return array("q", codes).tobytes()


#: The empty (pending, block) state's key: no codes, then the -1 that
#: separates pending from block codes.
_EMPTY_STATE = _packed([-1])


class StateGraph:
    """Interned compiled-retire states of the fill unit.

    ``nodes[i]`` is ``[edges, pending_slots, block_slots, pending_dyn,
    recovery_edge, i]``: ``edges`` maps (plan id, bias responses) ->
    (plan, finalized segments, target index), and ``recovery_edge``
    caches what :meth:`FillUnit.note_recovery` finalizes from the state
    (every recovery ends in the empty state, ``nodes[0]``).  ``index``
    maps a state's packed slot codes to its node.  An edge names its
    target by its index into ``nodes``, never by the node itself: the
    graph loops back as traces recur, and object links would make it
    cyclic, so a dropped graph would wait for the cyclic GC instead of
    dying by refcount (``tests/test_gc_hygiene.py``).
    """

    __slots__ = ("nodes", "index")

    def __init__(self):
        empty: list = [{}, (), (), 0, None, 0]
        self.nodes: List[list] = [empty]
        self.index: dict = {_EMPTY_STATE: empty}

    def clear(self) -> None:
        """Back to the empty node alone, in place (fill units keep it)."""
        empty = self.nodes[0]
        del self.nodes[1:]
        empty[0].clear()
        empty[4] = None
        self.index.clear()
        self.index[_EMPTY_STATE] = empty


def _segment_validation_armed() -> bool:
    """Validate every finalized segment against its structural invariants?

    The checks are pure paranoia about fill-unit bugs (they re-walk each
    segment instruction by instruction) and cost ~15% of front-end
    simulation time, so they arm only when ``REPRO_VALIDATE`` enables a
    validation mode (historically ``1``, now also ``lockstep`` /
    ``sample``).  Evaluated per fill-unit construction, not at import,
    so tests and the CLI can arm the guard after this module loads.
    """
    from repro import validate
    return validate.armed()


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
        #: (reason, packed slot codes) -> (TraceSegment, reason), a slot's
        #: code being ``(addr << 2) | (direction is True) << 1 | promoted``
        #: (see :func:`_slot_codes`); state edges record the same pairs.
        #: Loops finalize the same slot sequence over and over; reusing
        #: the previously built (immutable-in-practice) segment skips the
        #: SegmentBranch/TraceSegment construction, which dominated
        #: finalize time.  Keyed by address — a program address names a
        #: unique static instruction — so a fast engine swaps in its
        #: program's shared memo (:meth:`share`).
        self._segment_memo: dict = {}
        self.finalize_reasons: Counter = Counter()
        self.segments_built = 0
        #: Compiled-retire state machine: the merge/finalize cascade a
        #: compiled fetch plan triggers is a pure function of the fill
        #: unit's (pending, block) state, the plan, and the bias table's
        #: promotion responses — so each distinct state is interned as a
        #: node and each (plan, responses) edge out of it replays as
        #: "insert these memoized segments, move to that node".
        #: The graph (a :class:`StateGraph`) depends only on the program,
        #: the packing policy and the segment memo its edges record, so a
        #: fast engine swaps in its program's shared graph (:meth:`share`).
        self._use_graph(StateGraph())
        self._cur_node: Optional[list] = None
        #: True while ``_cur_node`` is authoritative and the live
        #: ``_pending``/``_block`` lists lag behind it (edge-hit fast
        #: transitions don't touch them; see :meth:`_materialize`).
        self._state_stale = False
        self._recording: Optional[list] = None
        #: Segment invariant checks, armed at construction (zero cost off).
        self._validate_segments = _segment_validation_armed()

    def _use_graph(self, graph: "StateGraph") -> None:
        self._graph = graph
        self._nodes: List[list] = graph.nodes
        self._state_nodes: dict = graph.index
        #: The empty (pending, block) state, pre-interned at index 0: every
        #: recovery and flush lands here, so it is the most-visited node.
        self._empty_node: list = graph.nodes[0]

    def share(self, segment_memo: dict, graph: "StateGraph") -> None:
        """Adopt a segment memo and state graph other fill units extend.

        Called on a fresh fill unit, before it retires anything.  Fill
        units sharing a memo must build segments for one program, and
        the caller keys it by whatever else a segment carries; fill
        units sharing a graph must also share its memo and packing
        policy (see :mod:`repro.frontend.store`).
        """
        self._segment_memo = segment_memo
        self._use_graph(graph)
        self._cur_node = None

    def reset_compiled(self) -> None:
        """Empty the segment memo and the state graph, keeping the fill state.

        Both are emptied in place, so fill units sharing them see the
        same.  Edge-hit state is flushed into the live lists first, so
        dropping the graph cannot lose pending slots.
        """
        self._materialize()
        self._cur_node = None
        self._segment_memo.clear()
        self._graph.clear()

    # ------------------------------------------------------------- retire

    def retire(self, inst: Instruction, taken: Optional[bool] = None) -> None:
        """Feed one retired instruction (with its outcome if a branch)."""
        self._materialize()
        self._cur_node = None  # per-instruction feed leaves the state machine
        op = inst.op
        block = self._block
        if op.is_cond_branch:
            if taken is None:
                raise ValueError(f"retiring branch {inst} without an outcome")
            promoted = False
            if self.promote:
                promoted = self.bias_table.update_fast(inst.addr, taken)
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
        self._materialize()
        self._cur_node = None  # batch feed leaves the state machine
        block = self._block
        bias_update = self.bias_table.update_fast if self.promote else None
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
                    promoted = bias_update(inst.addr, taken)
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

    #: Bound on interned compiled-retire states; beyond it new states stop
    #: being cached (the transition still executes, uncached).  In practice
    #: programs settle into a few hundred states.
    MAX_STATE_NODES = 1 << 16

    def retire_compiled(self, plan) -> None:
        """Feed one compiled fetch plan's retirements at once.

        ``plan`` is a compiled fetch variant (see
        :func:`repro.frontend.fetch.compile_variant`) exposing
        ``fill_branches`` — its conditional branches as ``(addr, taken)``
        in retire order — and ``fill_events``, its event-compressed slot
        walk.  Behaviour is identical to feeding the plan's slots through
        :meth:`retire_batch`.

        The bias table is consulted live (promotion state evolves between
        fetches of the same plan); everything downstream of the responses
        — the block/pending merge cascade and the segments it finalizes —
        is deterministic given the current fill state, so it replays from
        the state machine's edge cache when this (state, plan, responses)
        combination has run before.
        """
        bias_update = self.bias_table.update_fast if self.promote else None
        statics = self.static_promotions
        responses = 0
        if bias_update is not None:
            k = 0
            for addr, taken in plan.fill_branches:
                if bias_update(addr, taken):
                    responses |= 1 << k
                k += 1
        elif statics is not None:
            k = 0
            for addr, taken in plan.fill_branches:
                static = statics.get(addr)
                if static is not None and static.direction == taken:
                    responses |= 1 << k
                k += 1
        node = self._cur_node
        if node is None:
            # _cur_node is None only when the live lists are current.
            node = self._intern_state()
        if node is not None:
            # Int edge key: a 16-inst segment holds < 16 branches, so the
            # responses mask fits in 16 bits under the plan's id().  The
            # stored plan is identity-checked below, which also pins it
            # against id() reuse.
            edge = node[0].get((id(plan) << 16) | responses)
            if edge is not None and edge[0] is plan:
                insert = self.trace_cache.insert
                reasons = self.finalize_reasons
                segments = edge[1]
                for segment, reason in segments:
                    insert(segment)
                    reasons[reason] += 1
                self.segments_built += len(segments)
                self._cur_node = self._nodes[edge[2]]
                self._state_stale = True
                return
        self._materialize()
        recording: list = []
        self._recording = recording
        self._replay_events(plan.fill_events, responses)
        self._recording = None
        nxt = self._intern_state()
        if node is not None and nxt is not None:
            node[0][(id(plan) << 16) | responses] = (plan, tuple(recording),
                                                     nxt[5])
        self._cur_node = nxt

    def _intern_state(self) -> Optional[list]:
        """Intern the current (pending, block) contents as a state node.

        Must be called with the live lists current.  A slot is identified
        by its int code (:func:`_slot_codes`) — a program address names
        a unique static instruction (the same convention as the segment
        memo).  Returns None once the node budget is exhausted.
        """
        codes = _slot_codes(self._pending)
        codes.append(-1)
        codes += _slot_codes(self._block)
        key = _packed(codes)
        node = self._state_nodes.get(key)
        if node is None:
            if len(self._state_nodes) >= self.MAX_STATE_NODES:
                return None
            node = [{}, tuple(self._pending), tuple(self._block),
                    self._pending_dyn, None, len(self._nodes)]
            self._nodes.append(node)
            self._state_nodes[key] = node
        return node

    def _materialize(self) -> None:
        """Copy the current node's contents back into the live lists.

        Edge-hit transitions advance ``_cur_node`` without touching
        ``_pending``/``_block``; anything that executes against the live
        lists (an edge miss, the generic retire paths, recovery, flush)
        calls this first.
        """
        if self._state_stale:
            node = self._cur_node
            self._pending = list(node[1])
            self._block = list(node[2])
            self._pending_dyn = node[3]
            self._state_stale = False

    def _replay_events(self, events, responses: int) -> None:
        """Execute a compiled event list against the live fill state.

        ``responses`` carries the bias table's promotion answers for the
        plan's conditional branches (bit ``k`` for the ``k``-th branch),
        already computed — and their side effects applied — by
        :meth:`retire_compiled`.
        """
        block = self._block
        merge = self._merge_block
        cap = MAX_SEGMENT_INSTRUCTIONS
        branch_index = 0
        for kind, payload in events:
            if kind == 0:
                run_len = len(payload)
                room = cap - len(block)
                if run_len < room:
                    block.extend(payload)
                else:
                    start = 0
                    while run_len - start >= room:
                        block.extend(payload[start:start + room])
                        start += room
                        full, block = block, []
                        self._block = block
                        merge(full, False, 0)
                        room = cap
                    if start < run_len:
                        block.extend(payload[start:])
            elif kind == 1:
                # payload: the branch's (not promoted, promoted) slots
                promoted = (responses >> branch_index) & 1
                branch_index += 1
                block.append(payload[promoted])
                if not promoted:
                    full, block = block, []
                    self._block = block
                    merge(full, False, 1)
                elif len(block) >= cap:
                    full, block = block, []
                    self._block = block
                    merge(full, False, 0)
            else:
                block.append(payload)
                full, block = block, []
                self._block = block
                merge(full, True, 0)

    def flush(self) -> None:
        """Finalize any partial state (end of simulation)."""
        self._materialize()
        if self._block:
            # A partial block never holds a dynamic branch: a non-promoted
            # conditional branch terminates its block at retire time.
            block, self._block = self._block, []
            self._merge_block(block, False, 0)
        self._finalize(FinalizeReason.FLUSH)
        # Pending and block are both empty now: the known empty state.
        self._cur_node = self._empty_node

    def note_recovery(self) -> None:
        """A branch misprediction flushed the pipeline.

        Real fill units finalize the pending segment on a flush, which
        re-synchronizes segment start addresses with fetch addresses —
        without this, trace packing can drift into alignments the fetch
        engine never looks up (a closed loop whose block boundaries never
        coincide with the 16-instruction packing stride becomes
        unreachable in the trace cache).

        What a recovery finalizes is a pure function of the current fill
        state and always lands in the empty state, so from a known state
        node it replays as a cached edge — on the compiled fetch path every
        misprediction takes a recovery, making this the second-hottest
        transition after :meth:`retire_compiled`'s.
        """
        node = self._cur_node
        if node is not None:
            edge = node[4]
            if edge is not None:
                insert = self.trace_cache.insert
                reasons = self.finalize_reasons
                for segment, reason in edge:
                    insert(segment)
                    reasons[reason] += 1
                self.segments_built += len(edge)
                self._pending = []
                self._block = []
                self._pending_dyn = 0
                self._state_stale = False
                self._cur_node = self._empty_node
                return
        self._materialize()
        recording: list = []
        self._recording = recording
        if self._block:
            block, self._block = self._block, []
            self._merge_block(block, False, 0)
        self._finalize(FinalizeReason.RECOVERY)
        self._recording = None
        if node is not None:
            node[4] = tuple(recording)
        # Pending and block are both empty now: the known empty state.
        self._cur_node = self._empty_node

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
        key = (reason, _packed(_slot_codes(slots)))
        entry = self._segment_memo.get(key)
        if entry is None:
            entry = (self._build_segment(slots, reason), reason)
            self._segment_memo[key] = entry
        self.trace_cache.insert(entry[0])
        self.finalize_reasons[reason] += 1
        self.segments_built += 1
        recording = self._recording
        if recording is not None:
            recording.append(entry)

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
        if self._validate_segments:
            segment.validate()
        return segment
