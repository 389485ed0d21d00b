"""Fetch engines: trace cache + supporting icache, and the icache reference.

Both engines share the same contract: ``fetch(pc)`` returns a
:class:`FetchResult` describing the instructions supplied this cycle along
the *predicted* path (plus any inactively issued trace continuation), the
predicted next fetch address, and the bookkeeping needed to train the
predictors at retire time.  The engines maintain speculative state (global
history, return address stack) with snapshot/restore for checkpoint repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.branch.history import GlobalHistory
from repro.branch.hybrid import HybridPredictor, HybridPrediction
from repro.branch.indirect import LastTargetPredictor
from repro.branch.multiple import MultipleBranchPredictor, SplitMultiplePredictor
from repro.branch.ras import IdealReturnAddressStack
from repro.isa.instruction import INST_BYTES, Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.frontend.stats import FetchReason
from repro.trace.fill_unit import FillUnit
from repro.trace.segment import FinalizeReason, TraceSegment
from repro.trace.trace_cache import TraceCache

#: Fetch width in instructions (also the trace segment size).
FETCH_WIDTH = 16

_REASON_FROM_FINALIZE = {
    FinalizeReason.MAX_SIZE: FetchReason.MAX_SIZE,
    FinalizeReason.MAX_BRANCHES: FetchReason.MAXIMUM_BRS,
    FinalizeReason.ATOMIC_BLOCK: FetchReason.ATOMIC_BLOCKS,
    FinalizeReason.SEG_ENDER: FetchReason.RET_INDIR_TRAP,
    FinalizeReason.RECOVERY: FetchReason.MISPRED_BR,
    FinalizeReason.FLUSH: FetchReason.ATOMIC_BLOCKS,
}


@dataclass(frozen=True, slots=True)
class PredRecord:
    """Everything needed to train the predictor for one fetched branch."""

    addr: int
    position: int      # prediction slot within this fetch (0..2)
    token: object      # predictor-specific handle (row/index/HybridPrediction)
    predicted: bool


class FetchResult:
    """One cycle's fetch.

    A hand-rolled ``__slots__`` class rather than a dataclass: one is
    constructed per fetch (the single hottest allocation in a front-end
    simulation), and the engines fill the fields in directly, so the
    constructor takes only the few values known up front.
    """

    __slots__ = (
        "pc", "source", "active", "active_dirs", "active_promoted",
        "inactive", "inactive_dirs", "inactive_promoted", "pred_records",
        "divergence", "next_pc", "stall_cycles", "raw_reason",
        "predictions_used", "ends_with_trap", "segment", "control_snapshots",
        "variant", "pred_tokens",
    )

    def __init__(self, pc: int, source: str, stall_cycles: int = 0,
                 segment: Optional[TraceSegment] = None):
        self.pc = pc
        self.source = source                     # "tc" or "icache"
        self.active: List[Instruction] = []
        #: per active instruction: the fetch path's direction for
        #: conditional branches (promoted => static direction, dynamic =>
        #: prediction); None for non-branches.
        self.active_dirs: List[Optional[bool]] = []
        self.active_promoted: List[bool] = []
        self.inactive: List[Instruction] = []
        self.inactive_dirs: List[Optional[bool]] = []
        self.inactive_promoted: List[bool] = []
        self.pred_records: List[PredRecord] = []
        self.divergence = False       # trace path diverged from predicted path
        self.next_pc: Optional[int] = None  # None => target unknown (misfetch)
        self.stall_cycles = stall_cycles    # icache miss cycles before delivery
        self.raw_reason = FetchReason.ICACHE
        self.predictions_used = 0
        self.ends_with_trap = False
        self.segment = segment
        #: position in ``active`` -> (ghr value before this branch's push,
        #: RAS snapshot at that point).  Used by the core for checkpoint
        #: repair.
        self.control_snapshots: dict = {}
        #: the CompiledVariant this fetch was served from, or None when it
        #: went through a generic path.  The front-end simulator keys its
        #: fast retire path off this.
        self.variant: Optional[CompiledVariant] = None
        #: per-fetch predictor tokens ``(t0, t1, t2)`` on the variant path;
        #: there ``pred_records`` is built lazily (``None`` until a generic
        #: consumer actually needs the records — most variant fetches
        #: retire compiled and never do).
        self.pred_tokens: Optional[tuple] = None

    @property
    def size(self) -> int:
        return len(self.active)


#: Shared by every variant-served FetchResult: capture is off on the
#: variant path, so nothing ever writes into it.
_EMPTY_SNAPSHOTS: dict = {}


class CompiledVariant:
    """One fully precomputed fetch outcome of a trace segment.

    A segment fetch is determined by the predicted directions of its
    dynamic branches: with at most three of them there are at most eight
    outcomes per segment, each compiled once (lazily, on first occurrence)
    into everything the fetch and the front-end simulator's retire path
    need — the instruction/direction/promotion lists (shared across
    fetches, never mutated), the batched GHR shift, the RAS pushes, the
    predictor-training metadata, and the fill unit's event list.  The only
    per-fetch residue is predictor-token capture (``pred_meta``) and the
    tail target when the segment ends in a return or indirect jump.
    """

    __slots__ = (
        "active", "dirs", "promoted", "inactive", "inactive_dirs",
        "inactive_promoted", "divergence", "next_pc", "tail", "last_addr",
        "ends_with_trap", "raw_reason", "predictions_used", "pred_meta",
        "ras_pushes", "ghr_count", "ghr_bits", "branch_checks", "n_active",
        "n_dyn", "n_promoted", "n_indirect", "train_meta", "ret_pop",
        "trap_last", "fill_events", "fill_branches", "key", "dyn_pos",
    )


def compile_variant(segment: TraceSegment, key: int,
                    inactive_issue: bool) -> CompiledVariant:
    """Compile the fetch of ``segment`` under predicted pattern ``key``.

    Bit ``k`` of ``key`` is the predicted direction of the segment's
    ``k``-th dynamic branch; the compiled walk mirrors
    ``TraceFetchEngine._fetch_from_plan`` exactly, cut at the first
    dynamic branch whose prediction disagrees with the embedded path.
    """
    events, dirs_tmpl, promoted_tmpl, _promoted_addrs, tail = segment.fetch_plan()
    instructions = segment.instructions
    v = CompiledVariant()
    v.key = key
    pred_meta = []
    train_meta = []
    ras_pushes = []
    path: List[bool] = []
    ghr_bits = 0
    ghr_count = 0
    dyn_index = 0
    divergence_pos = -1
    diverging_predicted = False
    dyn_pos: dict = {}
    for kind, pos, payload in events:
        if kind == 0:
            ras_pushes.append(payload)
            continue
        if kind == 1:
            ghr_bits = (ghr_bits << 1) | payload
            ghr_count += 1
            continue
        direction, addr = payload
        predicted = bool((key >> dyn_index) & 1)
        pred_meta.append((addr, dyn_index, predicted))
        train_meta.append((tuple(path), predicted))
        dyn_pos[pos] = dyn_index
        path.append(predicted)
        dyn_index += 1
        ghr_bits = (ghr_bits << 1) | predicted
        ghr_count += 1
        if predicted != direction:
            divergence_pos = pos
            diverging_predicted = predicted
            break
    if divergence_pos >= 0:
        # The diverging slot itself must not be bit-flipped by the
        # simulator's mispredict fast path: flipping it would *extend* the
        # fetch past the divergence, not truncate it (the inactively issued
        # remainder is on the correct path there — generic territory).
        del dyn_pos[divergence_pos]
    v.dyn_pos = dyn_pos
    v.predictions_used = v.n_dyn = dyn_index
    v.pred_meta = tuple(pred_meta)
    v.train_meta = tuple(train_meta)
    v.ras_pushes = tuple(ras_pushes)
    v.ghr_bits = ghr_bits
    v.ghr_count = ghr_count
    if divergence_pos >= 0:
        cut = divergence_pos + 1
        v.active = instructions[:cut]
        dirs = dirs_tmpl[:cut]
        dirs[divergence_pos] = diverging_predicted
        v.dirs = dirs
        v.promoted = promoted_tmpl[:cut]
        v.divergence = True
        diverging = instructions[divergence_pos]
        v.next_pc = diverging.target if diverging_predicted else diverging.fall_through
        v.raw_reason = FetchReason.PARTIAL_MATCH
        v.tail = 0  # constant successor along the predicted path
        v.ends_with_trap = False
        if inactive_issue and cut < len(instructions):
            v.inactive = instructions[cut:]
            v.inactive_dirs = dirs_tmpl[cut:]
            v.inactive_promoted = promoted_tmpl[cut:]
        else:
            v.inactive = []
            v.inactive_dirs = []
            v.inactive_promoted = []
    else:
        v.active = instructions
        v.dirs = dirs_tmpl
        v.promoted = promoted_tmpl
        v.divergence = False
        v.inactive = []
        v.inactive_dirs = []
        v.inactive_promoted = []
        v.raw_reason = _REASON_FROM_FINALIZE[segment.finalize_reason]
        v.tail = tail
        v.ends_with_trap = tail == 3
        if tail == 0:
            v.next_pc = segment.next_addr
        elif tail == 3:
            v.next_pc = instructions[-1].fall_through
        else:
            v.next_pc = None  # RAS pop / indirect prediction, resolved per fetch
    v.last_addr = instructions[-1].addr
    v.n_active = len(v.active)
    v.n_indirect = 1 if (not v.divergence and tail == 2) else 0
    v.ret_pop = not v.divergence and tail == 1
    v.trap_last = (not v.divergence
                   and instructions[-1].op.opclass is OpClass.TRAP)
    # Single pass over the active slots building the oracle branch checks,
    # the promoted-branch count, and the fill-unit event list (plain runs
    # extend the pending block wholesale, conditional branches re-consult
    # the bias table live at retire time — promotion state evolves between
    # fetches of the same variant — and segment enders cut the block).
    branch_checks = []
    fill_events = []
    fill_branches = []
    n_promoted = 0
    run: List[tuple] = []
    v_dirs = v.dirs
    v_promoted = v.promoted
    for pos, inst in enumerate(v.active):
        d = v_dirs[pos]
        if d is not None:
            branch_checks.append((pos, d))
            if v_promoted[pos]:
                n_promoted += 1
            if run:
                fill_events.append((0, tuple(run)))
                run = []
            fill_events.append((1, (inst, d)))
            fill_branches.append((inst.addr, d))
        elif inst.op.ends_trace_segment:
            if run:
                fill_events.append((0, tuple(run)))
                run = []
            fill_events.append((2, (inst, None, False)))
        else:
            run.append((inst, None, False))
    if run:
        fill_events.append((0, tuple(run)))
    v.branch_checks = tuple(branch_checks)
    v.n_promoted = n_promoted
    v.fill_events = tuple(fill_events)
    v.fill_branches = tuple(fill_branches)
    return v


class _FrontEndBase:
    """Shared speculative state: global history, RAS, indirect predictor."""

    def __init__(self, program: Program, memory: MemoryHierarchy, ghr_bits: int):
        self.program = program
        self.memory = memory
        self.ghr = GlobalHistory(ghr_bits)
        self.ras = IdealReturnAddressStack()
        self.indirect = LastTargetPredictor()
        #: Record per-branch (GHR, RAS) snapshots in each FetchResult's
        #: ``control_snapshots``.  Only the out-of-order core reads them
        #: (checkpoint repair), and it re-enables this on engine adoption
        #: (see ``Machine.__init__``); everything else — the oracle-driven
        #: front-end simulator, benchmarks, warm-up drivers — runs with
        #: capture off, which both skips a RAS copy per fetched branch and
        #: unlocks the compiled-variant fetch path (variant results share
        #: per-variant lists, which must never leak into the core).
        self.capture_snapshots = False
        #: pc -> (block, line_breaks): the natural fetch block starting at
        #: a pc (up to the first control / fetch width / image end) is a
        #: pure function of the static program, so it is walked once; only
        #: the cache-line hit checks are replayed per fetch.
        self._block_cache: dict = {}

    def snapshot(self) -> tuple:
        return (self.ghr.snapshot(), self.ras.snapshot())

    def restore(self, state: tuple) -> None:
        ghr_value, ras_state = state
        self.ghr.restore(ghr_value)
        self.ras.restore(ras_state)

    # --- icache block fetch (shared by both engines) ---------------------

    def _fetch_icache_block(self, pc: int) -> Tuple[List[Instruction], int, bool]:
        """Fetch one block from the instruction cache with split-line fetch.

        Returns (instructions, stall_cycles, line_boundary_cut).  The block
        ends at the first control instruction, the fetch width, the end of
        the code image, or a second-line miss (split-line rule).

        The block contents and the positions where it crosses a cache line
        are static per pc, so they come from ``_block_cache``; only the
        dynamic part — the line hit checks, in address order — replays
        against the memory hierarchy on every fetch.
        """
        memory = self.memory
        latency = memory.inst_line_latency(pc)
        stall = max(0, latency - memory.config.l1i_hit_latency)
        cached = self._block_cache.get(pc)
        if cached is None:
            cached = self._build_icache_block(pc)
            self._block_cache[pc] = cached
        block, breaks = cached
        for pos, addr, byte_addr in breaks:
            if not memory.inst_line_hit(addr):
                # Second-line miss terminates the fetch; start the fill.
                memory.inst_line_latency(addr)
                return block[:pos], stall, True
            memory.l1i.access(byte_addr)
        return block, stall, False

    def _build_icache_block(self, pc: int) -> tuple:
        """Walk the static block starting at ``pc`` once (no memory access).

        Returns ``(block, breaks)`` where ``breaks`` lists, per cache-line
        crossing inside the block, ``(position, word_addr, byte_addr)`` of
        the first instruction on the new line.
        """
        line_bytes = self.memory.config.l1i_line_bytes
        line_id = (pc * INST_BYTES) // line_bytes
        program_fetch = self.program.fetch
        block: List[Instruction] = []
        breaks = []
        addr = pc
        while len(block) < FETCH_WIDTH:
            inst = program_fetch(addr)
            if inst is None:
                break
            this_line = (addr * INST_BYTES) // line_bytes
            if this_line != line_id:
                breaks.append((len(block), addr, addr * INST_BYTES))
                line_id = this_line
            block.append(inst)
            if inst.op.ends_fetch_block:
                break
            addr += 1
        return block, tuple(breaks)

    def _control_next_pc(self, inst: Instruction, predicted_taken: Optional[bool]) -> Optional[int]:
        """Predicted successor of a block-ending control instruction."""
        op = inst.op
        if op.is_cond_branch:
            return inst.target if predicted_taken else inst.fall_through
        if op is Opcode.JMP:
            return inst.target
        if op is Opcode.CALL:
            self.ras.push(inst.fall_through)
            return inst.target
        if op is Opcode.RET:
            return self.ras.pop()
        if op is Opcode.JR:
            return self.indirect.predict(inst.addr)
        # TRAP / HALT serialize; fetch resumes at the next instruction.
        return inst.fall_through


class TraceFetchEngine(_FrontEndBase):
    """Trace cache front end with partial matching and inactive issue."""

    def __init__(
        self,
        program: Program,
        memory: MemoryHierarchy,
        trace_cache: TraceCache,
        fill_unit: FillUnit,
        predictor,
        ghr_bits: Optional[int] = None,
        inactive_issue: bool = True,
    ):
        if ghr_bits is None:
            ghr_bits = getattr(predictor, "history_bits", 14)
        super().__init__(program, memory, ghr_bits)
        self.trace_cache = trace_cache
        self.fill_unit = fill_unit
        self.predictor = predictor
        #: inactive issue is always on in the paper; ablation turns the
        #: dormant remainder of partially matching lines into a plain cut
        self.inactive_issue = inactive_issue
        #: one-shot direction overrides installed by promoted-fault recovery
        self._fault_overrides = {}
        #: pc -> [epoch, candidates, ghr_value, scores]: path-associative
        #: candidate sets memoized against the trace cache's content epoch,
        #: plus the last (history -> per-segment score) scoring pass.
        self._cand_cache: dict = {}

    def add_fault_override(self, addr: int, direction: bool) -> None:
        """Force the next fetch of the promoted branch at ``addr`` to follow
        ``direction`` (its architecturally correct outcome)."""
        self._fault_overrides[addr] = direction

    def fetch(self, pc: int) -> FetchResult:
        if self.trace_cache.path_assoc:
            segment = self._select_path(pc)
        else:
            segment = self.trace_cache.lookup(pc)
        if segment is None:
            return self._fetch_from_icache(pc)
        if self._fault_overrides or self.capture_snapshots:
            return self._fetch_from_segment(pc, segment)
        return self._fetch_from_variant(pc, segment)

    def _select_path(self, pc: int) -> Optional[TraceSegment]:
        """Path-associative selection: among same-start candidates, take
        the one whose leading dynamic branch directions agree with the
        predictor for the longest prefix.

        The candidate set for a pc is memoized against the trace cache's
        content epoch (miss and single-candidate fetches skip the way
        scan), and multi-candidate scoring is memoized per (pc, history).
        Tie-breaking follows the *current* LRU way order — ``record_hit``
        reorders ways without changing membership — so the multi-candidate
        arm re-reads the order and only reuses the per-segment scores.
        """
        tc = self.trace_cache
        epoch = tc.epoch
        cached = self._cand_cache.get(pc)
        if cached is not None and cached[0] == epoch:
            candidates = cached[1]
        else:
            candidates = tc.lookup_candidates(pc)
            cached = [epoch, candidates, -1, None]
            self._cand_cache[pc] = cached
        if not candidates:
            tc.record_miss()
            return None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            current = tc.lookup_candidates(pc)
            ghr_value = self.ghr.value
            scores = cached[3]
            if cached[2] != ghr_value:
                pattern = self.predictor.predict_pattern(pc, ghr_value)[0]
                scores = {}
                for segment in current:
                    matched = 0
                    for branch in segment.dynamic_branches[:3]:
                        if ((pattern >> matched) & 1) != branch.direction:
                            break
                        matched += 1
                    scores[id(segment)] = (matched, len(segment.instructions))
                cached[2] = ghr_value
                cached[3] = scores
            chosen = current[0]
            best = scores[id(chosen)]
            for segment in current:
                score = scores[id(segment)]
                if score > best:
                    best = score
                    chosen = segment
        tc.record_hit(chosen)
        return chosen

    def _fetch_from_segment(self, pc: int, segment: TraceSegment) -> FetchResult:
        """Slow gate: pending fault overrides or snapshot capture active."""
        events, dirs_tmpl, promoted_tmpl, promoted_addrs, tail = segment.fetch_plan()
        fault_overrides = self._fault_overrides
        if fault_overrides and not fault_overrides.keys().isdisjoint(promoted_addrs):
            return self._fetch_from_segment_slow(pc, segment)
        if self.capture_snapshots:
            # Per-branch snapshot capture needs the event walk (live GHR
            # and RAS values at each branch); variant results also share
            # per-variant lists that must never reach the core.
            return self._fetch_from_plan(pc, segment, events, dirs_tmpl,
                                         promoted_tmpl, tail)
        return self._fetch_from_variant(pc, segment)

    def _fetch_from_variant(self, pc: int, segment: TraceSegment) -> FetchResult:
        """Serve a segment fetch from its compiled variant (the hot path).

        The predictor is consulted once (iff the segment contains a
        dynamic branch, like the plan walk) and its pattern selects the
        precompiled outcome; everything else is field copies plus the
        batched GHR shift and RAS pushes.
        """
        mask = segment._pattern_mask
        if mask < 0:
            events = segment.fetch_plan()[0]
            mask = 0
            trace_key = 0
            n_dyn = 0
            for kind, _pos, payload in events:
                if kind == 2:
                    mask = (mask << 1) | 1
                    if payload[0]:
                        trace_key |= 1 << n_dyn
                    n_dyn += 1
            segment._pattern_mask = mask
            segment._trace_key = trace_key
            segment._variants = {}
        if mask:
            pattern, t0, t1, t2 = self.predictor.predict_pattern(pc, self.ghr.value)
            key = pattern & mask
        else:
            key = 0
        variants = segment._variants
        variant = variants.get(key)
        if variant is None:
            variant = compile_variant(segment, key, self.inactive_issue)
            variants[key] = variant
        result = FetchResult.__new__(FetchResult)
        result.pc = pc
        result.source = "tc"
        result.active = variant.active
        result.active_dirs = variant.dirs
        result.active_promoted = variant.promoted
        result.inactive = variant.inactive
        result.inactive_dirs = variant.inactive_dirs
        result.inactive_promoted = variant.inactive_promoted
        result.divergence = variant.divergence
        result.stall_cycles = 0
        result.raw_reason = variant.raw_reason
        result.predictions_used = variant.predictions_used
        result.ends_with_trap = variant.ends_with_trap
        result.segment = segment
        result.control_snapshots = _EMPTY_SNAPSHOTS
        result.variant = variant
        if variant.pred_meta:
            result.pred_records = None  # built lazily from pred_tokens
            result.pred_tokens = (t0, t1, t2)
        else:
            result.pred_records = ()
            result.pred_tokens = None
        if variant.ghr_count:
            self.ghr.push_bits(variant.ghr_bits, variant.ghr_count)
        ras = self.ras
        for fall_through in variant.ras_pushes:
            ras.push(fall_through)
        tail = variant.tail
        if tail == 1:
            result.next_pc = ras.pop()
        elif tail == 2:
            result.next_pc = self.indirect.predict(variant.last_addr)
        else:
            result.next_pc = variant.next_pc
        return result

    def _fetch_from_plan(self, pc: int, segment: TraceSegment, events: list,
                         dirs_tmpl: list, promoted_tmpl: list, tail: int) -> FetchResult:
        """Segment fetch along the precomputed event plan (no pending fault
        overrides, the overwhelmingly common case).

        Only the control *events* are walked — per-position work is
        replaced by slicing the segment's cached direction/promotion
        templates, which is valid because a non-diverging fetch follows
        exactly the embedded path and a diverging one follows it up to the
        diverging branch.
        """
        ghr = self.ghr
        ras = self.ras
        ghr_push = ghr.push
        # The predictor is consulted with the fetch-entry history, but only
        # if the segment actually contains a dynamically predicted branch —
        # fully promoted (or branch-free) segments skip the table walk.
        ghr_at_entry = ghr.value
        prediction = None
        result = FetchResult(pc=pc, source="tc", segment=segment)
        capture = self.capture_snapshots
        snapshots = result.control_snapshots
        ras_snap = None
        instructions = segment.instructions
        dyn_index = 0
        divergence_pos = -1
        diverging_predicted = False
        for kind, pos, payload in events:
            if kind == 0:
                ras.push(payload)
                ras_snap = None
                continue
            if capture:
                if ras_snap is None:
                    ras_snap = ras.snapshot()
                snapshots[pos] = (ghr.value, ras_snap)
            if kind == 1:
                ghr_push(payload)
            else:
                direction, addr = payload
                if prediction is None:
                    prediction = self.predictor.predict(pc, ghr_at_entry)
                predicted = prediction.taken[dyn_index]
                result.pred_records.append(
                    PredRecord(addr=addr, position=dyn_index,
                               token=prediction.indices[dyn_index], predicted=predicted)
                )
                dyn_index += 1
                ghr_push(predicted)
                if predicted != direction:
                    divergence_pos = pos
                    diverging_predicted = predicted
                    break
        result.predictions_used = dyn_index
        if divergence_pos >= 0:
            cut = divergence_pos + 1
            result.active = instructions[:cut]
            dirs = dirs_tmpl[:cut]
            dirs[divergence_pos] = diverging_predicted
            result.active_dirs = dirs
            result.active_promoted = promoted_tmpl[:cut]
            result.divergence = True
            diverging = instructions[divergence_pos]
            result.next_pc = diverging.target if diverging_predicted else diverging.fall_through
            result.raw_reason = FetchReason.PARTIAL_MATCH
            # The remainder of the line issues inactively, along the
            # segment's own (non-predicted) path.
            if self.inactive_issue and cut < len(instructions):
                result.inactive = instructions[cut:]
                result.inactive_dirs = dirs_tmpl[cut:]
                result.inactive_promoted = promoted_tmpl[cut:]
            return result
        result.active = instructions[:]
        result.active_dirs = dirs_tmpl[:]
        result.active_promoted = promoted_tmpl[:]
        result.raw_reason = _REASON_FROM_FINALIZE[segment.finalize_reason]
        if tail == 0:
            result.next_pc = segment.next_addr
        elif tail == 1:
            result.next_pc = ras.pop()
        elif tail == 2:
            result.next_pc = self.indirect.predict(instructions[-1].addr)
        else:
            result.next_pc = instructions[-1].fall_through
            result.ends_with_trap = True
        return result

    def _fetch_from_segment_slow(self, pc: int, segment: TraceSegment) -> FetchResult:
        """Per-slot segment walk, kept for fetches with a pending promoted
        fault override (which can cut the fetch at an arbitrary position)."""
        ghr = self.ghr
        ras = self.ras
        ghr_push = ghr.push
        ghr_at_entry = ghr.value
        prediction = None
        result = FetchResult(pc=pc, source="tc", segment=segment)
        active_append = result.active.append
        dirs_append = result.active_dirs.append
        promoted_append = result.active_promoted.append
        fault_overrides = self._fault_overrides
        capture = self.capture_snapshots
        slots = segment._fetch_slots
        if slots is None:
            slots = segment.fetch_slots()
        dyn_index = 0
        divergence_pos: Optional[int] = None
        diverging_predicted = False
        for pos, (inst, branch, call_ft) in enumerate(slots):
            direction: Optional[bool] = None
            promoted = False
            if branch is not None:
                if capture:
                    result.control_snapshots[pos] = (ghr.value, ras.snapshot())
                promoted = branch.promoted
                override = None
                if promoted and fault_overrides:
                    override = fault_overrides.pop(inst.addr, None)
                if override is not None:
                    # One-shot recovery override after a promoted-branch
                    # fault: execute the branch in its known direction.
                    direction = override
                    ghr_push(direction)
                    if direction != branch.direction:
                        divergence_pos = pos
                        diverging_predicted = direction
                elif promoted:
                    direction = branch.direction
                    ghr_push(direction)
                else:
                    if prediction is None:
                        prediction = self.predictor.predict(pc, ghr_at_entry)
                    predicted = prediction.taken[dyn_index]
                    result.pred_records.append(
                        PredRecord(addr=inst.addr, position=dyn_index,
                                   token=prediction.indices[dyn_index], predicted=predicted)
                    )
                    dyn_index += 1
                    ghr_push(predicted)
                    direction = predicted
                    if predicted != branch.direction:
                        divergence_pos = pos
                        diverging_predicted = predicted
            elif call_ft is not None:
                ras.push(call_ft)
            active_append(inst)
            dirs_append(direction)
            promoted_append(promoted)
            if divergence_pos is not None:
                break
        result.predictions_used = dyn_index
        if divergence_pos is not None:
            result.divergence = True
            diverging = segment.instructions[divergence_pos]
            result.next_pc = diverging.target if diverging_predicted else diverging.fall_through
            result.raw_reason = FetchReason.PARTIAL_MATCH
            # The remainder of the line issues inactively, along the
            # segment's own (non-predicted) path.
            if self.inactive_issue:
                for pos in range(divergence_pos + 1, len(slots)):
                    inst, branch, _call_ft = slots[pos]
                    result.inactive.append(inst)
                    result.inactive_dirs.append(branch.direction if branch else None)
                    result.inactive_promoted.append(branch.promoted if branch else False)
        else:
            result.raw_reason = _REASON_FROM_FINALIZE[segment.finalize_reason]
            last = segment.instructions[-1]
            if last.op is Opcode.RET:
                result.next_pc = self.ras.pop()
            elif last.op is Opcode.JR:
                result.next_pc = self.indirect.predict(last.addr)
            elif last.op.opclass in (OpClass.TRAP, OpClass.HALT):
                result.next_pc = last.fall_through
                result.ends_with_trap = True
            else:
                result.next_pc = segment.next_addr
        return result

    def _fetch_from_icache(self, pc: int) -> FetchResult:
        block, stall, boundary_cut = self._fetch_icache_block(pc)
        result = FetchResult(pc=pc, source="icache", stall_cycles=stall)
        if not block:
            result.next_pc = pc  # off the code image (wrong path); retry
            result.raw_reason = FetchReason.ICACHE
            return result
        last = block[-1]
        predicted: Optional[bool] = None
        if last.op.is_cond_branch:
            if self.capture_snapshots:
                result.control_snapshots[len(block) - 1] = (self.ghr.value, self.ras.snapshot())
            prediction = self.predictor.predict(pc, self.ghr.value)
            predicted = prediction.taken[0]
            result.pred_records.append(
                PredRecord(addr=last.addr, position=0,
                           token=prediction.indices[0], predicted=predicted)
            )
            result.predictions_used = 1
            self.ghr.push(predicted)
        for inst in block:
            result.active.append(inst)
            result.active_dirs.append(predicted if inst is last and last.op.is_cond_branch else None)
            result.active_promoted.append(False)
        result.next_pc = self._control_next_pc(last, predicted) if last.op.ends_fetch_block else last.fall_through
        result.ends_with_trap = last.op.opclass is OpClass.TRAP
        if len(block) >= FETCH_WIDTH and not last.op.ends_fetch_block:
            result.raw_reason = FetchReason.MAX_SIZE
            result.next_pc = last.fall_through
        else:
            result.raw_reason = FetchReason.ICACHE
        return result

    def train_branch(self, record: PredRecord, taken: bool, path: Tuple[bool, ...]) -> None:
        self.predictor.update(record.token, record.position, path, taken)


class ICacheFetchEngine(_FrontEndBase):
    """The reference front end: one fetch block per cycle, hybrid predictor."""

    def __init__(
        self,
        program: Program,
        memory: MemoryHierarchy,
        predictor: Optional[HybridPredictor] = None,
        history_bits: int = 15,
    ):
        super().__init__(program, memory, ghr_bits=history_bits)
        self.predictor = predictor or HybridPredictor(history_bits=history_bits)

    def fetch(self, pc: int) -> FetchResult:
        block, stall, _boundary_cut = self._fetch_icache_block(pc)
        result = FetchResult(pc=pc, source="icache", stall_cycles=stall)
        if not block:
            result.next_pc = pc
            return result
        last = block[-1]
        predicted: Optional[bool] = None
        if last.op.is_cond_branch:
            if self.capture_snapshots:
                result.control_snapshots[len(block) - 1] = (self.ghr.value, self.ras.snapshot())
            prediction = self.predictor.predict(last.addr, self.ghr.value)
            predicted = prediction.taken
            result.pred_records.append(
                PredRecord(addr=last.addr, position=0, token=prediction, predicted=predicted)
            )
            result.predictions_used = 1
            self.ghr.push(predicted)
        for inst in block:
            result.active.append(inst)
            result.active_dirs.append(predicted if inst is last and last.op.is_cond_branch else None)
            result.active_promoted.append(False)
        result.next_pc = self._control_next_pc(last, predicted) if last.op.ends_fetch_block else last.fall_through
        result.ends_with_trap = last.op.opclass is OpClass.TRAP
        if len(block) >= FETCH_WIDTH and not last.op.ends_fetch_block:
            result.raw_reason = FetchReason.MAX_SIZE
            result.next_pc = last.fall_through
        else:
            result.raw_reason = FetchReason.ICACHE
        return result

    def train_branch(self, record: PredRecord, taken: bool, path: Tuple[bool, ...]) -> None:
        del path  # single-branch predictor
        self.predictor.update(record.addr, record.token, taken)
