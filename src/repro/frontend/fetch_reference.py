"""Frozen reference copy of the seed fetch engines (PR 4 freeze).

A **verbatim copy** of :mod:`repro.frontend.fetch` exactly as it stood
before the fast front-end rewrite, with its predictor imports redirected
to the frozen stack in :mod:`repro.branch.reference`.  Selecting
``REPRO_ENGINE=reference`` makes :func:`repro.frontend.build.build_engine`
construct these engines instead of the optimized ones;
``benchmarks/bench_frontend_fetch.py`` and
``tests/test_frontend_parity.py`` pin the optimized path byte-identical
to this one.

Do not optimize or otherwise edit this module; it is the contract.
"""


from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.branch.reference import (
    GlobalHistory,
    HybridPredictor,
    IdealReturnAddressStack,
    LastTargetPredictor,
)
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

    @property
    def size(self) -> int:
        return len(self.active)


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
        #: (checkpoint repair); the oracle-driven front-end simulator
        #: restores from its own architectural state, so it turns this off
        #: to skip a RAS copy per fetched branch.
        self.capture_snapshots = True

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
        """
        memory = self.memory
        latency = memory.inst_line_latency(pc)
        stall = max(0, latency - memory.config.l1i_hit_latency)
        line_bytes = memory.config.l1i_line_bytes
        line_id = (pc * INST_BYTES) // line_bytes
        block: List[Instruction] = []
        boundary_cut = False
        addr = pc
        while len(block) < FETCH_WIDTH:
            inst = self.program.fetch(addr)
            if inst is None:
                break
            this_line = (addr * INST_BYTES) // line_bytes
            if this_line != line_id:
                if not memory.inst_line_hit(addr):
                    # Second-line miss terminates the fetch; start the fill.
                    memory.inst_line_latency(addr)
                    boundary_cut = True
                    break
                memory.l1i.access(addr * INST_BYTES)
                line_id = this_line
            block.append(inst)
            if inst.op.ends_fetch_block:
                break
            addr += 1
        return block, stall, boundary_cut

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
        return self._fetch_from_segment(pc, segment)

    def _select_path(self, pc: int) -> Optional[TraceSegment]:
        """Path-associative selection: among same-start candidates, take
        the one whose leading dynamic branch directions agree with the
        predictor for the longest prefix."""
        candidates = self.trace_cache.lookup_candidates(pc)
        if not candidates:
            self.trace_cache.record_miss()
            return None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            prediction = self.predictor.predict(pc, self.ghr.value)

            def score(segment: TraceSegment) -> tuple:
                matched = 0
                for branch in segment.dynamic_branches[:3]:
                    if prediction.taken[matched] != branch.direction:
                        break
                    matched += 1
                return (matched, len(segment))

            chosen = max(candidates, key=score)
        self.trace_cache.record_hit(chosen)
        return chosen

    def _fetch_from_segment(self, pc: int, segment: TraceSegment) -> FetchResult:
        events, dirs_tmpl, promoted_tmpl, promoted_addrs, tail = segment.fetch_plan()
        fault_overrides = self._fault_overrides
        if not fault_overrides or fault_overrides.keys().isdisjoint(promoted_addrs):
            return self._fetch_from_plan(pc, segment, events, dirs_tmpl,
                                         promoted_tmpl, tail)
        return self._fetch_from_segment_slow(pc, segment)

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
