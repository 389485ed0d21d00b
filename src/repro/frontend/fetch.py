"""Fetch engines: trace cache + supporting icache, and the icache reference.

Both engines share the same contract: ``fetch(pc)`` returns a
:class:`FetchResult` describing the instructions supplied this cycle along
the *predicted* path (plus any inactively issued trace continuation), the
predicted next fetch address, and the bookkeeping needed to train the
predictors at retire time.  The engines maintain speculative state (global
history, return address stack) with snapshot/restore for checkpoint repair.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.branch.history import GlobalHistory
from repro.branch.hybrid import HybridPredictor
from repro.branch.indirect import LastTargetPredictor
from repro.branch.multiple import MultipleBranchPredictor, SplitMultiplePredictor
from repro.branch.ras import IdealReturnAddressStack
from repro.isa.instruction import INST_BYTES, Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.frontend.stats import FetchReason
from repro.frontend.store import program_store
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


class PredRecord:
    """Everything needed to train the predictor for one fetched branch.

    A plain ``__slots__`` class: the core builds one per fetched dynamic
    branch, and a frozen dataclass pays an ``object.__setattr__`` per
    field in its constructor.
    """

    __slots__ = ("addr", "position", "token", "predicted")

    def __init__(self, addr: int, position: int, token: object, predicted: bool):
        self.addr = addr
        self.position = position    # prediction slot within this fetch (0..2)
        self.token = token          # predictor-specific handle (row/index/HybridPrediction)
        self.predicted = predicted


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
        #: RAS snapshot at that point), one entry per conditional branch in
        #: ``active`` (in position order) while the engine's
        #: ``capture_snapshots`` is on.  Used by the core for checkpoint
        #: repair; a compiled variant derives the entries from its
        #: ``snap_recipe``, the fault-override walk records them live.
        self.control_snapshots: dict = {}
        #: the CompiledVariant this fetch was served from, or None for the
        #: fault-override walk and off-image fetches.  The front-end
        #: simulator keys its fast retire path off this.
        self.variant: Optional[CompiledVariant] = None
        #: per-fetch predictor tokens ``(t0, t1, t2)`` on the variant path.
        #: With capture off ``pred_records`` is built lazily (``None`` until
        #: a generic consumer actually needs the records — most variant
        #: fetches retire compiled and never do); with capture on (the
        #: core) it is built at fetch.
        self.pred_tokens: Optional[tuple] = None

    @property
    def size(self) -> int:
        return len(self.active)


#: Shared by every variant-served FetchResult without snapshots (capture
#: off, or no conditional branch); consumers only ever read it.
_EMPTY_SNAPSHOTS: dict = {}


class CompiledVariant:
    """One fully precomputed fetch outcome of a trace segment or icache block.

    A segment fetch is determined by the predicted directions of its
    dynamic branches: with at most three of them there are at most eight
    outcomes per segment, each compiled once (lazily, on first occurrence)
    into everything the fetch and the front-end simulator's retire path
    need — the instruction/direction/promotion lists (shared across
    fetches, never mutated), the batched GHR shift, the RAS pushes, the
    predictor-training metadata, and the fill unit's event list.  The only
    per-fetch residue is predictor-token capture (``pred_meta``) and the
    tail target when the segment ends in a return or indirect jump.

    ``snap_recipe`` serves the core's checkpoint repair: per conditional
    branch slot ``(pos, k, j)``, where ``k`` of the variant's
    ``ghr_count`` batched GHR bits and ``j`` of its ``ras_pushes``
    precede the branch.  From the GHR value and RAS snapshot at fetch
    entry, the branch's ``(GHR before its push, RAS snapshot)`` is
    ``((entry << k) | (ghr_bits >> (ghr_count - k))) & mask`` and
    ``entry_ras + ras_pushes[:j]``.

    An icache fetch block is the one-branch case (:func:`compile_block`):
    static per (pc, delivered length), with one variant per predicted
    direction of its final conditional branch.  ``source`` is the fetch
    source the variant is accounted under.
    """

    __slots__ = (
        "active", "dirs", "promoted", "inactive", "inactive_dirs",
        "inactive_promoted", "divergence", "next_pc", "tail", "last_addr",
        "ends_with_trap", "raw_reason", "predictions_used", "pred_meta",
        "ras_pushes", "ghr_count", "ghr_bits", "branch_checks", "n_active",
        "n_dyn", "n_promoted", "n_indirect", "train_meta", "ret_pop",
        "trap_last", "fill_events", "fill_branches", "key", "dyn_pos",
        "source", "snap_recipe",
    )


def compile_variant(segment: TraceSegment, key: int, inactive_issue: bool,
                    slots: dict) -> CompiledVariant:
    """Compile the fetch of ``segment`` under predicted pattern ``key``.

    Bit ``k`` of ``key`` is the predicted direction of the segment's
    ``k``-th dynamic branch.  ``slots`` interns fill-event slots (see
    :func:`_compile_retire`).  The walk follows the segment's fetch plan
    (control events only) along the embedded path, cut at the first
    dynamic branch whose prediction disagrees with it: the same outcome
    as :meth:`TraceFetchEngine._fetch_from_segment_slow` without an
    override, and as the reference engine's walk.
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
    snap_recipe = []
    for kind, pos, payload in events:
        if kind == 0:
            ras_pushes.append(payload)
            continue
        snap_recipe.append((pos, ghr_count, len(ras_pushes)))
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
    v.snap_recipe = snap_recipe
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
    v.source = "tc"
    _compile_retire(v, slots)
    return v


#: ``(pos, direction)`` oracle checks, shared: ``[pos][direction]``.
_BRANCH_CHECKS = tuple(((pos, False), (pos, True))
                       for pos in range(FETCH_WIDTH))


def _fill_slots(inst: Instruction, is_branch: bool) -> tuple:
    """The fill slots ``(inst, direction, promoted)`` ``inst`` can retire
    as: ``(inst, None, False)``, or for a conditional branch the four
    slots indexed ``[direction][promoted]``."""
    if not is_branch:
        return (inst, None, False)
    return tuple(((inst, d, False), (inst, d, True)) for d in (False, True))


def _compile_retire(v: CompiledVariant, slots: dict) -> None:
    """Fill in what retiring ``v``'s active slots wholesale needs.

    Single pass over the active slots building the oracle branch checks,
    the promoted-branch count, and the fill-unit event list (plain runs
    extend the pending block wholesale, conditional branches re-consult
    the bias table live at retire time — promotion state evolves between
    fetches of the same variant — and segment enders cut the block).
    Fill slots come from ``slots`` (address -> :func:`_fill_slots`), so
    every variant retiring an instruction shares them; a conditional
    branch's event carries both of its slots, not promoted and promoted,
    for the bias table's live answer to pick.
    """
    branch_checks = []
    fill_events = []
    fill_branches = []
    n_promoted = 0
    run: List[tuple] = []
    v_dirs = v.dirs
    v_promoted = v.promoted
    slots_get = slots.get
    for pos, inst in enumerate(v.active):
        d = v_dirs[pos]
        slot = slots_get(inst.addr)
        if slot is None:
            slot = slots[inst.addr] = _fill_slots(inst, d is not None)
        if d is not None:
            branch_checks.append(_BRANCH_CHECKS[pos][d])
            if v_promoted[pos]:
                n_promoted += 1
            if run:
                fill_events.append((0, tuple(run)))
                run = []
            fill_events.append((1, slot[d]))
            fill_branches.append((inst.addr, d))
        elif inst.op.ends_trace_segment:
            if run:
                fill_events.append((0, tuple(run)))
                run = []
            fill_events.append((2, slot))
        else:
            run.append(slot)
    if run:
        fill_events.append((0, tuple(run)))
    v.branch_checks = tuple(branch_checks)
    v.n_promoted = n_promoted
    v.fill_events = tuple(fill_events)
    v.fill_branches = tuple(fill_branches)


def compile_block(block: List[Instruction], train_by_addr: bool,
                  slots: dict) -> Tuple[CompiledVariant, CompiledVariant]:
    """Compile the icache fetch of ``block`` (non-empty, as delivered).

    Returns the variants for a not-taken and a taken prediction of the
    block's final conditional branch, in that order; a block that does
    not end in one has a single outcome, returned twice.  The variants
    match the reference engine's per-instruction block walk exactly: the
    only per-fetch residue is the prediction itself and the tail target
    of a return or indirect jump.  A block holds at most one control
    instruction, its last, so its one conditional branch (if any) has no
    GHR bit or RAS push ahead of it.  ``train_by_addr`` selects the
    training record: ``(branch pc, taken)`` for the hybrid predictor,
    ``(path, taken)`` for the multiple-branch predictors.  ``slots``
    interns fill-event slots (see :func:`_compile_retire`).
    """
    last = block[-1]
    op = last.op
    n = len(block)
    variants = []
    for predicted in ((False, True) if op.is_cond_branch else (None,)):
        v = CompiledVariant()
        v.source = "icache"
        v.active = block
        v.dirs = [None] * (n - 1) + [predicted]
        v.promoted = [False] * n
        v.inactive = v.inactive_dirs = v.inactive_promoted = ()
        v.divergence = False
        v.last_addr = last.addr
        v.n_active = n
        v.ends_with_trap = v.trap_last = op.opclass is OpClass.TRAP
        v.ret_pop = op is Opcode.RET
        v.n_indirect = 1 if op is Opcode.JR else 0
        v.tail = 1 if v.ret_pop else 2 if v.n_indirect else 0
        v.ras_pushes = (last.fall_through,) if op is Opcode.CALL else ()
        if n >= FETCH_WIDTH and not op.ends_fetch_block:
            v.raw_reason = FetchReason.MAX_SIZE
        else:
            v.raw_reason = FetchReason.ICACHE
        if predicted is None:
            v.key = 0
            v.predictions_used = v.n_dyn = v.ghr_count = v.ghr_bits = 0
            v.pred_meta = v.train_meta = v.snap_recipe = ()
            v.dyn_pos = {}
            if op.is_direct_control:  # JMP, CALL
                v.next_pc = last.target
            elif v.tail:
                v.next_pc = None  # RAS pop / indirect prediction, per fetch
            else:
                v.next_pc = last.fall_through
        else:
            v.key = int(predicted)
            v.predictions_used = v.n_dyn = v.ghr_count = 1
            v.ghr_bits = v.key
            v.pred_meta = ((last.addr, 0, predicted),)
            v.train_meta = (((last.addr if train_by_addr else ()), predicted),)
            v.dyn_pos = {n - 1: 0}
            v.snap_recipe = ((n - 1, 0, 0),)
            v.next_pc = last.target if predicted else last.fall_through
        _compile_retire(v, slots)
        variants.append(v)
    return variants[0], variants[-1]


def _off_image(pc: int, stall: int) -> FetchResult:
    """An empty fetch off the code image (wrong path only): retry ``pc``."""
    result = FetchResult(pc=pc, source="icache", stall_cycles=stall)
    result.next_pc = pc
    return result


class _FrontEndBase:
    """Shared speculative state: global history, RAS, indirect predictor."""

    #: Compiled block training records: ``(pc, taken)`` (hybrid predictor)
    #: rather than ``(path, taken)`` (multiple-branch predictors).
    _train_by_addr = False

    def __init__(self, program: Program, memory: MemoryHierarchy, ghr_bits: int):
        self.program = program
        self.memory = memory
        self.ghr = GlobalHistory(ghr_bits)
        self.ras = IdealReturnAddressStack()
        self.indirect = LastTargetPredictor()
        #: Record per-branch (GHR, RAS) snapshots in each FetchResult's
        #: ``control_snapshots`` and build its ``pred_records`` at fetch.
        #: Only the out-of-order core reads them (checkpoint repair), and
        #: it re-enables this on engine adoption (see ``Machine.__init__``);
        #: everything else — the oracle-driven front-end simulator,
        #: benchmarks, warm-up drivers — runs with capture off.  Both
        #: settings take the same compiled-variant fetch path: a variant
        #: derives its snapshots from the fetch-entry GHR/RAS and its
        #: ``snap_recipe`` (see :meth:`_serve`).
        self.capture_snapshots = False
        #: The program's compiled state, shared with every fast engine
        #: built for it on this thread (:mod:`repro.frontend.store`).
        store = self._store = program_store(program)
        line_bytes = memory.config.l1i_line_bytes
        #: pc -> (block, line_breaks): the natural fetch block starting at
        #: a pc (up to the first control / fetch width / image end) is a
        #: pure function of the static program and the line size, so it
        #: is walked once; only the cache-line hit checks are replayed
        #: per fetch.
        self._block_cache: dict = store.walks_for(line_bytes)
        #: pc -> (variants, cut_variants) for the compiled icache path:
        #: the :func:`compile_block` pair of the block at pc (None off the
        #: code image) and, per split-line cut position, the pair of the
        #: shortened block.
        self._compiled_blocks: dict = store.blocks_for(type(self), line_bytes)
        #: addr -> the instruction's shared fill slots (:func:`_fill_slots`).
        self._slots: dict = store.slots

    def snapshot(self) -> tuple:
        return (self.ghr.snapshot(), self.ras.snapshot())

    def restore(self, state: tuple) -> None:
        ghr_value, ras_state = state
        self.ghr.restore(ghr_value)
        self.ras.restore(ras_state)

    # --- icache block fetch (shared by both engines) ---------------------

    def _replay_lines(self, pc: int, breaks: tuple) -> Tuple[int, int]:
        """Replay one block fetch's icache accesses, in address order.

        Returns ``(stall_cycles, cut)``: the miss cycles of the first line,
        and the position of the first instruction on a missing second line
        (the split-line rule ends the fetch there), or 0 when the whole
        block is delivered.
        """
        memory = self.memory
        latency = memory.inst_line_latency(pc)
        stall = max(0, latency - memory.config.l1i_hit_latency)
        for pos, addr, byte_addr in breaks:
            if not memory.inst_line_hit(addr):
                # Second-line miss terminates the fetch; start the fill.
                memory.inst_line_latency(addr)
                return stall, pos
            memory.l1i.access(byte_addr)
        return stall, 0

    def _fetch_compiled_block(self, pc: int) -> tuple:
        """The compiled icache fetch at ``pc``: ``(variants, stall_cycles)``.

        The block ends at the first control instruction, the fetch width,
        the end of the code image, or a second-line miss (split-line
        rule).  Its contents and line crossings are static per pc, so
        they come from ``_block_cache``; only the line hit checks replay
        against the memory hierarchy on every fetch.  ``variants`` is the
        :func:`compile_block` pair of the delivered block (compiled on
        first delivery), or None when ``pc`` is off the code image.
        """
        cached = self._block_cache.get(pc)
        if cached is None:
            cached = self._block_cache[pc] = self._build_icache_block(pc)
        block, breaks = cached
        stall, cut = self._replay_lines(pc, breaks)
        entry = self._compiled_blocks.get(pc)
        if entry is None:
            variants = (compile_block(block, self._train_by_addr, self._slots)
                        if block else None)
            entry = self._compiled_blocks[pc] = (variants, {})
        variants, cuts = entry
        if cut:
            variants = cuts.get(cut)
            if variants is None:
                variants = cuts[cut] = compile_block(
                    block[:cut], self._train_by_addr, self._slots)
        return variants, stall

    def block_sibling(self, pc: int, variant: CompiledVariant) -> CompiledVariant:
        """The opposite-direction twin of block ``variant`` fetched at ``pc``.

        Looked up rather than linked from the variant: a link would make
        each twin pair a reference cycle.  Together with the fill unit's
        index-linked state graph this keeps the engine's whole object
        graph acyclic, so a dropped engine dies by refcount with no help
        from the cyclic GC (``tests/test_gc_hygiene.py``); the one GC
        pause per unit of work lives in ``scheduler._run_point``.
        """
        variants, cuts = self._compiled_blocks[pc]
        return cuts.get(variant.n_active, variants)[variant.key ^ 1]

    def _serve(self, pc: int, variant: CompiledVariant, stall: int,
               tokens: Optional[tuple],
               segment: Optional[TraceSegment] = None) -> FetchResult:
        """Deliver a compiled variant: field copies plus the speculative
        state it moves (batched GHR shift, RAS pushes, tail target).

        ``tokens`` are the predictor handles captured for the variant's
        predicted branches (None when it predicts none).  With
        ``capture_snapshots`` on, the checkpoint snapshots come from the
        variant's ``snap_recipe`` and the fetch-entry GHR/RAS, and the
        prediction records are built here rather than lazily.
        """
        result = FetchResult.__new__(FetchResult)
        result.pc = pc
        result.source = variant.source
        result.active = variant.active
        result.active_dirs = variant.dirs
        result.active_promoted = variant.promoted
        result.inactive = variant.inactive
        result.inactive_dirs = variant.inactive_dirs
        result.inactive_promoted = variant.inactive_promoted
        result.divergence = variant.divergence
        result.stall_cycles = stall
        result.raw_reason = variant.raw_reason
        result.predictions_used = variant.predictions_used
        result.ends_with_trap = variant.ends_with_trap
        result.segment = segment
        result.control_snapshots = _EMPTY_SNAPSHOTS
        result.variant = variant
        if tokens is not None:
            result.pred_records = None  # built lazily from pred_tokens
            result.pred_tokens = tokens
        else:
            result.pred_records = ()
            result.pred_tokens = None
        if self.capture_snapshots:
            recipe = variant.snap_recipe
            if recipe:
                entry = self.ghr.value
                mask = self.ghr.mask
                bits = variant.ghr_bits
                count = variant.ghr_count
                pushes = variant.ras_pushes
                entry_ras = self.ras.snapshot()
                result.control_snapshots = {
                    pos: (((entry << k) | (bits >> (count - k))) & mask,
                          entry_ras + pushes[:j] if j else entry_ras)
                    for pos, k, j in recipe}
            if tokens is not None:
                result.pred_records = [
                    PredRecord(addr, k, tokens[k], predicted)
                    for addr, k, predicted in variant.pred_meta]
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
        fill_unit.share(*self._store.fill_for(
            inactive_issue, fill_unit._validate_segments, fill_unit.policy))
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
        if self._fault_overrides:
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
        """Slow gate: a promoted-fault override is pending somewhere."""
        promoted_addrs = segment.fetch_plan()[3]
        if not self._fault_overrides.keys().isdisjoint(promoted_addrs):
            return self._fetch_from_segment_slow(pc, segment)
        return self._fetch_from_variant(pc, segment)

    def _fetch_from_variant(self, pc: int, segment: TraceSegment) -> FetchResult:
        """Serve a segment fetch from its compiled variant (the hot path).

        The predictor is consulted once (iff the segment contains a
        dynamic branch, like the reference walk) and its pattern selects the
        precompiled outcome, which :meth:`_serve` delivers.
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
            tokens = (t0, t1, t2)
        else:
            key = 0
            tokens = None
        variant = segment._variants.get(key)
        if variant is None:
            variant = self.segment_variant(segment, key)
        return self._serve(pc, variant, 0, tokens, segment)

    def segment_variant(self, segment: TraceSegment, key: int) -> CompiledVariant:
        """``segment``'s compiled variant for pattern ``key``, compiled on
        first use (the segment's plan must already be prepared, as any
        fetch of it does)."""
        variants = segment._variants
        variant = variants.get(key)
        if variant is None:
            variant = variants[key] = compile_variant(
                segment, key, self.inactive_issue, self._slots)
        return variant

    def _fetch_from_segment_slow(self, pc: int, segment: TraceSegment) -> FetchResult:
        """Per-slot segment walk, the one fetch not served from a compiled
        variant: a pending promoted-fault override on one of the segment's
        branches can cut the fetch at an arbitrary position."""
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
        """Trace-cache miss: one icache block, from its compiled variant."""
        variants, stall = self._fetch_compiled_block(pc)
        if variants is None:
            return _off_image(pc, stall)
        not_taken, taken = variants
        if not_taken is taken:
            return self._serve(pc, not_taken, stall, None)
        pattern, t0, _t1, _t2 = self.predictor.predict_pattern(pc, self.ghr.value)
        return self._serve(pc, taken if pattern & 1 else not_taken, stall, (t0,))

    def train_branch(self, record: PredRecord, taken: bool, path: Tuple[bool, ...]) -> None:
        self.predictor.update(record.token, record.position, path, taken)


class ICacheFetchEngine(_FrontEndBase):
    """The reference front end: one fetch block per cycle, hybrid predictor."""

    _train_by_addr = True

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
        variants, stall = self._fetch_compiled_block(pc)
        if variants is None:
            return _off_image(pc, stall)
        not_taken, taken = variants
        if not_taken is taken:
            return self._serve(pc, not_taken, stall, None)
        prediction = self.predictor.predict(not_taken.last_addr, self.ghr.value)
        return self._serve(pc, taken if prediction.taken else not_taken, stall,
                           (prediction,))

    def train_branch(self, record: PredRecord, taken: bool, path: Tuple[bool, ...]) -> None:
        del path  # single-branch predictor
        self.predictor.update(record.addr, record.token, taken)
