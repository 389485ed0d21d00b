"""The full-machine, cycle-level simulator.

An event-driven, object-per-instruction core: every in-flight instruction
is an :class:`~repro.core.inflight.InFlight` record.  Serialized results
are byte-identical to the frozen seed core in
:mod:`repro.core.machine_reference`, which is the spec.

Pipeline per cycle (processed in reverse order so stages are pipelined):

1. **retire** — in-order commit of up to 16 instructions: stores write the
   committed memory image, the fill unit and bias table consume the retired
   stream, and branch predictors train.
2. **complete** — instructions finishing execution this cycle wake their
   dependents; branches verify their predictions and trigger checkpoint
   repair on a misprediction, promoted-branch fault, or wrong indirect
   target.
3. **schedule** — each of the 16 universal function units issues its oldest
   ready instruction; loads additionally pass the memory scheduler
   (conservative: every older store's address must be known; perfect:
   oracle dependences only) with store-queue forwarding.
4. **dispatch** — up to 16 instructions rename, allocate reservation-station
   slots, *functionally execute* against the speculative state (so
   wrong-path instructions run real semantics), and take checkpoints at
   fetch-block boundaries (up to 3/cycle).
5. **fetch** — the front end supplies the next trace segment or icache
   block along the predicted path, stalling for traps, full windows,
   icache misses, unknown indirect targets, or recovery bubbles.

Inactive issue: when a trace line partially matches the prediction, its
remainder is dispatched *dormant* — occupying window slots but not
executing.  If the diverging branch resolves against its prediction the
dormant instructions activate immediately (zero refetch penalty); otherwise
they squash.

The cycle loop is event-driven rather than scan-driven:

* Completions live in a wheel (dict keyed by absolute finish cycle) with a
  min-heap of pending bucket cycles alongside, so the machine always knows
  when the next instruction finishes without scanning the window.
* Readiness is tracked by a single counter (``ready_total``) maintained at
  wake-up/issue/squash, so quiescent cycles skip the scheduler entirely,
  and the conservative memory scheduler keeps a lazily-cleaned min-heap of
  stores with unknown addresses instead of rescanning the store queue per
  blocked load.
* When a cycle ends with nothing ready, nothing dispatchable, and the
  fetch stage blocked on a stable stall regime (trap, misfetch, recovery
  bubble, icache miss, full window), the machine jumps straight to the
  cycle before the next completion event and charges the whole quiescent
  stretch to the stall's cycle-accounting category in one batch — the
  result is identical to stepping those cycles one at a time.
* Dependence metadata is pre-resolved per instruction: dispatch wires
  source operands once via the instruction's cached ``_srcs`` tuple and an
  inlined interpreter (no per-instruction call into the shared executor),
  and the checkpoint-boundary test is cached on the record at fetch.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig
from repro.core.inflight import (
    Checkpoint, FetchGroup, InFlight,
    S_DORMANT, S_WAITING, S_READY, S_MEM_BLOCKED, S_EXECUTING, S_DONE, S_SQUASHED,
)
from repro.frontend.build import build_engine
from repro.frontend.fetch import FetchResult
from repro.frontend.stats import CycleCategory
from repro.gcpause import gc_paused
from repro.isa.executor import STACK_BASE
from repro.isa.instruction import NUM_REGS, REG_LINK, REG_SP
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program

#: Extra recovery cycles charged when a promoted branch faults: the machine
#: backs up to the previous checkpoint rather than the branch itself.
FAULT_EXTRA_PENALTY = 2

#: Pipeline bubble between a recovery and the first redirected fetch.
REDIRECT_BUBBLE = 1

_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64

# Opcode members as module globals: the dispatch-stage interpreter below is
# a frequency-ordered identity chain over these (same ordering rationale as
# the shared executor's step_instruction).
_ADDI = Opcode.ADDI; _ADD = Opcode.ADD; _LD = Opcode.LD; _ST = Opcode.ST
_BNE = Opcode.BNE; _BEQ = Opcode.BEQ; _BLT = Opcode.BLT; _BGE = Opcode.BGE
_SUB = Opcode.SUB; _AND = Opcode.AND; _OR = Opcode.OR; _XOR = Opcode.XOR
_SHL = Opcode.SHL; _SHR = Opcode.SHR; _SLT = Opcode.SLT; _MUL = Opcode.MUL
_ANDI = Opcode.ANDI; _ORI = Opcode.ORI; _XORI = Opcode.XORI
_SLTI = Opcode.SLTI; _LUI = Opcode.LUI; _JMP = Opcode.JMP
_CALL = Opcode.CALL; _RET = Opcode.RET; _JR = Opcode.JR
_NOP = Opcode.NOP; _TRAP = Opcode.TRAP; _HALT = Opcode.HALT

# Quiescent-stretch stall regimes (priority order of the fetch stage).
_R_TRAP = 0
_R_MISFETCH = 1
_R_BUBBLE = 2
_R_ICACHE = 3
_R_FULL_WINDOW = 4


@dataclass
class MachineResult:
    """End-to-end statistics of one machine run."""

    benchmark: str
    config: MachineConfig
    cycles: int = 0
    retired: int = 0
    fetches: int = 0
    cycle_accounting: Counter = field(default_factory=Counter)
    # branches (retired, correct-path only)
    cond_branches: int = 0
    promoted_branches: int = 0
    cond_mispredicts: int = 0
    promoted_faults: int = 0
    indirect_jumps: int = 0
    indirect_mispredicts: int = 0
    # resolution times of mispredicted branches (fetch -> redirect)
    resolution_time_sum: int = 0
    resolution_count: int = 0
    # memory behaviour
    load_forwards: int = 0
    dcache_accesses: int = 0
    # inactive issue
    inactive_issued: int = 0       # instructions issued dormant
    dormant_activations: int = 0   # dormant instructions activated by recovery
    # structures
    tc_hits: int = 0
    tc_misses: int = 0
    l1i_misses: int = 0
    promotions: int = 0
    demotions: int = 0
    fill_reasons: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def total_mispredicted_branches(self) -> int:
        return self.cond_mispredicts + self.promoted_faults + self.indirect_mispredicts

    @property
    def avg_resolution_time(self) -> float:
        if not self.resolution_count:
            return 0.0
        return self.resolution_time_sum / self.resolution_count

    @property
    def mispredict_lost_cycles(self) -> int:
        return self.cycle_accounting[CycleCategory.BRANCH_MISSES]


class Machine:
    """One configured machine bound to one program."""

    def __init__(self, program: Program, config: MachineConfig,
                 max_instructions: Optional[int] = 100_000, engine=None):
        self.program = program
        self.config = config
        self.max_instructions = max_instructions
        if engine is None:
            engine = build_engine(program, config.frontend, memory_config=config.memory)
        else:
            # A functionally warmed engine: predictors, caches and bias
            # table stay trained, but the speculative fetch state must
            # match a machine starting at the program entry.
            engine.restore((0, ()))
        self.engine = engine
        # The core repairs from per-branch checkpoints, so it needs the
        # engine to capture (GHR, RAS) snapshots and prediction records at
        # fetch — engines default to capture off (warmed engines may also
        # arrive with capture disabled by the front-end simulator).
        engine.capture_snapshots = True
        self.fill_unit = getattr(self.engine, "fill_unit", None)
        core = config.core

        # Speculative architectural state (dispatch-order functional execution).
        self.spec_regs = [0] * NUM_REGS
        self.spec_regs[REG_SP] = STACK_BASE
        self.memory_image: Dict[int, int] = dict(program.data)
        self.rename: List[Optional[InFlight]] = [None] * NUM_REGS
        self.store_queue: List[InFlight] = []
        self.load_queue: List[InFlight] = []
        # Address-indexed view of the store queue: mem_addr -> stores in
        # dispatch (= sequence) order.  Entries are filtered on read with
        # ``sq_live``/state rather than eagerly removed, with dead tails
        # pruned opportunistically, so load forwarding and memory
        # scheduling probe one bucket instead of scanning the whole queue.
        self.store_map: Dict[int, List[InFlight]] = {}
        # Committed architectural state, maintained at retire.  Only used to
        # reconstruct speculative state when a recovery has no live
        # checkpoint to restore (rare: promoted fault before any boundary).
        self.arch_regs = list(self.spec_regs)
        self.arch_ghr = 0
        self.arch_ras: List[int] = []

        # Window structures.
        self.rob: deque = deque()
        self.rs_count = [0] * core.n_fus
        self.ready_heaps: List[list] = [[] for _ in range(core.n_fus)]
        self.completions: Dict[int, List[InFlight]] = {}
        self.checkpoints: List[Tuple[int, Checkpoint]] = []  # (seq, cp), sorted
        self.blocked_loads: List[InFlight] = []
        # Event bookkeeping: pending completion-bucket cycles (min-heap,
        # one entry per bucket), count of READY-state instructions, and the
        # conservative memory scheduler's heap of (seq, store) records whose
        # addresses the scheduler does not yet consider known.  Both heaps
        # are cleaned lazily: entries are invalidated in place by state
        # changes and dropped when they surface.
        self.comp_cycles: List[int] = []
        self.ready_total = 0
        self.unknown_stores: List[Tuple[int, InFlight]] = []

        # Fetch state.
        self.pc = program.entry
        self.cycle = 0
        self.seq = 0
        self.fetch_id = 0
        self.halted = False
        self.redirect_bubble = 0
        self.icache_stall = 0
        self.pending_fetch: Optional[Tuple[FetchResult, FetchGroup]] = None
        self.dispatch_queue: deque = deque()  # InFlights awaiting dispatch slots
        self.trap_pending: Optional[int] = None     # seq of in-flight trap
        self.misfetch_waiting: Optional[int] = None  # seq of unresolved JR
        self.fault_redirect_delay = 0

        self.result = MachineResult(benchmark=program.name, config=config)
        #: groups fetched without an icache stall, classified useful or
        #: wrong-path at the end of the run
        self._fetch_cycle_groups: List[FetchGroup] = []
        self._mem_waiters: Dict[int, List[InFlight]] = {}  # store seq -> loads
        # Sequence numbers after which the fill unit's pending segment is
        # cut: recoveries re-synchronize filling with fetch alignment, but
        # the cut must land where the *retire* stream reaches the
        # recovered branch, not where the out-of-order resolution happened.
        self._fill_cuts: set = set()

        # Stall-cycle accounting accumulators; folded into the result's
        # Counter once at the end of the run (plain-int increments are much
        # cheaper than enum-keyed Counter updates in the fetch stage, and
        # the quiescent skip adds whole stretches at once).
        self.acc_traps = 0
        self.acc_misfetch = 0
        self.acc_branch_miss = 0
        self.acc_cache_miss = 0
        self.acc_full_window = 0

        # Stable per-run bindings for the hot loops.
        self._n_fus = core.n_fus
        self._rs_per_fu = core.rs_per_fu
        # Reserve three checkpoints for dormant activation: an inactive
        # buffer holds at most three dynamic branches and its checkpoints
        # are created during recovery, outside the dispatch stage's budget.
        self._cp_budget = core.max_checkpoints - 3
        self._cp_per_cycle = core.checkpoints_per_cycle
        self._alu_latency = core.alu_latency
        self._mul_latency = core.mul_latency
        self._perfect_disamb = core.perfect_disambiguation
        self._ghr_mask = self.engine.ghr.mask
        self._fill_retire = self.fill_unit.retire if self.fill_unit is not None else None
        self._data_latency = self.engine.memory.data_latency

        # Structural self-checks on the recovery paths, armed at
        # construction when REPRO_VALIDATE enables any validation mode
        # (zero cost when off — the flag gates every call site).
        from repro import validate
        self._validate_state = validate.invariants_armed()

    # ------------------------------------------------------------------ run

    def run(self) -> MachineResult:
        core = self.config.core
        max_cycles = 200 * (self.max_instructions or 100_000)
        retire_width = core.retire_width
        issue_width = core.issue_width
        with gc_paused():
            while not self.halted and self.cycle < max_cycles:
                self.cycle += 1
                if self.rob:
                    self._retire(retire_width)
                self._complete()
                if self.ready_total:
                    self._schedule()
                if self.dispatch_queue:
                    self._dispatch(issue_width)
                self._fetch()
                if not self.ready_total and not self.halted:
                    self._skip_quiescent(max_cycles)
        result = self._finish()
        self._release_window()
        return result

    def _release_window(self) -> None:
        """Break the reference cycles of the in-flight window at halt.

        A producer lists its consumers in ``dependents``; a younger
        record's ``checkpoint`` holds the rename map, which points back at
        producers; a fetch's last record holds its ``inactive_buffer``.
        Clearing these on the records still in the window lets a dropped
        machine die by refcount alone (``tests/test_gc_hygiene.py``).
        """
        for records in (self.rob, self.dispatch_queue):
            for rec in records:
                rec.dependents = None
                rec.checkpoint = None
                rec.inactive_buffer = None
        self.checkpoints.clear()

    def _skip_quiescent(self, max_cycles: int) -> None:
        """Jump over cycles in which no pipeline stage can make progress.

        Called at the end of a cycle with nothing in READY state.  If the
        next cycle is provably a pure stall — retire blocked, scheduler
        idle, dispatch blocked (or empty), and the fetch stage charging a
        stall category without touching the front end — then every cycle up
        to the next completion event behaves identically, so the machine
        advances straight there and batches the accounting.
        """
        rob = self.rob
        if rob:
            st = rob[0].state
            if st == S_DONE or st == S_SQUASHED:
                return  # retire would make progress (or clean up) next cycle
        queue = self.dispatch_queue
        if queue:
            head = queue[0]
            if self.rs_count[head.seq % self._n_fus] < self._rs_per_fu and not (
                head.is_active and head.cp_need
                and len(self.checkpoints) >= self._cp_budget
            ):
                return  # dispatch would place this instruction next cycle
        # Classify the fetch stall, mirroring the fetch stage's priority
        # order.  A cycle whose fetch would actually touch the front end
        # (trace-cache/icache access, off-image wrong-path probe) is never
        # skipped.
        if self.trap_pending is not None:
            regime = _R_TRAP
        elif self.misfetch_waiting is not None:
            regime = _R_MISFETCH
        elif self.redirect_bubble > 0:
            regime = _R_BUBBLE
        elif self.icache_stall > 0:
            regime = _R_ICACHE
        elif queue:
            regime = _R_FULL_WINDOW
        else:
            return
        cycle = self.cycle
        heap = self.comp_cycles
        while heap and heap[0] <= cycle:  # drop drained buckets
            heapq.heappop(heap)
        horizon = heap[0] - 1 if heap else max_cycles
        if regime == _R_BUBBLE:
            bound = cycle + self.redirect_bubble
            if bound < horizon:
                horizon = bound
        elif regime == _R_ICACHE:
            bound = cycle + self.icache_stall
            if bound < horizon:
                horizon = bound
        if horizon > max_cycles:
            horizon = max_cycles
        skipped = horizon - cycle
        if skipped <= 0:
            return
        self.cycle = horizon
        if regime == _R_TRAP:
            self.acc_traps += skipped
        elif regime == _R_MISFETCH:
            self.acc_misfetch += skipped
        elif regime == _R_BUBBLE:
            self.acc_branch_miss += skipped
            self.redirect_bubble -= skipped
        elif regime == _R_ICACHE:
            self.acc_cache_miss += skipped
            self.icache_stall -= skipped
            if self.icache_stall == 0 and self.pending_fetch is not None:
                result, group = self.pending_fetch
                self.pending_fetch = None
                self._enqueue_fetch(result, group)
        else:
            self.acc_full_window += skipped

    # ---------------------------------------------------------------- retire

    def _retire(self, width: int) -> None:
        retired = 0
        rob = self.rob
        popleft = rob.popleft
        while rob:
            head = rob[0]
            st = head.state
            if st == S_SQUASHED:
                popleft()
                continue
            if st != S_DONE or not head.is_active:
                return
            popleft()
            retired += 1
            self._commit(head)
            if self.halted or retired >= width:
                return

    def _commit(self, rec: InFlight) -> None:
        result = self.result
        result.retired += 1
        rec.group.retired_any = True
        inst = rec.inst
        if rec.dest is not None:
            self.arch_regs[rec.dest] = rec.value
        fill_retire = self._fill_retire
        if fill_retire is not None:
            fill_retire(inst, rec.taken)
            if rec.seq in self._fill_cuts:
                self._fill_cuts.discard(rec.seq)
                self.fill_unit.note_recovery()
        code = inst.op.commit_code
        if code:
            if code == 1:  # store
                self.memory_image[rec.mem_addr] = rec.value
                rec.sq_live = False
                if self.store_queue and self.store_queue[0] is rec:
                    self.store_queue.pop(0)
                else:  # pragma: no cover - defensive
                    self.store_queue.remove(rec)
            elif code == 2:  # load
                if self.load_queue and self.load_queue[0] is rec:
                    self.load_queue.pop(0)
                elif rec in self.load_queue:
                    self.load_queue.remove(rec)
            elif code == 3:  # conditional branch
                self.arch_ghr = ((self.arch_ghr << 1) | int(rec.taken)) & self._ghr_mask
                if rec.promoted:
                    result.promoted_branches += 1
                else:
                    result.cond_branches += 1
                    if rec.pred_record is not None:
                        self.engine.train_branch(
                            rec.pred_record, rec.taken, tuple(rec.group.actual_path)
                        )
                        rec.group.actual_path.append(rec.taken)
            elif code == 4:  # call
                self.arch_ras.append(inst.fall_through)
            elif code == 5:  # return
                if self.arch_ras:
                    self.arch_ras.pop()
            elif code == 6:  # indirect
                result.indirect_jumps += 1
                self.engine.indirect.update(inst.addr, rec.next_pc)
            elif code == 7:  # trap
                if self.trap_pending == rec.seq:
                    self.trap_pending = None
            elif code == 8:  # halt
                self.halted = True
        if rec.checkpoint is not None:
            self._drop_checkpoint(rec)
        if self.max_instructions is not None and result.retired >= self.max_instructions:
            self.halted = True

    def _drop_checkpoint(self, rec: InFlight) -> None:
        if rec.checkpoint is not None:
            for i, (seq, _cp) in enumerate(self.checkpoints):
                if seq == rec.seq:
                    del self.checkpoints[i]
                    break
            rec.checkpoint = None
            if self._validate_state:
                self.validate_state()

    # -------------------------------------------------------------- complete

    def _complete(self) -> None:
        done = self.completions.pop(self.cycle, None)
        if not done:
            return
        heappush = heapq.heappush
        ready_heaps = self.ready_heaps
        for rec in done:
            if rec.state == S_SQUASHED:
                continue
            rec.state = S_DONE
            deps = rec.dependents
            if deps:
                for dep in deps:
                    if dep.state == S_WAITING:
                        remaining = dep.pending_srcs - 1
                        dep.pending_srcs = remaining
                        if remaining <= 0:
                            dep.state = S_READY
                            self.ready_total += 1
                            heappush(ready_heaps[dep.fu], (dep.seq, dep))
                rec.dependents = None
            code = rec.inst.op.commit_code
            if code == 1:  # store
                rec.addr_known = True
                self._wake_store_waiters(rec)
            elif code == 3:  # conditional branch
                self._resolve_branch(rec)
            elif code == 5 or code == 6:  # return / indirect
                self._resolve_indirect(rec)
            if self.misfetch_waiting == rec.seq:
                self.misfetch_waiting = None
                self.pc = rec.next_pc

    def _wake_store_waiters(self, store: InFlight) -> None:
        waiters = self._mem_waiters.pop(store.seq, None)
        if waiters:
            for load in waiters:
                if load.state == S_MEM_BLOCKED:
                    self._make_ready(load)
        if self.blocked_loads:
            oldest_unknown = self._oldest_unknown_store_seq()
            still_blocked = []
            for load in self.blocked_loads:
                if load.state != S_MEM_BLOCKED:
                    continue
                if oldest_unknown is None or oldest_unknown >= load.seq:
                    self._make_ready(load)
                else:
                    still_blocked.append(load)
            self.blocked_loads = still_blocked

    def _make_ready(self, rec: InFlight) -> None:
        rec.state = S_READY
        self.ready_total += 1
        heapq.heappush(self.ready_heaps[rec.fu], (rec.seq, rec))

    # --------------------------------------------------------- branch repair

    def _resolve_branch(self, rec: InFlight) -> None:
        actual = rec.taken
        if rec.promoted:
            predicted = rec.static_dir
        else:
            predicted = rec.predicted_taken
        if predicted == actual:
            if rec.inactive_buffer:
                for dormant in rec.inactive_buffer:
                    self._squash_one(dormant)
                rec.inactive_buffer = None
            return
        # Mispredicted.  Track stats, then repair.
        self.result.resolution_time_sum += self.cycle + REDIRECT_BUBBLE - rec.group.cycle
        self.result.resolution_count += 1
        if rec.promoted:
            self.result.promoted_faults += 1
            self._recover_fault(rec)
        else:
            self.result.cond_mispredicts += 1
            self._recover_mispredict(rec)

    def _recover_mispredict(self, branch: InFlight) -> None:
        """Checkpoint repair at the branch's own checkpoint."""
        cp = branch.checkpoint
        assert cp is not None, "dynamic branch without checkpoint"
        self._restore(cp)
        self.engine.ghr.push(branch.taken)
        buffer = branch.inactive_buffer
        branch.inactive_buffer = None
        activate = bool(buffer) and buffer[0].inst.addr == branch.next_pc
        exempt = frozenset(rec.seq for rec in buffer) if activate else frozenset()
        self._squash_younger(branch.seq, exempt=exempt)
        self._fill_cuts.add(branch.seq)
        # The checkpoint stays live until the branch retires; a later fault
        # rolling back to it must resume along the now-known-correct path.
        cp.resume_pc = branch.next_pc
        if activate:
            redirect = self._activate_dormant(buffer)
        else:
            redirect = branch.next_pc
        self.pc = redirect
        self.redirect_bubble = REDIRECT_BUBBLE
        self._clear_fetch_state()

    def _recover_fault(self, branch: InFlight) -> None:
        """Promoted-branch fault: back up to the *previous* checkpoint.

        The machine restores the nearest older checkpoint, squashes
        everything younger than it (including correct-path work in the
        faulting atomic unit), and refetches from the checkpoint's resume
        point with a one-shot direction override installed so the branch
        executes correctly this time.
        """
        cp_entry = None
        for seq, cp in reversed(self.checkpoints):
            if seq < branch.seq:
                cp_entry = (seq, cp)
                break
        if branch.inactive_buffer:
            for dormant in branch.inactive_buffer:
                self._squash_one(dormant)
            branch.inactive_buffer = None
        add_fault_override = getattr(self.engine, "add_fault_override", None)
        if add_fault_override is not None:
            add_fault_override(branch.inst.addr, branch.taken)
        if cp_entry is None:
            # No older checkpoint alive (fault very early in a fetch
            # burst): fall back to branch-local recovery.
            self._restore_at_branch(branch)
            self.pc = branch.next_pc
        else:
            seq, cp = cp_entry
            owner = self._find_in_rob(seq)
            self._fill_cuts.add(seq)
            self._restore(cp)
            if owner is not None and owner.inst.op.is_cond_branch:
                if owner.state == S_DONE:
                    self.engine.ghr.push(owner.taken)
                else:
                    self.engine.ghr.push(
                        owner.static_dir if owner.promoted else owner.predicted_taken
                    )
            self._squash_younger(seq)
            self.pc = cp.resume_pc if cp.resume_pc is not None else branch.next_pc
        self.redirect_bubble = REDIRECT_BUBBLE + FAULT_EXTRA_PENALTY
        self._clear_fetch_state()

    def _restore_at_branch(self, branch: InFlight) -> None:
        """Recovery at a branch without its own checkpoint.

        Reconstructs speculative state by replaying the window on top of
        the committed architectural state: registers and rename from every
        live instruction up to the branch, global history and return
        address stack from the in-flight control instructions.
        """
        regs = list(self.arch_regs)
        rename: List[Optional[InFlight]] = [None] * NUM_REGS
        ghr = self.arch_ghr
        ras = list(self.arch_ras)
        for rec in self.rob:
            if rec.seq > branch.seq or rec.state == S_SQUASHED or not rec.is_active:
                continue
            if rec.dest is not None:
                regs[rec.dest] = rec.value
                rename[rec.dest] = rec
            op = rec.inst.op
            if op.is_cond_branch:
                fetched_dir = rec.static_dir if rec.promoted else rec.predicted_taken
                if rec.seq == branch.seq:
                    fetched_dir = rec.taken  # the repair pushes the actual outcome
                ghr = ((ghr << 1) | int(bool(fetched_dir))) & self._ghr_mask
            elif op.opclass is OpClass.CALL:
                ras.append(rec.inst.fall_through)
            elif op.opclass is OpClass.RETURN and ras:
                ras.pop()
        self.spec_regs = regs
        self.rename = rename
        self.engine.ghr.restore(ghr)
        self.engine.ras.restore(tuple(ras))
        self._truncate_mem_queues(branch.seq)
        self._rescan_mem_blocked()
        self._squash_younger(branch.seq)

    def _resolve_indirect(self, rec: InFlight) -> None:
        """JR / RET target verification."""
        if rec.predicted_next is None:
            # Misfetch: fetch has been stalled on this jump; _complete
            # redirects via misfetch_waiting.
            return
        if rec.predicted_next == rec.next_pc:
            return
        self.result.indirect_mispredicts += 1
        self.result.resolution_time_sum += self.cycle + REDIRECT_BUBBLE - rec.group.cycle
        self.result.resolution_count += 1
        cp = rec.checkpoint
        self._fill_cuts.add(rec.seq)
        if cp is not None:
            self._restore(cp)
            self._squash_younger(rec.seq)
            cp.resume_pc = rec.next_pc
        else:  # pragma: no cover - indirect fetch-enders always checkpoint
            self._restore_at_branch(rec)
        self.pc = rec.next_pc
        self.redirect_bubble = REDIRECT_BUBBLE
        self._clear_fetch_state()

    def _restore(self, cp: Checkpoint) -> None:
        self.spec_regs = list(cp.regs)
        self.rename = list(cp.rename)
        self.engine.ghr.restore(cp.ghr_before)
        self.engine.ras.restore(cp.ras_state)
        self._truncate_mem_queues(cp.seq)
        self._rescan_mem_blocked()
        if self._validate_state:
            self.validate_state()

    def validate_state(self) -> None:
        """Check the core's structural invariants (validation mode only).

        Called after every checkpoint restore and drop; each check names
        a contract the recovery machinery must maintain:

        * the checkpoint stack is strictly ordered by sequence number
          (restores binary-search and pop it by seq);
        * the store queue is in dispatch (sequence) order and every
          member is flagged ``sq_live`` (commit and truncation clear the
          flag exactly when they remove the entry);
        * every live store reachable through the address-indexed
          ``store_map`` is present in the store queue — a map entry
          outliving its queue entry would forward dead data to loads.
        """
        from repro.validate.errors import InvariantError
        checkpoints = self.checkpoints
        for i in range(1, len(checkpoints)):
            if checkpoints[i - 1][0] >= checkpoints[i][0]:
                raise InvariantError(
                    "checkpoint stack out of order: "
                    f"{[seq for seq, _ in checkpoints]}")
        queue_ids = set()
        prev_seq = -1
        for store in self.store_queue:
            if store.seq <= prev_seq:
                raise InvariantError(
                    "store queue out of dispatch order at "
                    f"seq {store.seq} (after {prev_seq})")
            prev_seq = store.seq
            if not store.sq_live:
                raise InvariantError(
                    f"store seq {store.seq} is in the store queue but "
                    "not flagged sq_live")
            queue_ids.add(id(store))
        for addr, bucket in self.store_map.items():
            for store in bucket:
                if store.sq_live and store.state != S_SQUASHED \
                        and id(store) not in queue_ids:
                    raise InvariantError(
                        f"live store seq {store.seq} (addr {addr:#x}) is "
                        "in store_map but missing from the store queue")

    def _truncate_mem_queues(self, seq: int) -> None:
        """Drop store/load-queue entries younger than ``seq``.

        Truncation is by sequence number, not by remembered length: older
        entries may have retired from the queue front since the checkpoint
        was taken.  Both queues are in dispatch (= sequence) order, so the
        younger entries are popped off their tails.
        """
        store_queue = self.store_queue
        while store_queue and store_queue[-1].seq > seq:
            store = store_queue.pop()
            store.addr_known = True  # squashed; stop blocking loads
            store.sq_live = False
        load_queue = self.load_queue
        while load_queue and load_queue[-1].seq > seq:
            load_queue.pop()

    def _rescan_mem_blocked(self) -> None:
        """Re-evaluate every memory-blocked load after a recovery.

        The store a load was waiting on may have been squashed; waking the
        loads and letting the scheduler re-run its checks is always safe.
        """
        waiting = list(self.blocked_loads)
        for loads in self._mem_waiters.values():
            waiting.extend(loads)
        self.blocked_loads = []
        self._mem_waiters = {}
        for load in waiting:
            if load.state == S_MEM_BLOCKED:
                self._make_ready(load)

    def _squash_younger(self, seq: int, exempt: frozenset = frozenset()) -> None:
        """Kill everything younger than ``seq`` except exempted sequence
        numbers (an inactive buffer about to be activated).

        The ROB is ordered by sequence number, so the squashed records are
        popped off its young end: retire and later recoveries never see
        them again.  Live exempted records are put back in order (squashed
        ones are re-appended by :meth:`_activate_dormant`).  The common
        case of :meth:`_squash_one` is inlined — every record popped here
        is dispatched, so it holds a reservation-station slot iff its
        state is below EXECUTING.
        """
        rob = self.rob
        pop = rob.pop
        rs_count = self.rs_count
        squash_one = self._squash_one
        kept = []
        ready_lost = 0
        while rob:
            rec = rob[-1]
            if rec.seq <= seq:
                break
            pop()
            previous = rec.state
            if previous == S_SQUASHED:
                continue
            if exempt and rec.seq in exempt:
                kept.append(rec)
                continue
            if rec.inactive_buffer:
                squash_one(rec)
                continue
            rec.state = S_SQUASHED
            rec.dependents = None
            rec.checkpoint = None
            if previous < S_EXECUTING:
                rs_count[rec.fu] -= 1
                if previous == S_READY:
                    ready_lost += 1
        self.ready_total -= ready_lost
        if kept:
            kept.reverse()
            rob.extend(kept)
        # Anything still waiting to dispatch is on the wrong path too;
        # exempted records leave the queue and are force-dispatched by
        # dormant activation.
        for rec in self.dispatch_queue:
            if rec.seq not in exempt and rec.state != S_SQUASHED:
                squash_one(rec)
        self.dispatch_queue.clear()
        checkpoints = self.checkpoints
        while checkpoints and checkpoints[-1][0] > seq:
            checkpoints.pop()
        if self.trap_pending is not None and self.trap_pending > seq:
            self.trap_pending = None
        if self.misfetch_waiting is not None and self.misfetch_waiting > seq:
            self.misfetch_waiting = None

    def _squash_one(self, rec: InFlight) -> None:
        previous = rec.state
        rec.state = S_SQUASHED
        rec.dependents = None
        rec.checkpoint = None
        if rec.inactive_buffer:
            for dormant in rec.inactive_buffer:
                if dormant.state != S_SQUASHED:
                    self._squash_one(dormant)
            rec.inactive_buffer = None
        if previous == S_READY:
            self.ready_total -= 1
        # States below EXECUTING still hold a reservation-station slot.
        if previous < S_EXECUTING and rec.dispatch_cycle >= 0:
            self.rs_count[rec.fu] -= 1

    def _find_in_rob(self, seq: int) -> Optional[InFlight]:
        for rec in reversed(self.rob):
            if rec.seq == seq:
                return rec
            if rec.seq < seq:
                return None
        return None

    def _clear_fetch_state(self) -> None:
        self.pending_fetch = None
        self.icache_stall = 0

    def _activate_dormant(self, buffer: List[InFlight]) -> int:
        """Wake inactively issued instructions after their branch
        mispredicted in their favour; returns the fetch resume address."""
        resume = buffer[-1].inst.addr + 1
        n_fus = self._n_fus
        for rec in buffer:
            if rec.state == S_SQUASHED and rec.dispatch_cycle >= 0:
                # An *older* recovery (e.g. a promoted-branch fault rolling
                # back to this branch's checkpoint) squashed the buffer
                # while its branch was still unresolved, and popped it off
                # the ROB.  Everything younger than the branch is gone
                # now, so the entry goes back at the young end, in order.
                self.rs_count[rec.seq % n_fus] += 1
                self.rob.append(rec)
            if rec.dispatch_cycle < 0:
                # Still in (or squashed out of) the dispatch queue: give it
                # its window slot now — it issues as part of the recovery.
                rec.fu = rec.seq % n_fus
                self.rs_count[rec.fu] += 1
                self.rob.append(rec)
                rec.dispatch_cycle = self.cycle
            rec.is_active = True
            self._wire_and_execute(rec)
            self.result.dormant_activations += 1
            resume = rec.next_pc
            inst = rec.inst
            if inst.op.is_cond_branch:
                # The embedded trace direction serves as the prediction
                # (these branches were never dynamically predicted).
                # Promoted branches do not get checkpoints, matching the
                # dispatch policy.
                if not rec.promoted:
                    rec.predicted_taken = rec.static_dir
                    self._checkpoint_for(rec)
                self.engine.ghr.push(rec.static_dir)
            elif inst.op is Opcode.CALL:
                self.engine.ras.push(inst.fall_through)
        return resume

    # -------------------------------------------------------------- schedule

    def _schedule(self) -> None:
        heappop = heapq.heappop
        heappush = heapq.heappush
        rs_count = self.rs_count
        completions = self.completions
        comp_cycles = self.comp_cycles
        cycle = self.cycle
        alu_latency = self._alu_latency
        mul_latency = self._mul_latency
        ready_total = self.ready_total
        for fu, heap in enumerate(self.ready_heaps):
            if not heap:
                continue
            while heap:
                rec = heap[0][1]
                if rec.state != S_READY:
                    heappop(heap)  # squashed or stale entry
                    continue
                code = rec.inst.op.commit_code
                if code == 2:  # load
                    verdict = self._try_schedule_load(rec)
                    if verdict is None:
                        # Blocked; parked with the memory scheduler.
                        heappop(heap)
                        ready_total -= 1
                        continue
                    latency = verdict
                elif code == 9:  # MUL
                    latency = mul_latency
                else:
                    latency = alu_latency
                heappop(heap)
                rec.state = S_EXECUTING
                rs_count[fu] -= 1
                ready_total -= 1
                finish = cycle + latency
                bucket = completions.get(finish)
                if bucket is None:
                    completions[finish] = [rec]
                    heappush(comp_cycles, finish)
                else:
                    bucket.append(rec)
                break
            if not ready_total:
                break
        self.ready_total = ready_total

    def _oldest_unknown_store_seq(self) -> Optional[int]:
        """Sequence number of the oldest store whose address the memory
        scheduler does not yet consider known, cleaning stale heap entries
        (completed, squashed or truncated stores) on the way."""
        heap = self.unknown_stores
        while heap:
            store = heap[0][1]
            state = store.state
            if store.addr_known or state == S_DONE or state == S_SQUASHED:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def _youngest_older_matching_store(self, load: InFlight) -> Optional[InFlight]:
        bucket = self.store_map.get(load.mem_addr)
        if not bucket:
            return None
        # Prune departed (committed/squashed) stores off the tail while
        # they are youngest; interior dead entries are skipped below and
        # become prunable once everything younger has departed too.
        while bucket:
            store = bucket[-1]
            if store.sq_live and store.state != S_SQUASHED:
                break
            bucket.pop()
        seq = load.seq
        for store in reversed(bucket):
            if store.seq < seq and store.sq_live and store.state != S_SQUASHED:
                return store
        return None

    def _try_schedule_load(self, load: InFlight) -> Optional[int]:
        """Memory scheduling for a load; returns latency or None if blocked."""
        if not self._perfect_disamb:
            oldest_unknown = self._oldest_unknown_store_seq()
            if oldest_unknown is not None and oldest_unknown < load.seq:
                load.state = S_MEM_BLOCKED
                self.blocked_loads.append(load)
                return None
        match = self._youngest_older_matching_store(load)
        if match is not None:
            if match.state != S_DONE:
                load.state = S_MEM_BLOCKED
                self._mem_waiters.setdefault(match.seq, []).append(load)
                return None
            self.result.load_forwards += 1
            return 1
        self.result.dcache_accesses += 1
        return self._data_latency(load.mem_addr)

    # -------------------------------------------------------------- dispatch

    def _dispatch(self, width: int) -> None:
        """Rename, functionally execute, and window up to ``width``
        instructions.

        The wiring and instruction semantics of :meth:`_wire_and_execute`
        are inlined into the loop body: this code runs once per fetched
        instruction (wrong path included) and no recovery can interleave
        with the dispatch stage, so the speculative-state bindings hoisted
        above the loop are stable for the whole call.
        """
        dispatched = 0
        checkpoints_this_cycle = 0
        queue = self.dispatch_queue
        n_fus = self._n_fus
        rs_per_fu = self._rs_per_fu
        cp_budget = self._cp_budget
        cp_per_cycle = self._cp_per_cycle
        rs_count = self.rs_count
        rob_append = self.rob.append
        cycle = self.cycle
        regs = self.spec_regs
        rename = self.rename
        store_queue = self.store_queue
        load_queue = self.load_queue
        store_map_get = self.store_map.get
        store_map = self.store_map
        memory_get = self.memory_image.get
        ready_heaps = self.ready_heaps
        unknown_stores = self.unknown_stores
        track_unknown = not self._perfect_disamb
        heappush = heapq.heappush
        ready_total = self.ready_total
        while queue and dispatched < width:
            rec = queue[0]
            fu = rec.seq % n_fus
            if rs_count[fu] >= rs_per_fu:
                break  # window full
            # A checkpoint accompanies every fetch-block boundary: each
            # dynamically predicted branch and the end of each fetch
            # (pre-resolved on the record as ``cp_need``).
            active = rec.is_active
            needs_cp = active and rec.cp_need
            if needs_cp and (
                len(self.checkpoints) >= cp_budget
                or checkpoints_this_cycle > cp_per_cycle
            ):
                break  # out of checkpoint resources; resume next cycle
            queue.popleft()
            rec.fu = fu
            rs_count[fu] += 1
            rob_append(rec)
            rec.dispatch_cycle = cycle
            dispatched += 1
            if not active:
                rec.state = S_DORMANT
                continue

            inst = rec.inst
            pending = 0
            for reg in inst._srcs:
                producer = rename[reg]
                if producer is not None:
                    pstate = producer.state
                    if pstate != S_DONE and pstate != S_SQUASHED:
                        pending += 1
                        pdeps = producer.dependents
                        if pdeps is None:
                            producer.dependents = [rec]
                        else:
                            pdeps.append(rec)
            rec.pending_srcs = pending

            # The opcode chain is ordered by dynamic frequency in the
            # paper workloads (ANDI/ADDI/LD/ADD alone cover ~60% of the
            # dispatch stream), not by opcode-table order.
            op = inst.op
            next_pc = inst.addr + 1
            taken = None
            mem_addr = None
            value = None
            dest = None
            if op is _ANDI:
                value = regs[inst.rs1] & (inst.imm & _MASK)
                dest = inst._dest
            elif op is _ADDI:
                value = (regs[inst.rs1] + inst.imm) & _MASK
                dest = inst._dest
            elif op is _ADD:
                value = (regs[inst.rs1] + regs[inst.rs2]) & _MASK
                dest = inst._dest
            elif op is _LD:
                mem_addr = (regs[inst.rs1] + inst.imm) & _MASK
                # Youngest live store to the address forwards its data
                # (committed stores fall through to the memory image,
                # which their commit already updated — same value the
                # full-queue scan used to find).
                bucket = store_map_get(mem_addr)
                if bucket:
                    while bucket:
                        store = bucket[-1]
                        if store.sq_live and store.state != S_SQUASHED:
                            value = store.value & _MASK
                            break
                        bucket.pop()
                if value is None:
                    value = memory_get(mem_addr, 0) & _MASK
                dest = inst._dest
            elif op is _BNE:
                taken = regs[inst.rs1] != regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is _BEQ:
                taken = regs[inst.rs1] == regs[inst.rs2]
                if taken:
                    next_pc = inst.target
            elif op is _ST:
                mem_addr = (regs[inst.rs1] + inst.imm) & _MASK
                value = regs[inst.rs2] & _MASK
            elif op is _MUL:
                value = (regs[inst.rs1] * regs[inst.rs2]) & _MASK
                dest = inst._dest
            elif op is _AND:
                value = regs[inst.rs1] & regs[inst.rs2]
                dest = inst._dest
            elif op is _XOR:
                value = regs[inst.rs1] ^ regs[inst.rs2]
                dest = inst._dest
            elif op is _SUB:
                value = (regs[inst.rs1] - regs[inst.rs2]) & _MASK
                dest = inst._dest
            elif op is _SLTI:
                a = regs[inst.rs1]
                value = 1 if (a - _TWO64 if a & _SIGN_BIT else a) < inst.imm else 0
                dest = inst._dest
            elif op is _OR:
                value = regs[inst.rs1] | regs[inst.rs2]
                dest = inst._dest
            elif op is _BLT:
                a = regs[inst.rs1]
                b = regs[inst.rs2]
                taken = (a - _TWO64 if a & _SIGN_BIT else a) \
                    < (b - _TWO64 if b & _SIGN_BIT else b)
                if taken:
                    next_pc = inst.target
            elif op is _BGE:
                a = regs[inst.rs1]
                b = regs[inst.rs2]
                taken = (a - _TWO64 if a & _SIGN_BIT else a) \
                    >= (b - _TWO64 if b & _SIGN_BIT else b)
                if taken:
                    next_pc = inst.target
            elif op is _SHL:
                value = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & _MASK
                dest = inst._dest
            elif op is _SHR:
                value = (regs[inst.rs1] & _MASK) >> (regs[inst.rs2] & 63)
                dest = inst._dest
            elif op is _SLT:
                a = regs[inst.rs1]
                b = regs[inst.rs2]
                value = 1 if (a - _TWO64 if a & _SIGN_BIT else a) \
                    < (b - _TWO64 if b & _SIGN_BIT else b) else 0
                dest = inst._dest
            elif op is _ORI:
                value = regs[inst.rs1] | (inst.imm & _MASK)
                dest = inst._dest
            elif op is _XORI:
                value = regs[inst.rs1] ^ (inst.imm & _MASK)
                dest = inst._dest
            elif op is _LUI:
                value = (inst.imm << 16) & _MASK
                dest = inst._dest
            elif op is _JMP:
                next_pc = inst.target
            elif op is _CALL:
                value = next_pc
                dest = REG_LINK
                next_pc = inst.target
            elif op is _RET:
                next_pc = regs[REG_LINK] & _MASK
            elif op is _JR:
                next_pc = regs[inst.rs1] & _MASK
            elif op is _NOP or op is _TRAP:
                pass
            elif op is _HALT:
                next_pc = inst.addr
            else:  # pragma: no cover - exhaustive over the opcode set
                raise NotImplementedError(op)

            rec.next_pc = next_pc
            rec.taken = taken
            rec.mem_addr = mem_addr
            rec.value = value
            rec.dest = dest
            if dest is not None:
                regs[dest] = value
                rename[dest] = rec
            if op is _ST:
                store_queue.append(rec)
                rec.sq_live = True
                rec.addr_known = False
                bucket = store_map_get(mem_addr)
                if bucket is None:
                    store_map[mem_addr] = [rec]
                else:
                    bucket.append(rec)
                if track_unknown:
                    heappush(unknown_stores, (rec.seq, rec))
            elif op is _LD:
                load_queue.append(rec)
            if pending == 0:
                rec.state = S_READY
                ready_total += 1
                heappush(ready_heaps[fu], (rec.seq, rec))
            else:
                rec.state = S_WAITING

            if needs_cp:
                self._checkpoint_for(rec)
                checkpoints_this_cycle += 1
        self.ready_total = ready_total

    def _wire_and_execute(self, rec: InFlight) -> None:
        """Rename, functionally execute, and queue one instruction.

        The instruction semantics are inlined (same frequency-ordered
        chain as the shared executor's ``step_instruction``) because this
        runs once per dispatched instruction — wrong path included — and
        the call/ExecResult overhead dominated dispatch in profiles.
        Source wiring uses the instruction's precomputed ``_srcs``/``_dest``
        so no dataflow is re-derived here.
        """
        inst = rec.inst
        rename = self.rename
        pending = 0
        for reg in inst._srcs:
            producer = rename[reg]
            if producer is not None:
                pstate = producer.state
                if pstate != S_DONE and pstate != S_SQUASHED:
                    pending += 1
                    pdeps = producer.dependents
                    if pdeps is None:
                        producer.dependents = [rec]
                    else:
                        pdeps.append(rec)
        rec.pending_srcs = pending

        regs = self.spec_regs
        op = inst.op
        next_pc = inst.addr + 1
        taken = None
        mem_addr = None
        value = None
        dest = None
        if op is _ANDI:
            value = regs[inst.rs1] & (inst.imm & _MASK)
            dest = inst._dest
        elif op is _ADDI:
            value = (regs[inst.rs1] + inst.imm) & _MASK
            dest = inst._dest
        elif op is _ADD:
            value = (regs[inst.rs1] + regs[inst.rs2]) & _MASK
            dest = inst._dest
        elif op is _LD:
            mem_addr = (regs[inst.rs1] + inst.imm) & _MASK
            # Speculative read: youngest live store to the address
            # forwards its data, otherwise the dispatch-order memory image.
            bucket = self.store_map.get(mem_addr)
            if bucket:
                while bucket:
                    store = bucket[-1]
                    if store.sq_live and store.state != S_SQUASHED:
                        value = store.value & _MASK
                        break
                    bucket.pop()
            if value is None:
                value = self.memory_image.get(mem_addr, 0) & _MASK
            dest = inst._dest
        elif op is _BNE:
            taken = regs[inst.rs1] != regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is _BEQ:
            taken = regs[inst.rs1] == regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is _ST:
            mem_addr = (regs[inst.rs1] + inst.imm) & _MASK
            value = regs[inst.rs2] & _MASK
        elif op is _MUL:
            value = (regs[inst.rs1] * regs[inst.rs2]) & _MASK
            dest = inst._dest
        elif op is _AND:
            value = regs[inst.rs1] & regs[inst.rs2]
            dest = inst._dest
        elif op is _XOR:
            value = regs[inst.rs1] ^ regs[inst.rs2]
            dest = inst._dest
        elif op is _SUB:
            value = (regs[inst.rs1] - regs[inst.rs2]) & _MASK
            dest = inst._dest
        elif op is _SLTI:
            a = regs[inst.rs1]
            value = 1 if (a - _TWO64 if a & _SIGN_BIT else a) < inst.imm else 0
            dest = inst._dest
        elif op is _OR:
            value = regs[inst.rs1] | regs[inst.rs2]
            dest = inst._dest
        elif op is _BLT:
            a = regs[inst.rs1]
            b = regs[inst.rs2]
            taken = (a - _TWO64 if a & _SIGN_BIT else a) \
                < (b - _TWO64 if b & _SIGN_BIT else b)
            if taken:
                next_pc = inst.target
        elif op is _BGE:
            a = regs[inst.rs1]
            b = regs[inst.rs2]
            taken = (a - _TWO64 if a & _SIGN_BIT else a) \
                >= (b - _TWO64 if b & _SIGN_BIT else b)
            if taken:
                next_pc = inst.target
        elif op is _SHL:
            value = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & _MASK
            dest = inst._dest
        elif op is _SHR:
            value = (regs[inst.rs1] & _MASK) >> (regs[inst.rs2] & 63)
            dest = inst._dest
        elif op is _SLT:
            a = regs[inst.rs1]
            b = regs[inst.rs2]
            value = 1 if (a - _TWO64 if a & _SIGN_BIT else a) \
                < (b - _TWO64 if b & _SIGN_BIT else b) else 0
            dest = inst._dest
        elif op is _ORI:
            value = regs[inst.rs1] | (inst.imm & _MASK)
            dest = inst._dest
        elif op is _XORI:
            value = regs[inst.rs1] ^ (inst.imm & _MASK)
            dest = inst._dest
        elif op is _LUI:
            value = (inst.imm << 16) & _MASK
            dest = inst._dest
        elif op is _JMP:
            next_pc = inst.target
        elif op is _CALL:
            value = next_pc
            dest = REG_LINK
            next_pc = inst.target
        elif op is _RET:
            next_pc = regs[REG_LINK] & _MASK
        elif op is _JR:
            next_pc = regs[inst.rs1] & _MASK
        elif op is _NOP or op is _TRAP:
            pass
        elif op is _HALT:
            next_pc = inst.addr
        else:  # pragma: no cover - exhaustive over the opcode set
            raise NotImplementedError(op)

        rec.next_pc = next_pc
        rec.taken = taken
        rec.mem_addr = mem_addr
        rec.value = value
        rec.dest = dest
        if dest is not None:
            regs[dest] = value
            rename[dest] = rec
        if op is _ST:
            self.store_queue.append(rec)
            rec.sq_live = True
            rec.addr_known = False
            bucket = self.store_map.get(mem_addr)
            if bucket is None:
                self.store_map[mem_addr] = [rec]
            else:
                bucket.append(rec)
            if not self._perfect_disamb:
                heapq.heappush(self.unknown_stores, (rec.seq, rec))
        elif op is _LD:
            self.load_queue.append(rec)
        if pending == 0:
            rec.state = S_READY
            self.ready_total += 1
            heapq.heappush(self.ready_heaps[rec.fu], (rec.seq, rec))
        else:
            rec.state = S_WAITING

    def _checkpoint_for(self, rec: InFlight) -> None:
        if rec.cp_snapshot is not None:
            ghr_before, ras_state = rec.cp_snapshot
        else:
            ghr_before = self.engine.ghr.value
            ras_state = self.engine.ras.snapshot()
        if rec.inst.op.is_cond_branch and rec.predicted_taken is not None:
            resume_pc = rec.inst.target if rec.predicted_taken else rec.inst.fall_through
        elif rec.inst.op.is_cond_branch and rec.static_dir is not None:
            # Promoted branch: its static prediction is the fetched path.
            resume_pc = rec.inst.target if rec.static_dir else rec.inst.fall_through
        elif rec.predicted_next is not None:
            resume_pc = rec.predicted_next
        else:
            resume_pc = rec.inst.fall_through
        cp = Checkpoint(
            regs=list(self.spec_regs),
            rename=list(self.rename),
            ghr_before=ghr_before,
            ras_state=ras_state,
            sq_len=len(self.store_queue),
            lq_len=len(self.load_queue),
            seq=rec.seq,
            resume_pc=resume_pc,
        )
        rec.checkpoint = cp
        self.checkpoints.append((rec.seq, cp))

    # ----------------------------------------------------------------- fetch

    def _fetch(self) -> None:
        if self.halted:
            return
        if self.trap_pending is not None:
            self.acc_traps += 1
            return
        if self.misfetch_waiting is not None:
            self.acc_misfetch += 1
            return
        if self.redirect_bubble > 0:
            self.redirect_bubble -= 1
            self.acc_branch_miss += 1
            return
        if self.icache_stall > 0:
            self.icache_stall -= 1
            self.acc_cache_miss += 1
            if self.icache_stall == 0 and self.pending_fetch is not None:
                result, group = self.pending_fetch
                self.pending_fetch = None
                self._enqueue_fetch(result, group)
            return
        if self.dispatch_queue:
            self.acc_full_window += 1
            return

        result = self.engine.fetch(self.pc)
        if not result.active:
            # Wrong-path fetch ran off the code image; spin until repair.
            self.acc_branch_miss += 1
            return
        self.fetch_id += 1
        group = FetchGroup(self.fetch_id, self.cycle)
        self.result.fetches += 1
        if result.stall_cycles > 0:
            self.icache_stall = result.stall_cycles
            self.pending_fetch = (result, group)
            self.acc_cache_miss += 1
            return
        self._fetch_cycle_groups.append(group)
        self._enqueue_fetch(result, group)

    def _enqueue_fetch(self, result: FetchResult, group: FetchGroup) -> None:
        seq = self.seq
        active = result.active
        records = [InFlight(s, inst, group)
                   for s, inst in enumerate(active, seq + 1)]
        seq += len(active)
        # With capture on (see ``__init__``) the engine records one
        # snapshot per conditional branch in ``active``, in position
        # order, so the snapshot keys are exactly the branch slots.
        # Prediction records attach in order to the dynamic ones.
        snapshots = result.control_snapshots
        if snapshots:
            rec_iter = iter(result.pred_records)
            active_dirs = result.active_dirs
            active_promoted = result.active_promoted
            for idx, snapshot in snapshots.items():
                rec = records[idx]
                # Each arm fills in ALL the branch-metadata slots the
                # constructor leaves unset (reads are branch-gated).
                if active_promoted[idx]:
                    rec.promoted = True
                    rec.static_dir = active_dirs[idx]
                    rec.predicted_taken = None
                else:
                    rec.promoted = False
                    rec.predicted_taken = active_dirs[idx]
                    rec.cp_need = True
                    rec.pred_record = next(rec_iter, None)
                rec.cp_snapshot = snapshot
        # Attach the end-of-fetch bookkeeping to the last instruction: the
        # fetch's predicted successor doubles as the final block boundary's
        # checkpoint resume point, and for indirect jumps/returns it is the
        # target to verify at execute.
        last = records[-1]
        if result.next_pc is not None:
            last.predicted_next = result.next_pc
            last.cp_need = True
        dormant: List[InFlight] = []
        if result.inactive:
            inactive_dirs = result.inactive_dirs
            for idx, inst in enumerate(result.inactive):
                seq += 1
                drec = InFlight(seq, inst, group)
                drec.is_active = False
                if inactive_dirs[idx] is not None:
                    drec.static_dir = inactive_dirs[idx]
                    drec.promoted = result.inactive_promoted[idx]
                    drec.predicted_taken = None
                    drec.pred_record = None
                    drec.cp_need = not drec.promoted
                dormant.append(drec)
            last.inactive_buffer = dormant
            self.result.inactive_issued += len(dormant)
        self.seq = seq
        self.dispatch_queue.extend(records)
        self.dispatch_queue.extend(dormant)
        if result.ends_with_trap:
            for rec in records:
                if rec.inst.op.opclass is OpClass.TRAP:
                    self.trap_pending = rec.seq
                    break
        if result.next_pc is None:
            self.misfetch_waiting = last.seq
        else:
            self.pc = result.next_pc

    # ---------------------------------------------------------------- finish

    def _finish(self) -> MachineResult:
        result = self.result
        result.cycles = self.cycle
        accounting = result.cycle_accounting
        if self.acc_traps:
            accounting[CycleCategory.TRAPS] += self.acc_traps
        if self.acc_misfetch:
            accounting[CycleCategory.MISFETCHES] += self.acc_misfetch
        if self.acc_branch_miss:
            accounting[CycleCategory.BRANCH_MISSES] += self.acc_branch_miss
        if self.acc_cache_miss:
            accounting[CycleCategory.CACHE_MISSES] += self.acc_cache_miss
        if self.acc_full_window:
            accounting[CycleCategory.FULL_WINDOW] += self.acc_full_window
        # Deferred classification of fetch cycles: useful vs wrong-path.
        groups = self._fetch_cycle_groups
        useful = 0
        for group in groups:
            if group.retired_any:
                useful += 1
        if useful:
            accounting[CycleCategory.USEFUL_FETCH] += useful
        if len(groups) > useful:
            accounting[CycleCategory.BRANCH_MISSES] += len(groups) - useful
        if self.fill_unit is not None:
            self.fill_unit.flush()
            result.fill_reasons = dict(self.fill_unit.finalize_reasons)
            if self.fill_unit.bias_table is not None:
                result.promotions = self.fill_unit.bias_table.promotions
                result.demotions = self.fill_unit.bias_table.demotions
        trace_cache = getattr(self.engine, "trace_cache", None)
        if trace_cache is not None:
            result.tc_hits = trace_cache.stats.hits
            result.tc_misses = trace_cache.stats.misses
        result.l1i_misses = self.engine.memory.l1i.stats.misses
        return result


def simulate(program: Program, config: MachineConfig,
             max_instructions: Optional[int] = 100_000) -> MachineResult:
    """Convenience wrapper: build a machine, run it, return the result."""
    return Machine(program, config, max_instructions=max_instructions).run()
