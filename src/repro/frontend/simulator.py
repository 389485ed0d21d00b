"""Oracle-driven front-end simulation.

This driver replays the correct-path (oracle) instruction stream against a
fetch engine, cycle by cycle, with fixed recovery penalties standing in for
the back end.  It produces every *front-end* metric in the paper: effective
fetch rate, the fetch-size/termination histograms (Figs. 4 and 6),
predictions per fetch (Table 3), misprediction counts (Fig. 7), and cache
miss cycles (Table 4).  End-to-end IPC and resolution-time results come
from the full out-of-order machine in :mod:`repro.core`.

Because the oracle stream is independent of front-end configuration it is
computed once per benchmark and shared across every configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.config import FrontEndConfig
from repro.frontend.build import build_engine
from repro.frontend.fetch import (
    FetchResult,
    PredRecord,
    TraceFetchEngine,
    compile_variant,
)
from repro.frontend.stats import CycleCategory, FetchReason, FetchRecord, FetchStats
from repro.gcpause import gc_paused
from repro.isa.executor import run_oracle
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program

#: One oracle element: (instruction, taken-or-None, next correct-path pc).
OracleEntry = Tuple[Instruction, Optional[bool], int]


def compute_oracle(program: Program, max_instructions: Optional[int]) -> List[OracleEntry]:
    """Execute functionally and return the correct-path stream."""
    return run_oracle(program, max_instructions)


@dataclass
class FrontEndResult:
    """Everything one front-end run produced."""

    benchmark: str
    config: FrontEndConfig
    stats: FetchStats
    cycles: int
    instructions_retired: int
    recoveries: int
    tc_hits: int = 0
    tc_misses: int = 0
    tc_writes: int = 0
    fill_reasons: dict = field(default_factory=dict)
    l1i_misses: int = 0
    promotions: int = 0
    demotions: int = 0

    @property
    def effective_fetch_rate(self) -> float:
        return self.stats.effective_fetch_rate

    @property
    def fetch_ipc(self) -> float:
        """Correct-path instructions per *cycle* (includes penalty cycles)."""
        return self.instructions_retired / self.cycles if self.cycles else 0.0


def _no_fill_unit(_plan=None) -> None:
    """The compiled retire and recovery feeds of an engine without a fill
    unit (the icache front end)."""


#: One correct-path instruction consumed from a fetch:
#: ``(inst, taken, promoted, record)`` where ``record`` is the PredRecord
#: for dynamically predicted branches.  A plain tuple — one is built per
#: retired instruction, so dataclass construction cost dominated the
#: simulator's profile.
_UsefulInst = Tuple[Instruction, Optional[bool], bool, Optional[object]]


class FrontEndSimulator:
    """Drive one fetch engine over one benchmark's oracle stream."""

    def __init__(
        self,
        program: Program,
        config: FrontEndConfig,
        oracle: Optional[List[OracleEntry]] = None,
        max_instructions: Optional[int] = 100_000,
        engine=None,
        observer=None,
    ):
        self.program = program
        self.config = config
        self.oracle = oracle if oracle is not None else compute_oracle(program, max_instructions)
        self.engine = engine if engine is not None else build_engine(program, config)
        #: Optional validation observer (repro.validate.observer): its
        #: ``wrap(engine)`` intercepts every fetch — generic and compiled-
        #: variant alike pass through the one ``fetch`` callable.  None
        #: (the default) leaves the hot loop untouched.
        self.observer = observer
        # This driver repairs from its own architectural GHR/RAS copies and
        # never reads FetchResult.control_snapshots; skip deriving them
        # (and building prediction records eagerly) — only the core needs
        # them.
        self.engine.capture_snapshots = False
        self.fill_unit = getattr(self.engine, "fill_unit", None)
        self.stats = FetchStats()
        self._arch_ghr = 0
        self._arch_ras: List[int] = []
        self.cycles = 0
        self.recoveries = 0

    # ----------------------------------------------------------------- run

    def run(self) -> FrontEndResult:
        # The engine's object graph is acyclic — compiled variants name
        # their twins by lookup and fill-unit state edges name their
        # targets by index — so everything this run builds dies by
        # refcount (tests/test_gc_hygiene.py).  A cyclic collection
        # mid-run would only re-walk the long-lived caches and the
        # oracle.  The scheduler pauses the GC once per unit around the
        # whole point (scheduler._run_point); this nested pause covers
        # callers that drive the simulator directly.
        with gc_paused():
            return self._run()

    def _run(self) -> FrontEndResult:
        oracle = self.oracle
        n = len(oracle)
        i = 0
        pc = self.program.entry
        engine = self.engine
        fetch = engine.fetch
        if self.observer is not None:
            fetch = self.observer.wrap(engine)
        stats = self.stats
        cycle_accounting = stats.cycle_accounting
        match = self._match
        retire = self._retire
        record_fetch = self._record_fetch
        advance = self._advance
        # Fast-retire locals for fetches served from a compiled variant:
        # the variant precomputes the whole fetch outcome, so matching it
        # against the oracle reduces to comparing its branch directions
        # and its successor, and retiring it reduces to the fill unit's
        # compiled event feed plus batched architectural-state updates.
        fill_unit = self.fill_unit
        if fill_unit is None:
            # The icache front end has no fill unit: nothing to feed.
            retire_compiled = note_recovery = _no_fill_unit
        else:
            # getattr: the frozen reference fill unit has no compiled
            # feed, but reference engines never emit variant results.
            retire_compiled = getattr(fill_unit, "retire_compiled", None)
            note_recovery = fill_unit.note_recovery
        engine_restore = engine.restore
        block_sibling = getattr(engine, "block_sibling", None)
        inactive_issue = getattr(engine, "inactive_issue", False)
        # The fast paths bypass PredRecord: one update_batch call flushes
        # a compiled plan's whole training record (the raw tokens plus
        # the variant's train_meta) instead of one Python call per
        # branch.  Every fast predictor — the multiple-branch ones and
        # the icache engine's hybrid — defines update_batch.
        predictor_train = getattr(getattr(engine, "predictor", None),
                                  "update_batch", None)
        indirect_update = engine.indirect.update
        ghr_mask = engine.ghr.mask
        arch_ras = self._arch_ras
        arch_ghr = self._arch_ghr
        trap_penalty = self.config.trap_penalty
        mispredict_penalty = self.config.mispredict_penalty
        misfetch_penalty = self.config.misfetch_penalty
        #: variant -> fetch count; histogram/attribute accounting for fast
        #: fetches is deferred and folded into stats once after the loop.
        var_counts: dict = {}
        #: (variant, fetch-time predictions_used) -> count for fetches that
        #: retired a compiled *mispredicted prefix* (recorded under
        #: MISPRED_BR with the original fetch's prediction count, exactly
        #: like the generic path).
        mis_counts: dict = {}
        trap_cycles = 0
        branch_miss_cycles = 0
        misfetch_cycles = 0
        # Accumulate per-fetch bookkeeping in locals and fold it into the
        # stats Counters once after the loop: Counter.__getitem__ hashes an
        # enum member per access, which showed up in the hot-loop profile.
        cycles = self.cycles
        useful_fetches = 0
        miss_cycles = 0
        while i < n:
            result = fetch(pc)
            cycles += 1
            # Icache miss cycles before delivery, charged here once for
            # the compiled and the generic path alike (the result keeps
            # the field: the lockstep observer signs it).
            stall = result.stall_cycles
            if stall:
                cycles += stall
                miss_cycles += stall
            variant = getattr(result, "variant", None)
            if variant is not None:
                i_end = i + variant.n_active
                if i_end <= n:
                    fail_pos = -1
                    for pos, direction in variant.branch_checks:
                        if oracle[i + pos][1] != direction:
                            fail_pos = pos
                            break
                    if fail_pos < 0:
                        next_pc = result.next_pc
                        if i_end < n and (next_pc is None
                                          or next_pc != oracle[i_end][0].addr):
                            # Every supplied direction matched but the
                            # successor is wrong (stale indirect/return
                            # target) or unknown (misfetch): the whole
                            # fetch still retires, then the front end
                            # repairs and refetches from the oracle pc.
                            retire_compiled(variant)
                            if variant.ghr_count:
                                arch_ghr = ((arch_ghr << variant.ghr_count)
                                            | variant.ghr_bits) & ghr_mask
                            if variant.ras_pushes:
                                arch_ras.extend(variant.ras_pushes)
                            if variant.ret_pop and arch_ras:
                                arch_ras.pop()
                            if variant.n_indirect:
                                indirect_update(variant.last_addr,
                                                oracle[i_end - 1][2])
                            train_meta = variant.train_meta
                            if train_meta:
                                predictor_train(result.pred_tokens, train_meta)
                            var_counts[variant] = var_counts.get(variant, 0) + 1
                            useful_fetches += 1
                            i = i_end
                            if next_pc is None:
                                cycles += misfetch_penalty
                                misfetch_cycles += misfetch_penalty
                            else:
                                stats.indirect_mispredicts += 1
                                self.recoveries += 1
                                cycles += mispredict_penalty
                                branch_miss_cycles += mispredict_penalty
                            engine_restore((arch_ghr, tuple(arch_ras)))
                            note_recovery()
                            if variant.trap_last:
                                cycles += trap_penalty
                                trap_cycles += trap_penalty
                            pc = oracle[i][0].addr
                            continue
                        # The whole fetch is on the correct path and its
                        # successor prediction holds: retire it wholesale.
                        retire_compiled(variant)
                        if variant.ghr_count:
                            arch_ghr = ((arch_ghr << variant.ghr_count)
                                        | variant.ghr_bits) & ghr_mask
                        if variant.ras_pushes:
                            arch_ras.extend(variant.ras_pushes)
                        if variant.ret_pop and arch_ras:
                            arch_ras.pop()
                        if variant.n_indirect:
                            indirect_update(variant.last_addr, oracle[i_end - 1][2])
                        train_meta = variant.train_meta
                        if train_meta:
                            predictor_train(result.pred_tokens, train_meta)
                        var_counts[variant] = var_counts.get(variant, 0) + 1
                        useful_fetches += 1
                        i = i_end
                        if i >= n:
                            break
                        if variant.trap_last:
                            cycles += trap_penalty
                            trap_cycles += trap_penalty
                        pc = result.next_pc
                        continue
                    else:
                        dyn_k = variant.dyn_pos.get(fail_pos)
                        if dyn_k is not None:
                            # A dynamic branch was mispredicted at a
                            # non-diverging slot: the correct-path prefix of
                            # this fetch is exactly the compiled variant
                            # with that prediction bit flipped (it diverges
                            # there, or, for an icache block, ends there),
                            # so the prefix retires compiled too.
                            segment = result.segment
                            if segment is None:
                                prefix = block_sibling(result.pc, variant)
                            else:
                                variants = segment._variants
                                key2 = variant.key ^ (1 << dyn_k)
                                prefix = variants.get(key2)
                                if prefix is None:
                                    prefix = compile_variant(segment, key2,
                                                             inactive_issue)
                                    variants[key2] = prefix
                            stats.cond_mispredicts += 1
                            retire_compiled(prefix)
                            if prefix.ghr_count:
                                arch_ghr = ((arch_ghr << prefix.ghr_count)
                                            | prefix.ghr_bits) & ghr_mask
                            if prefix.ras_pushes:
                                arch_ras.extend(prefix.ras_pushes)
                            predictor_train(result.pred_tokens,
                                            prefix.train_meta)
                            mis_key = (prefix, result.predictions_used)
                            mis_counts[mis_key] = mis_counts.get(mis_key, 0) + 1
                            useful_fetches += 1
                            i += prefix.n_active
                            if i >= n:
                                break
                            self.recoveries += 1
                            cycles += mispredict_penalty
                            branch_miss_cycles += mispredict_penalty
                            engine_restore((arch_ghr, tuple(arch_ras)))
                            note_recovery()
                            pc = oracle[i][0].addr
                            continue
                        elif (inactive_issue and variant.divergence
                              and fail_pos == variant.n_active - 1):
                            # The trace disagreed with a (wrong) prediction
                            # at the diverging branch, so the inactively
                            # issued remainder is on the correct path: when
                            # the oracle follows the embedded path to the
                            # segment's end, the consumed instructions are
                            # exactly the full-trace variant (the one whose
                            # key matches every embedded direction), and it
                            # retires compiled.
                            segment = result.segment
                            variants = segment._variants
                            key2 = segment._trace_key
                            vstar = variants.get(key2)
                            if vstar is None:
                                vstar = compile_variant(segment, key2,
                                                        inactive_issue)
                                variants[key2] = vstar
                            i_star = i + vstar.n_active
                            ok2 = i_star <= n
                            if ok2:
                                for pos2, d2 in vstar.branch_checks:
                                    if oracle[i + pos2][1] != d2:
                                        ok2 = False
                                        break
                            if ok2:
                                stats.cond_mispredicts += 1
                                retire_compiled(vstar)
                                if vstar.ghr_count:
                                    arch_ghr = ((arch_ghr << vstar.ghr_count)
                                                | vstar.ghr_bits) & ghr_mask
                                if vstar.ras_pushes:
                                    arch_ras.extend(vstar.ras_pushes)
                                if vstar.ret_pop and arch_ras:
                                    arch_ras.pop()
                                if vstar.n_indirect:
                                    indirect_update(vstar.last_addr,
                                                    oracle[i_star - 1][2])
                                # Only the branches the fetch actually
                                # predicted train (the inactive remainder
                                # carries no prediction records).
                                predictor_train(
                                    result.pred_tokens,
                                    vstar.train_meta[:variant.n_dyn])
                                mis_key = (vstar, result.predictions_used)
                                mis_counts[mis_key] = (
                                    mis_counts.get(mis_key, 0) + 1)
                                useful_fetches += 1
                                i = i_star
                                if i >= n:
                                    break
                                self.recoveries += 1
                                cycles += mispredict_penalty
                                branch_miss_cycles += mispredict_penalty
                                engine_restore((arch_ghr, tuple(arch_ras)))
                                note_recovery()
                                if vstar.trap_last:
                                    cycles += trap_penalty
                                    trap_cycles += trap_penalty
                                pc = oracle[i][0].addr
                                continue
            if not result.active:
                # Off-image fetch cannot happen on the correct path.
                raise RuntimeError(f"empty fetch at pc={pc}")
            if variant is not None and result.pred_records is None:
                # This variant fetch falls back to the generic walk: build
                # the PredRecords the fetch deferred.
                tokens = result.pred_tokens
                result.pred_records = [
                    PredRecord(addr=addr, position=k, token=tokens[k],
                               predicted=p)
                    for addr, k, p in variant.pred_meta
                ]

            self._arch_ghr = arch_ghr
            useful, i, event = match(result, oracle, i, n)
            useful_fetches += 1
            retire(useful, oracle, i)
            arch_ghr = self._arch_ghr
            record_fetch(result, useful, event)

            if i >= n:
                break
            next_oracle_pc = oracle[i][0].addr
            self.cycles = cycles  # _advance charges penalties to self.cycles
            pc = advance(result, event, next_oracle_pc, useful)
            cycles = self.cycles
        self.cycles = cycles
        self._arch_ghr = arch_ghr
        cycle_accounting[CycleCategory.USEFUL_FETCH] += useful_fetches
        if miss_cycles:
            cycle_accounting[CycleCategory.CACHE_MISSES] += miss_cycles
            stats.cache_miss_cycles += miss_cycles
        if trap_cycles:
            cycle_accounting[CycleCategory.TRAPS] += trap_cycles
        if branch_miss_cycles:
            cycle_accounting[CycleCategory.BRANCH_MISSES] += branch_miss_cycles
        if misfetch_cycles:
            cycle_accounting[CycleCategory.MISFETCHES] += misfetch_cycles
        if mis_counts:
            size_reason = stats.size_reason_histogram
            predictions = stats.predictions_histogram
            for (prefix, preds), count in mis_counts.items():
                stats.fetches += count
                if prefix.source == "tc":
                    stats.tc_fetches += count
                else:
                    stats.icache_fetches += count
                stats.useful_instructions += prefix.n_active * count
                size_reason[(prefix.n_active, FetchReason.MISPRED_BR)] += count
                predictions[preds] += count
                stats.cond_branches += prefix.n_dyn * count
                stats.promoted_branches += prefix.n_promoted * count
                stats.indirect_jumps += prefix.n_indirect * count
        if var_counts:
            size_reason = stats.size_reason_histogram
            predictions = stats.predictions_histogram
            for variant, count in var_counts.items():
                stats.fetches += count
                if variant.source == "tc":
                    stats.tc_fetches += count
                else:
                    stats.icache_fetches += count
                stats.useful_instructions += variant.n_active * count
                size_reason[(variant.n_active, variant.raw_reason)] += count
                predictions[variant.predictions_used] += count
                stats.cond_branches += variant.n_dyn * count
                stats.promoted_branches += variant.n_promoted * count
                stats.indirect_jumps += variant.n_indirect * count
        return self._build_result()

    # --------------------------------------------------------------- match

    def _match(self, result: FetchResult, oracle, i: int, n: int):
        """Walk the fetched instructions against the oracle stream.

        Returns (useful instructions, new oracle index, event) where event
        is one of None, "mispredict", "fault", "indirect", "misfetch".
        """
        useful: List[_UsefulInst] = []
        useful_append = useful.append
        event: Optional[str] = None
        rec_ptr = 0
        active = result.active
        active_dirs = result.active_dirs
        active_promoted = result.active_promoted
        pred_records = result.pred_records
        for idx, inst in enumerate(active):
            if i >= n:
                return useful, i, event
            o_inst, o_taken, _o_next = oracle[i]
            if o_inst.addr != inst.addr:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"fetch desync at {inst.addr} vs oracle {o_inst.addr}"
                )
            # A non-None fetch direction marks exactly the conditional
            # branches (every engine fills active_dirs that way).
            if active_dirs[idx] is not None:
                promoted = active_promoted[idx]
                record = None
                if not promoted:
                    record = pred_records[rec_ptr]
                    rec_ptr += 1
                useful_append((inst, o_taken, promoted, record))
                i += 1
                if active_dirs[idx] != o_taken:
                    event = "fault" if promoted else "mispredict"
                    if promoted:
                        self.stats.promoted_faults += 1
                    else:
                        self.stats.cond_mispredicts += 1
                    if result.divergence and idx == len(active) - 1:
                        # The trace disagreed with the (wrong) prediction, so
                        # the inactively issued remainder is on the correct
                        # path: it retires from this same fetch.
                        i = self._consume_inactive(result, oracle, i, n, useful)
                    return useful, i, event
            else:
                useful_append((inst, o_taken, False, None))
                i += 1
        # Every supplied direction matched; check the fetch's successor.
        if i < n:
            expected = oracle[i][0].addr
            if result.next_pc is None:
                event = "misfetch"
            elif result.next_pc != expected:
                # Only an indirect jump / return target can be wrong here.
                event = "indirect"
                self.stats.indirect_mispredicts += 1
        return useful, i, event

    def _consume_inactive(self, result: FetchResult, oracle, i: int, n: int,
                          useful: List[_UsefulInst]) -> int:
        for idx, inst in enumerate(result.inactive):
            if i >= n:
                return i
            o_inst, o_taken, _o_next = oracle[i]
            if o_inst.addr != inst.addr:
                return i
            promoted = result.inactive_promoted[idx]
            useful.append((inst, o_taken, promoted, None))
            i += 1
            if inst.op.is_cond_branch and result.inactive_dirs[idx] != o_taken:
                # The trace path itself leaves the correct path here; a
                # second recovery folds into this one in the simple model.
                if promoted:
                    self.stats.promoted_faults += 1
                else:
                    self.stats.cond_mispredicts += 1
                return i
        return i

    # -------------------------------------------------------------- retire

    def _retire(self, useful: List[_UsefulInst], oracle, i_after: int) -> None:
        path: List[bool] = []
        oracle_index = i_after - len(useful)
        fill_unit = self.fill_unit
        if fill_unit is not None:
            fill_unit.retire_batch(useful)
        engine = self.engine
        stats = self.stats
        ghr_mask = engine.ghr.mask
        arch_ras = self._arch_ras
        arch_ghr = self._arch_ghr
        for offset, (inst, taken, promoted, record) in enumerate(useful):
            code = inst.op.commit_code
            if code == 3:  # conditional branch
                arch_ghr = ((arch_ghr << 1) | taken) & ghr_mask
                if promoted:
                    stats.promoted_branches += 1
                else:
                    stats.cond_branches += 1
                    if record is not None:
                        engine.train_branch(record, taken, tuple(path))
                        path.append(taken)
            elif code == 4:  # call
                arch_ras.append(inst.fall_through)
            elif code == 5:  # return
                if arch_ras:
                    arch_ras.pop()
            elif code == 6:  # indirect
                stats.indirect_jumps += 1
                actual_target = oracle[oracle_index + offset][2]
                engine.indirect.update(inst.addr, actual_target)
        self._arch_ghr = arch_ghr

    # ------------------------------------------------------------- account

    def _record_fetch(self, result: FetchResult, useful: List[_UsefulInst],
                      event: Optional[str]) -> None:
        if event in ("mispredict", "fault"):
            reason = FetchReason.MISPRED_BR
        else:
            reason = result.raw_reason
        self.stats.record_fetch(
            FetchRecord(
                size=len(useful),
                reason=reason,
                predictions=result.predictions_used,
                source=result.source,
            )
        )

    def _advance(self, result: FetchResult, event: Optional[str],
                 next_oracle_pc: int, useful: List[_UsefulInst]) -> int:
        """Charge penalties, repair speculative state, pick the next pc."""
        config = self.config
        if event in ("mispredict", "fault", "indirect"):
            self.cycles += config.mispredict_penalty
            self.stats.cycle_accounting[CycleCategory.BRANCH_MISSES] += config.mispredict_penalty
            self._repair()
            self.recoveries += 1
            pc = next_oracle_pc
        elif event == "misfetch":
            self.cycles += config.misfetch_penalty
            self.stats.cycle_accounting[CycleCategory.MISFETCHES] += config.misfetch_penalty
            self._repair()
            pc = next_oracle_pc
        else:
            pc = result.next_pc
            if pc != next_oracle_pc:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"predicted next pc {pc} != oracle {next_oracle_pc} without event"
                )
        if useful and useful[-1][0].op.opclass is OpClass.TRAP:
            self.cycles += config.trap_penalty
            self.stats.cycle_accounting[CycleCategory.TRAPS] += config.trap_penalty
        return pc

    def _repair(self) -> None:
        self.engine.restore((self._arch_ghr, tuple(self._arch_ras)))
        if self.fill_unit is not None:
            self.fill_unit.note_recovery()

    # --------------------------------------------------------------- result

    def _build_result(self) -> FrontEndResult:
        if self.fill_unit is not None:
            self.fill_unit.flush()
        engine = self.engine
        result = FrontEndResult(
            benchmark=self.program.name,
            config=self.config,
            stats=self.stats,
            cycles=self.cycles,
            instructions_retired=self.stats.useful_instructions,
            recoveries=self.recoveries,
            l1i_misses=engine.memory.l1i.stats.misses,
        )
        # Duck-typed: matches both the fast TraceFetchEngine and the frozen
        # reference copy (repro.frontend.fetch_reference).
        if getattr(engine, "trace_cache", None) is not None:
            result.tc_hits = engine.trace_cache.stats.hits
            result.tc_misses = engine.trace_cache.stats.misses
            result.tc_writes = engine.trace_cache.stats.writes
            result.fill_reasons = dict(engine.fill_unit.finalize_reasons)
            if engine.fill_unit.bias_table is not None:
                result.promotions = engine.fill_unit.bias_table.promotions
                result.demotions = engine.fill_unit.bias_table.demotions
        return result
