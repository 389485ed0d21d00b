"""Synthetic benchmark program generator.

Produces real, terminating programs in the simulator ISA from a
:class:`~repro.workloads.profiles.BenchmarkProfile`.  The generated code is
structured like the benchmark family it stands in for:

* ``main`` loops over a sequence of *phase* functions (compiler passes,
  interpreter opcodes, pipeline stages ...), giving large-footprint
  benchmarks their phase-cycling trace-cache pressure;
* each phase is a counted loop over a body of statements: straightline
  blocks, data-dependent if/else, nested counted loops, calls into shared
  utility functions, switch dispatch through jump tables, stores and traps;
* every conditional branch reads its condition from a per-site bias array
  (see :mod:`repro.workloads.behaviors`), so the dynamic branch population
  has a controlled bias mix;
* branch conditions and store addresses are optionally data-chained behind
  loads from the working-set array, producing realistic misprediction
  resolution times and memory-disambiguation stalls.

Register conventions (generated code only):

====== =======================================================
r0     zero
r1-r8  statement scratch, also used by utility functions
r10    phase main-loop counter
r11/12 nested-loop counters (depth 1 / 2)
r15    outer-loop counter in ``main``
r17    global step counter (drives all bias-array indexing)
r20-27 global accumulators (cross-statement dataflow)
r30    stack pointer, r31 link register
====== =======================================================
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from repro.gcpause import gc_paused
from repro.isa.executor import STACK_BASE
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.workloads.behaviors import (
    BranchBehavior,
    BranchKind,
    realize_array,
    sample_behavior,
)
from repro.workloads.builder import CodeBuilder, DataBuilder, finish_program
from repro.workloads.draws import Draws
from repro.workloads.profiles import BenchmarkProfile, get_profile

_SCRATCH = list(range(1, 9))
_ACCUMULATORS = list(range(20, 28))
_INDEX_REGS = _SCRATCH[:4]
_VALUE_REGS = _SCRATCH[4:]
_SOURCE_REGS = _SCRATCH + _ACCUMULATORS
_ALU_OPS = [Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR]
_ADD = Opcode.ADD
_MUL = Opcode.MUL
# Pool sizes for ``_stmt_block``, which draws ``pool[rng.below(size)]``
# (``_pick`` without the call) for every instruction it emits.
_N_SCRATCH = len(_SCRATCH)
_N_ACCUMULATORS = len(_ACCUMULATORS)
_N_INDEX = len(_INDEX_REGS)
_N_VALUE = len(_VALUE_REGS)
_N_SOURCE = len(_SOURCE_REGS)
_N_ALU_OPS = len(_ALU_OPS)
_BIASED_BRANCH_OPS = [Opcode.BNE, Opcode.BEQ]


def _cdf(weights) -> List[float]:
    """Normalised cumulative weights, computed as ``Generator.choice`` does."""
    cdf = np.asarray(weights, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@lru_cache(maxsize=None)
def _zipf_cdf(n: int) -> List[float]:
    """:func:`_cdf` of the switch-case weights ``1/1, 1/2 ... 1/n``, normalised."""
    weights = 1.0 / np.arange(1, n + 1)
    weights /= weights.sum()
    return _cdf(weights)


# Skew correlated-branch thresholds toward the extremes: most correlated
# branches are biased (crossed rarely by the value walk), a minority are
# mid-range.
_THRESHOLDS = [1, 2, 3, 4, 5, 6, 7]
_THRESHOLD_CDF = _cdf([0.28, 0.17, 0.05, 0.0, 0.05, 0.17, 0.28])


@dataclass
class _SiteInfo:
    """Metadata for one generated data-dependent branch site."""

    addr: int
    behavior: BranchBehavior
    flips: bool


class WorkloadGenerator:
    """Generates one program from a profile; retains site metadata."""

    def __init__(self, profile: BenchmarkProfile, seed: Optional[int] = None):
        self.profile = profile
        self.rng = Draws(np.random.default_rng(profile.seed if seed is None else seed))
        self.code = CodeBuilder()
        self.data = DataBuilder()
        self.sites: List[_SiteInfo] = []
        self._site_counter = 0
        self._flip_sites: List[str] = []  # data labels of phase-flip arrays
        self._ctx_counter = 0
        self._current_ctx = None  # (label, period) of the active context array
        self._kinds = list(profile.bias_mix.keys())
        kind_weights = np.array([profile.bias_mix[k] for k in self._kinds])
        self._kind_cdf = _cdf(kind_weights / kind_weights.sum())
        self._ws_mask = profile.working_set_words - 1
        self._hot_mask = min(profile.working_set_words, 2048) - 1
        if profile.working_set_words & self._ws_mask:
            raise ValueError("working_set_words must be a power of two")

    # ------------------------------------------------------------------ API

    def generate(self) -> Program:
        """Build and return the complete program.

        The cyclic GC is paused meanwhile: generation builds no reference
        cycles, yet its hundreds of thousands of tracked objects
        (instructions, pending tuples, arrays) would trigger hundreds of
        collections, each walking every program already alive.
        """
        profile = self.profile
        words = profile.working_set_words
        with gc_paused():
            self.data.array("work", self.rng.integers(0, 256, size=min(words, 1 << 16)).tolist(),
                            size=words)
            utility_labels = self._build_utilities()
            phase_labels = [
                self._build_phase(i, utility_labels) for i in range(profile.n_phases)
            ]
            mutate_label = self._build_mutator() if self._needs_mutator() else None
            self._build_main(phase_labels, mutate_label)
            return finish_program(self.code, self.data, name=profile.name)

    # ------------------------------------------------------------ RNG draws
    #
    # ``Generator.choice`` converts its argument to an array and validates
    # ``p`` on every call.  These draw the identical values from the
    # identical RNG stream without that overhead.

    def _pick(self, seq: Sequence):
        """``rng.choice(seq)``: one uniform draw from ``seq``."""
        return seq[self.rng.below(len(seq))]

    def _pick_weighted(self, seq: Sequence, cdf: List[float]):
        """``rng.choice(seq, p=w)`` for ``cdf == _cdf(w)``."""
        return seq[bisect_right(cdf, self.rng.random())]

    # --------------------------------------------------------------- pieces

    def _needs_mutator(self) -> bool:
        return self.profile.has_phase_flips

    def _build_main(self, phase_labels: Sequence[str], mutate_label: Optional[str]) -> None:
        code = self.code
        code.label("main")
        code.addi(30, 0, STACK_BASE)
        code.addi(17, 0, 0)
        code.addi(18, 0, 2654435761)  # Knuth hash constant for work-array scatter
        for index, reg in enumerate(_ACCUMULATORS):
            code.addi(reg, 0, index + 1)
        code.addi(15, 0, self.profile.outer_iters)
        outer = code.label(prefix="outer")
        for label in phase_labels:
            code.call(label)
        if mutate_label is not None:
            code.call(mutate_label)
        code.addi(16, 16, 1)
        code.addi(15, 15, -1)
        code.branch(Opcode.BNE, 15, 0, outer)
        code.emit(Opcode.HALT)

    def _build_utilities(self) -> List[str]:
        """Two tiers: tier-1 may call tier-2 leaves."""
        profile = self.profile
        rng = self.rng
        n = profile.n_utilities
        n_leaf = max(1, n // 2)
        leaf_labels = [f"util_leaf_{i}" for i in range(n_leaf)]
        for label in leaf_labels:
            self._build_function(label, is_leaf=True, callees=[],
                                 stmt_range=profile.utility_stmts, loop=False)
        mid_labels = [f"util_{i}" for i in range(n - n_leaf)]
        for label in mid_labels:
            callees = [str(c) for c in rng.choice(leaf_labels, size=min(2, n_leaf), replace=False)]
            self._build_function(label, is_leaf=False, callees=callees,
                                 stmt_range=profile.utility_stmts, loop=False)
        return mid_labels + leaf_labels

    def _build_phase(self, index: int, utilities: Sequence[str]) -> str:
        rng = self.rng
        n_callees = int(rng.integers(2, min(6, len(utilities) + 1))) if utilities else 0
        callees = ([str(c) for c in rng.choice(utilities, size=n_callees, replace=False)]
                   if n_callees else [])
        label = f"phase_{index}"
        self._current_ctx = self._new_context_array()
        self._build_function(label, is_leaf=False, callees=callees,
                             stmt_range=self.profile.stmts_per_phase, loop=True,
                             hot_kernel=True)
        return label

    def _build_function(self, label: str, is_leaf: bool, callees: Sequence[str],
                        stmt_range, loop: bool, hot_kernel: bool = False) -> None:
        # Loop counters r10-r13 belong to phase functions; utilities must
        # not emit loop statements or they would clobber their caller's
        # counters (utilities only ever use scratch r1-r8).
        code = self.code
        rng = self.rng
        code.label(label)
        if not is_leaf:
            code.addi(30, 30, -1)
            code.store(31, 30, 0)
        n_stmts = int(rng.integers(stmt_range[0], stmt_range[1] + 1))
        if loop:
            trip = int(rng.integers(self.profile.phase_trip[0], self.profile.phase_trip[1] + 1))
            code.addi(10, 0, trip)
            top = code.label(prefix="ploop")
            # Cold body: broad code executed once per phase-loop iteration.
            first_half = n_stmts // 2
            self._emit_statements(first_half, callees, depth=0, allow_loops=True)
            if hot_kernel:
                self._emit_hot_kernel(callees)
            self._emit_statements(n_stmts - first_half, callees, depth=0, allow_loops=True)
            code.addi(17, 17, 1)
            code.addi(10, 10, -1)
            code.branch(Opcode.BNE, 10, 0, top)
        else:
            self._emit_statements(n_stmts, callees, depth=0, allow_loops=False)
        if not is_leaf:
            code.load(31, 30, 0)
            code.addi(30, 30, 1)
        code.ret()

    def _emit_hot_kernel(self, callees: Sequence[str]) -> None:
        """The phase's hot loop: a small statement body iterated many times.

        Real programs concentrate most dynamic branch executions in a small
        set of hot sites (the 90/10 rule); these kernels give the bias
        table per-site execution counts high enough for promotion at the
        paper's thresholds, while the cold phase bodies provide the static
        footprint that pressures the trace cache.
        """
        code = self.code
        rng = self.rng
        profile = self.profile
        trip = int(rng.integers(profile.hot_trip[0], profile.hot_trip[1] + 1))
        n_stmts = int(rng.integers(profile.hot_stmts[0], profile.hot_stmts[1] + 1))
        code.addi(13, 0, trip)
        top = code.label(prefix="hot")
        self._emit_statements(n_stmts, callees, depth=0, allow_loops=True)
        code.addi(17, 17, 1)
        code.addi(13, 13, -1)
        code.branch(Opcode.BNE, 13, 0, top)

    def _build_mutator(self) -> str:
        """Invert the arrays of every phase-flip site, flipping their bias."""
        code = self.code
        label = "mutate_flips"
        code.label(label)
        for array_label in self._flip_sites:
            period = 64  # all flip arrays use a fixed small period
            code.addi(10, 0, period)
            top = code.label(prefix="mloop")
            code.addi(1, 10, -1)
            code.load(2, 1, array_label)
            code.emit(Opcode.XORI, rd=2, rs1=2, imm=1)
            code.store(2, 1, array_label)
            code.addi(10, 10, -1)
            code.branch(Opcode.BNE, 10, 0, top)
        code.ret()
        return label

    # ----------------------------------------------------------- statements

    def _emit_statements(self, count: int, callees: Sequence[str], depth: int,
                         allow_loops: bool = True) -> None:
        profile = self.profile
        rng = self.rng
        for _ in range(count):
            roll = rng.random()
            threshold = profile.p_if
            if roll < threshold:
                self._stmt_if()
                continue
            threshold += profile.p_loop
            if roll < threshold and depth < 2 and allow_loops:
                self._stmt_loop(callees, depth)
                continue
            threshold += profile.p_call
            if roll < threshold and callees:
                self.code.call(self._pick(callees))
                continue
            threshold += profile.p_switch
            if roll < threshold:
                self._stmt_switch()
                continue
            threshold += profile.p_store
            if roll < threshold:
                self._stmt_store()
                continue
            threshold += profile.p_trap
            if roll < threshold:
                self.code.emit(Opcode.TRAP)
                continue
            self._stmt_block()

    def _emit_work_index(self, dest: int) -> None:
        """Compute a work-array index into ``dest``.

        Most sites walk a hot region that fits in the L1 D-cache; a minority
        hash-scatter across the full working set, giving large-working-set
        profiles realistic miss rates.
        """
        code = self.code
        rng = self.rng
        code.addi(dest, 17, rng.below(1 << 12))
        if rng.random() < 0.3:
            code.emit(Opcode.MUL, rd=dest, rs1=dest, rs2=18)
            mask = self._ws_mask
        else:
            mask = self._hot_mask
        code.emit(Opcode.ANDI, rd=dest, rs1=dest, imm=mask)

    def _stmt_block(self, length: Optional[int] = None) -> None:
        """A straightline run of ALU work with embedded loads."""
        code = self.code
        emit = code.emit
        rng = self.rng
        below = rng.below
        random = rng.random
        profile = self.profile
        if length is None:
            low, high = profile.block_len
            length = low + below(high + 1 - low)
        mem_in_block = profile.mem_in_block
        emitted = 0
        # Arguments evaluate left to right, so each emit draws its
        # registers in the order rd, rs1, rs2.
        while emitted < length:
            if random() < mem_in_block and emitted + 2 <= length:
                index_reg = _INDEX_REGS[below(_N_INDEX)]
                value_reg = _VALUE_REGS[below(_N_VALUE)]
                self._emit_work_index(index_reg)
                code.load(value_reg, index_reg, "work")
                emitted += 2
            else:
                op = _MUL if random() < 0.06 else _ALU_OPS[below(_N_ALU_OPS)]
                emit(op, _SCRATCH[below(_N_SCRATCH)], _SOURCE_REGS[below(_N_SOURCE)],
                     _SCRATCH[below(_N_SCRATCH)])
                emitted += 1
        if random() < 0.3:
            acc = _ACCUMULATORS[below(_N_ACCUMULATORS)]
            emit(_ADD, acc, acc, _SCRATCH[below(_N_SCRATCH)])

    def _new_context_array(self) -> tuple:
        """A shared, slowly varying array of small values (0..7).

        Several branch sites in the same phase test this one array against
        different thresholds, so their outcomes are mutually correlated —
        the property that makes global-history predictors work on real
        code.  The values follow a clipped random walk, giving runs of
        equal values (stable branch directions across nearby iterations).
        """
        rng = self.rng
        period = int(2 ** rng.integers(6, 9))  # 64..256
        values = []
        v = int(rng.integers(0, 8))
        for _ in range(period):
            if rng.random() < 0.15:
                v = min(7, max(0, v + int(rng.integers(-2, 3))))
            values.append(v)
        label = f"ctx_{self._ctx_counter}"
        self._ctx_counter += 1
        self.data.array(label, values)
        return label, period

    def _stmt_if_correlated(self) -> None:
        """An if whose condition thresholds the phase's shared context."""
        code = self.code
        rng = self.rng
        label, period = self._current_ctx
        threshold = self._pick_weighted(_THRESHOLDS, _THRESHOLD_CDF)
        code.emit(Opcode.ANDI, rd=1, rs1=17, imm=period - 1)
        code.load(2, 1, label)
        code.emit(Opcode.SLTI, rd=3, rs1=2, imm=threshold)
        op = self._pick(_BIASED_BRANCH_OPS)  # BNE: taken iff v < k
        skip = code.new_label("endif")
        code.branch(op, 3, 0, skip)
        self._stmt_block()
        code.label(skip)

    def _new_site(self) -> tuple:
        """Allocate a bias array for a fresh branch site.

        Returns (data label, behavior, branch opcode).  The array's ones
        fraction is arranged so the chosen opcode's taken rate equals the
        behaviour's ``p_taken``.
        """
        rng = self.rng
        kind = self._pick_weighted(self._kinds, self._kind_cdf)
        behavior = sample_behavior(kind, rng)
        op = self._pick(_BIASED_BRANCH_OPS)
        ones_fraction = behavior.p_taken if op is Opcode.BNE else 1.0 - behavior.p_taken
        array = realize_array(
            BranchBehavior(kind=kind, p_taken=ones_fraction, period=behavior.period,
                           clusters=behavior.clusters),
            rng,
        )
        label = f"bias_{self._site_counter}"
        self._site_counter += 1
        self.data.array(label, array)
        if kind is BranchKind.PHASE_FLIP:
            self._flip_sites.append(label)
        return label, behavior, op

    def _emit_condition(self, array_label: str, period: int) -> int:
        """Load the site's condition value; returns the register holding it."""
        code = self.code
        rng = self.rng
        code.emit(Opcode.ANDI, rd=1, rs1=17, imm=period - 1)
        code.load(2, 1, array_label)
        if rng.random() < self.profile.late_cond_frac:
            # Chain the condition behind a working-set load without
            # changing its value: (work_value & 0) + cond == cond.
            self._emit_work_index(3)
            code.load(4, 3, "work")
            code.emit(Opcode.AND, rd=4, rs1=4, rs2=0)
            code.emit(Opcode.ADD, rd=2, rs1=2, rs2=4)
        return 2

    def _stmt_if(self) -> None:
        code = self.code
        rng = self.rng
        if self._current_ctx is not None and rng.random() < self.profile.correlated_frac:
            self._stmt_if_correlated()
            return
        array_label, behavior, op = self._new_site()
        cond_reg = self._emit_condition(array_label, behavior.period)
        skip = code.new_label("else" if rng.random() < 0.4 else "endif")
        branch_addr = code.branch(op, cond_reg, 0, skip)
        self.sites.append(_SiteInfo(addr=branch_addr, behavior=behavior,
                                    flips=behavior.kind is BranchKind.PHASE_FLIP))
        self._stmt_block()
        if skip.startswith(".else"):
            endif = code.new_label("endif")
            code.jump(endif)
            code.label(skip)
            self._stmt_block()
            code.label(endif)
        else:
            code.label(skip)

    def _stmt_loop(self, callees: Sequence[str], depth: int) -> None:
        code = self.code
        rng = self.rng
        counter = 11 + depth
        trip = int(rng.integers(self.profile.inner_loop_trip[0],
                                self.profile.inner_loop_trip[1] + 1))
        code.addi(counter, 0, trip)
        top = code.label(prefix="iloop")
        n_body = int(rng.integers(1, 4))
        self._emit_statements(n_body, callees, depth=depth + 1, allow_loops=True)
        code.addi(17, 17, 1)
        code.addi(counter, counter, -1)
        code.branch(Opcode.BNE, counter, 0, top)

    def _stmt_switch(self) -> None:
        code = self.code
        rng = self.rng
        profile = self.profile
        n_cases = int(rng.integers(profile.switch_cases[0], profile.switch_cases[1] + 1))
        period = int(2 ** rng.integers(5, 9))
        # Zipf-skewed case selection, like interpreter opcode frequencies:
        # ``rng.choice(n_cases, size=period, p=weights)``, drawn the way
        # ``choice`` draws it, one ``random()`` per value.
        cdf = _zipf_cdf(n_cases)
        random = rng.random
        values = [bisect_right(cdf, random()) for _ in range(period)]
        site_id = self._site_counter
        self._site_counter += 1
        case_label_names = [f".case_{site_id}_{c}" for c in range(n_cases)]
        self.data.array(f"cases_{site_id}", values)
        self.data.jump_table(f"jt_{site_id}", case_label_names)
        offset = int(rng.integers(0, 1 << 12))
        code.addi(1, 17, offset)
        code.emit(Opcode.ANDI, rd=1, rs1=1, imm=period - 1)
        code.load(2, 1, f"cases_{site_id}")
        code.load(3, 2, f"jt_{site_id}")
        code.jr(3)
        merge = code.new_label("merge")
        for name in case_label_names:
            code.label(name)
            self._stmt_block(length=int(rng.integers(1, 5)))
            code.jump(merge)
        code.label(merge)

    def _stmt_store(self) -> None:
        code = self.code
        rng = self.rng
        value_reg = self._pick(_ACCUMULATORS)
        if rng.random() < self.profile.late_store_frac:
            # Store whose address depends on a load: the conservative memory
            # scheduler must block younger loads until this address resolves.
            self._emit_work_index(1)
            code.load(2, 1, "work")
            code.emit(Opcode.ANDI, rd=2, rs1=2, imm=self._ws_mask)
            code.store(value_reg, 2, "work")
        else:
            self._emit_work_index(1)
            code.store(value_reg, 1, "work")


def generate_program(benchmark: str, seed: Optional[int] = None) -> Program:
    """Generate the synthetic stand-in program for a paper benchmark."""
    profile = benchmark if isinstance(benchmark, BenchmarkProfile) else get_profile(benchmark)
    return WorkloadGenerator(profile, seed=seed).generate()
