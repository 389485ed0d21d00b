"""In-flight instruction records, checkpoints, and fetch groups."""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.isa.instruction import Instruction


class InstState(enum.IntEnum):
    """Lifecycle of an in-flight instruction in the window.

    An ``IntEnum`` whose values the core stores as plain ints on
    :attr:`InFlight.state`: state tests run tens of millions of times per
    simulation and small-int comparison avoids the Python-level enum
    identity/attribute machinery.  The numeric order is meaningful — every
    state below :data:`EXECUTING` still occupies a reservation-station
    slot, which the squash path exploits with a single ``<`` test.
    """

    DORMANT = 0      # inactively issued; occupies the window, not runnable
    WAITING = 1      # dispatched, operands outstanding
    READY = 2        # operands available, awaiting a function unit
    MEM_BLOCKED = 3  # load waiting on the memory scheduler
    EXECUTING = 4    # issued to a function unit
    DONE = 5         # completed
    SQUASHED = 6     # killed by recovery


# Plain-int aliases for the core's hot loops.
S_DORMANT = 0
S_WAITING = 1
S_READY = 2
S_MEM_BLOCKED = 3
S_EXECUTING = 4
S_DONE = 5
S_SQUASHED = 6


class FetchGroup:
    """Shared bookkeeping for all instructions of one fetch.

    Carries the retire-time actual outcomes of the fetch's dynamically
    predicted branches so the multiple branch predictor can select the
    right tree counter for B1/B2 updates.
    """

    __slots__ = ("fetch_id", "cycle", "actual_path", "retired_any")

    def __init__(self, fetch_id: int, cycle: int):
        self.fetch_id = fetch_id
        self.cycle = cycle
        self.actual_path: List[bool] = []
        self.retired_any = False


class Checkpoint:
    """A checkpoint-repair snapshot taken at a fetch-block boundary.

    Restores the speculative register file, rename table, global history
    (pre-branch, so the repair can push the actual outcome), return address
    stack, and the store/load queue high-water marks.
    """

    __slots__ = ("regs", "rename", "ghr_before", "ras_state", "sq_len", "lq_len",
                 "seq", "resume_pc")

    def __init__(self, regs, rename, ghr_before, ras_state, sq_len, lq_len, seq,
                 resume_pc=None):
        self.regs = regs
        self.rename = rename
        self.ghr_before = ghr_before
        self.ras_state = ras_state
        self.sq_len = sq_len
        self.lq_len = lq_len
        self.seq = seq
        self.resume_pc = resume_pc


class InFlight:
    """One instruction in the machine's window.

    Dependence metadata is pre-resolved once: ``dependents`` starts as
    ``None`` (most instructions complete with no waiter, so the list is
    allocated lazily on first registration), and ``cp_need`` caches the
    dispatch stage's checkpoint-boundary test, assigned when the record is
    enqueued from a fetch.

    ``sq_live`` mirrors store-queue membership for store records (set at
    dispatch, cleared at commit or recovery truncation) so the core's
    per-address store index can filter departed entries without scanning
    the queue; it and ``addr_known`` are only ever assigned/read for
    stores, from dispatch on.  ``fu`` is assigned at dispatch and read
    only after it.  The fetch cycle is the group's.
    """

    __slots__ = (
        "seq", "inst", "group", "state", "fu",
        "pending_srcs", "dependents", "cp_snapshot",
        # functional results (filled at dispatch-time speculative execution)
        "next_pc", "taken", "mem_addr", "value", "dest",
        # branch metadata
        "pred_record", "predicted_taken", "promoted", "static_dir",
        "predicted_next", "checkpoint", "inactive_buffer", "cp_need",
        # memory scheduling
        "addr_known", "sq_live",
        # timing
        "dispatch_cycle",
        "is_active",
    )

    def __init__(self, seq: int, inst: Instruction, group: FetchGroup):
        # The functional-result slots (next_pc, taken, mem_addr, value,
        # dest) and pending_srcs are deliberately NOT initialized here:
        # the core assigns all of them unconditionally when the record is
        # wired at dispatch, and nothing reads them before that.  The
        # branch-metadata slots (promoted, static_dir, predicted_taken,
        # pred_record) are likewise left unset: every read of them is
        # gated on the record being a conditional branch, and the core's
        # fetch-enqueue stage assigns all of them for every branch record.
        # One record is allocated per fetched instruction (wrong path
        # included), so the constructor is a hot path.
        self.seq = seq
        self.inst = inst
        self.group = group
        self.state = S_WAITING
        self.dependents: Optional[List["InFlight"]] = None
        self.cp_snapshot = None
        self.predicted_next: Optional[int] = None
        self.checkpoint: Optional[Checkpoint] = None
        self.inactive_buffer = None  # dormant InFlights past a divergence
        self.cp_need = False
        self.dispatch_cycle = -1
        self.is_active = True

    @property
    def squashed(self) -> bool:
        return self.state == S_SQUASHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<InFlight #{self.seq} {self.inst.disassemble()} "
                f"{InstState(self.state).name.lower()}>")
