"""Frozen reference copy of the seed predictor stack (PR 4 freeze).

This module is a **verbatim concatenation** of the branch-prediction
structures exactly as they stood before the fast front-end rewrite:
:mod:`repro.branch.counters`, :mod:`repro.branch.history`,
:mod:`repro.branch.gshare`, :mod:`repro.branch.pas`,
:mod:`repro.branch.hybrid`, :mod:`repro.branch.multiple`,
:mod:`repro.branch.ras` and :mod:`repro.branch.indirect`.  It exists so
the optimized predictors in those modules can be pinned byte-identical
against known-good behaviour: ``REPRO_ENGINE=reference`` rebuilds every
front end from these classes (see :mod:`repro.frontend.build`), and
``tests/test_frontend_parity.py`` asserts the two paths train and
predict identically.

Do not optimize or otherwise edit this module; it is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

try:  # the frozen stack predates the bytearray layouts and keeps its
    # numpy BHT; the import error is deferred to the one class using it.
    import numpy as np
except ImportError:  # pragma: no cover - no-numpy environments
    np = None




# ----- frozen copy of repro.branch.counters ----------------------


class SaturatingCounters:
    """A table of n-bit saturating counters.

    The canonical 2-bit counter predicts taken when the counter is in its
    upper half (2 or 3), increments on taken and decrements on not-taken,
    saturating at the ends.
    """

    def __init__(self, size: int, bits: int = 2, init: int | None = None):
        if size <= 0:
            raise ValueError("size must be positive")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.size = size
        self.bits = bits
        self.max_value = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        if init is None:
            init = self.threshold - 1  # weakly not-taken
        if not 0 <= init <= self.max_value:
            raise ValueError(f"init {init} out of range for {bits}-bit counter")
        # A bytearray rather than a numpy array: single-element reads are
        # the predictors' hot path, and bytearray indexing yields a plain
        # int with none of the numpy scalar-boxing overhead.  Counter
        # values are always in [0, max_value] so a byte per entry suffices.
        self._table = bytearray([init]) * size

    def predict(self, index: int) -> bool:
        """Taken when the counter is in its upper half."""
        return self._table[index % self.size] >= self.threshold

    def value(self, index: int) -> int:
        return self._table[index % self.size]

    def update(self, index: int, taken: bool) -> None:
        index %= self.size
        value = self._table[index]
        if taken:
            if value < self.max_value:
                self._table[index] = value + 1
        elif value > 0:
            self._table[index] = value - 1

    def storage_bits(self) -> int:
        """Hardware cost of this table in bits."""
        return self.size * self.bits

    def __len__(self) -> int:
        return self.size


# ----- frozen copy of repro.branch.history -----------------------


class GlobalHistory:
    """A shift register of branch outcomes, newest in the low bit.

    The fetch engine pushes *predicted* outcomes speculatively so that
    back-to-back fetches index the predictor with up-to-date history; the
    core snapshots the value at each checkpoint and restores it on a
    misprediction, exactly as checkpoint-repair hardware would.

    Promoted-branch outcomes are pushed too: the paper keeps them in the
    global history "to maintain the integrity of the predictor's
    information" even though they no longer update the pattern tables.
    """

    def __init__(self, bits: int):
        if bits <= 0:
            raise ValueError("bits must be positive")
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.value = 0

    def push(self, taken: bool) -> None:
        self.value = ((self.value << 1) | int(taken)) & self.mask

    def snapshot(self) -> int:
        return self.value

    def restore(self, snapshot: int) -> None:
        self.value = snapshot & self.mask

    def __index__(self) -> int:
        return self.value


# ----- frozen copy of repro.branch.gshare ------------------------


class GsharePredictor:
    """XOR of PC and global history indexes one 2-bit counter table.

    The predictor does not own the history register — the fetch engine
    maintains one :class:`~repro.branch.history.GlobalHistory` shared by
    every component so checkpoint repair stays consistent.
    """

    def __init__(self, history_bits: int, table_bits: int | None = None):
        if table_bits is None:
            table_bits = history_bits
        if history_bits > table_bits:
            raise ValueError("history must not be wider than the table index")
        self.history_bits = history_bits
        self.table_bits = table_bits
        self.index_mask = (1 << table_bits) - 1
        self.counters = SaturatingCounters(1 << table_bits, bits=2)

    def index(self, pc: int, history: int) -> int:
        return (pc ^ (history & ((1 << self.history_bits) - 1))) & self.index_mask

    def predict(self, pc: int, history: int) -> bool:
        return self.counters.predict(self.index(pc, history))

    def update(self, index: int, taken: bool) -> None:
        """Update using the index captured at prediction time."""
        self.counters.update(index, taken)

    def storage_bits(self) -> int:
        return self.counters.storage_bits()


# ----- frozen copy of repro.branch.pas ---------------------------


class PAsPredictor:
    """Per-address branch history indexing a shared pattern history table.

    The paper's icache configuration uses a PAs component with 15 bits of
    local history and a 4K-entry branch history table.  Local history is
    updated at retire (non-speculatively); this slightly lags fetch, which
    is the standard modeling choice for per-address history and matches a
    retire-updated BHT.
    """

    def __init__(self, history_bits: int = 15, bht_entries: int = 4096):
        if np is None:
            raise RuntimeError(
                "the frozen reference predictor stack requires numpy")
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.bht_entries = bht_entries
        self._bht = np.zeros(bht_entries, dtype=np.int64)
        self.counters = SaturatingCounters(1 << history_bits, bits=2)

    def _bht_index(self, pc: int) -> int:
        return pc % self.bht_entries

    def index(self, pc: int) -> int:
        """PHT index for this branch (its current local history)."""
        return int(self._bht[self._bht_index(pc)])

    def predict(self, pc: int) -> bool:
        return self.counters.predict(self.index(pc))

    def update(self, pc: int, index: int, taken: bool) -> None:
        """Update PHT at the prediction-time index, then shift local history."""
        self.counters.update(index, taken)
        slot = self._bht_index(pc)
        self._bht[slot] = ((int(self._bht[slot]) << 1) | int(taken)) & self.history_mask

    def storage_bits(self) -> int:
        return self.counters.storage_bits() + self.bht_entries * self.history_bits


# ----- frozen copy of repro.branch.hybrid ------------------------


@dataclass(frozen=True)
class HybridPrediction:
    """A prediction plus everything needed to update at resolve time."""

    taken: bool
    gshare_taken: bool
    pas_taken: bool
    gshare_index: int
    pas_index: int
    selector_index: int


class HybridPredictor:
    """gshare + PAs with a 2-bit chooser per gshare index."""

    def __init__(self, history_bits: int = 15, bht_entries: int = 4096):
        self.gshare = GsharePredictor(history_bits=history_bits)
        self.pas = PAsPredictor(history_bits=history_bits, bht_entries=bht_entries)
        # Selector counter high => trust gshare.
        self.selector = SaturatingCounters(1 << history_bits, bits=2)

    def predict(self, pc: int, history: int) -> HybridPrediction:
        gshare_index = self.gshare.index(pc, history)
        pas_index = self.pas.index(pc)
        gshare_taken = self.gshare.counters.predict(gshare_index)
        pas_taken = self.pas.counters.predict(pas_index)
        use_gshare = self.selector.predict(gshare_index)
        return HybridPrediction(
            taken=gshare_taken if use_gshare else pas_taken,
            gshare_taken=gshare_taken,
            pas_taken=pas_taken,
            gshare_index=gshare_index,
            pas_index=pas_index,
            selector_index=gshare_index,
        )

    def update(self, pc: int, prediction: HybridPrediction, taken: bool) -> None:
        """Update both components and steer the selector toward the one
        that was right (no movement when they agree)."""
        self.gshare.update(prediction.gshare_index, taken)
        self.pas.update(pc, prediction.pas_index, taken)
        gshare_right = prediction.gshare_taken == taken
        pas_right = prediction.pas_taken == taken
        if gshare_right != pas_right:
            self.selector.update(prediction.selector_index, gshare_right)

    def storage_bits(self) -> int:
        return (
            self.gshare.storage_bits()
            + self.pas.storage_bits()
            + self.selector.storage_bits()
        )


# ----- frozen copy of repro.branch.multiple ----------------------


#: Tree offsets: counter index of B_i given the actual/predicted outcomes of
#: earlier branches in the same fetch.
def _tree_counter_index(position: int, path: Tuple[bool, ...]) -> int:
    if position == 0:
        return 0
    if position == 1:
        return 1 + int(path[0])
    if position == 2:
        return 3 + (int(path[0]) << 1 | int(path[1]))
    raise ValueError(f"position {position} out of range (max 3 predictions/cycle)")


@dataclass(frozen=True)
class MultiPrediction:
    """Up to three predictions plus the state needed to update later.

    ``indices[i]`` is the table/row index that produced prediction ``i``;
    pass it back to :meth:`update` with the branch's position and the
    *actual* outcomes of earlier same-fetch branches.
    """

    taken: Tuple[bool, bool, bool]
    indices: Tuple[int, int, int]


class MultipleBranchPredictor:
    """The 7-counter-per-row gshare multiple branch predictor."""

    MAX_PREDICTIONS = 3

    def __init__(self, rows_bits: int = 14, history_bits: int | None = None):
        if history_bits is None:
            history_bits = rows_bits
        self.rows_bits = rows_bits
        self.history_bits = history_bits
        self.rows = 1 << rows_bits
        self._history_mask = (1 << history_bits) - 1
        self._row_mask = self.rows - 1
        # Flat bytearray of rows x 7 counters: predict() runs once per
        # fetch, and byte reads sidestep numpy's per-element scalar boxing.
        self._table = bytearray(b"\x01" * (self.rows * 7))

    def row_index(self, pc: int, history: int) -> int:
        return (pc ^ (history & self._history_mask)) & self._row_mask

    def predict(self, pc: int, history: int) -> MultiPrediction:
        """Walk the counter tree using the predictions themselves."""
        row = (pc ^ (history & self._history_mask)) & self._row_mask
        table = self._table
        base = row * 7
        b0 = table[base] >= 2
        b1 = table[base + 1 + b0] >= 2
        b2 = table[base + 3 + (b0 << 1 | b1)] >= 2
        return MultiPrediction(taken=(b0, b1, b2), indices=(row, row, row))

    def update(self, index: int, position: int, path: Tuple[bool, ...], taken: bool) -> None:
        """Train the counter B_position selected by the actual earlier outcomes."""
        slot = index * 7 + _tree_counter_index(position, path)
        value = self._table[slot]
        if taken:
            if value < 3:
                self._table[slot] = value + 1
        elif value > 0:
            self._table[slot] = value - 1

    def storage_bits(self) -> int:
        return self.rows * 7 * 2


class SplitMultiplePredictor:
    """Three separate gshare tables sized 64K/16K/8K counters."""

    MAX_PREDICTIONS = 3

    def __init__(self, table_bits: Sequence[int] = (16, 14, 13), history_bits: int = 14):
        self.tables = [GsharePredictor(history_bits=min(history_bits, bits), table_bits=bits)
                       for bits in table_bits]
        self.history_bits = history_bits

    def predict(self, pc: int, history: int) -> MultiPrediction:
        taken = []
        indices = []
        for table in self.tables:
            index = table.index(pc, history)
            taken.append(table.counters.predict(index))
            indices.append(index)
        return MultiPrediction(taken=tuple(taken), indices=tuple(indices))

    def update(self, index: int, position: int, path: Tuple[bool, ...], taken: bool) -> None:
        """``path`` is accepted for interface parity; the split tables
        condition on position only."""
        self.tables[position].update(index, taken)

    def storage_bits(self) -> int:
        return sum(table.storage_bits() for table in self.tables)


# ----- frozen copy of repro.branch.ras ---------------------------


class IdealReturnAddressStack:
    """An unbounded, never-corrupted RAS — the paper's model.

    Because it tracks calls/returns of the *fetched* (possibly wrong) path
    with unlimited depth, the only way it could mispredict is wrong-path
    corruption; the paper idealizes that away, and so do we by letting the
    core checkpoint and restore the stack pointer (here: full stack state).
    """

    def __init__(self):
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        if self._stack:
            return self._stack.pop()
        return None

    def snapshot(self) -> tuple:
        return tuple(self._stack)

    def restore(self, snapshot: tuple) -> None:
        self._stack = list(snapshot)

    def __len__(self) -> int:
        return len(self._stack)


class ReturnAddressStack(IdealReturnAddressStack):
    """A finite circular RAS that loses the oldest entries on overflow."""

    def __init__(self, depth: int = 32):
        super().__init__()
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth

    def push(self, return_address: int) -> None:
        if len(self._stack) == self.depth:
            del self._stack[0]
        self._stack.append(return_address)


# ----- frozen copy of repro.branch.indirect ----------------------


class LastTargetPredictor:
    """A tagged table mapping an indirect jump's PC to its last target.

    A miss (no entry) means the front end has no target to fetch from —
    accounted as a misfetch; a wrong target is discovered at execute like a
    branch misprediction.
    """

    def __init__(self, entries: int = 1024):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self._tags = [None] * entries
        self._targets = [0] * entries

    def _slot(self, pc: int) -> int:
        return pc % self.entries

    def predict(self, pc: int) -> Optional[int]:
        slot = self._slot(pc)
        if self._tags[slot] == pc:
            return self._targets[slot]
        return None

    def update(self, pc: int, target: int) -> None:
        slot = self._slot(pc)
        self._tags[slot] = pc
        self._targets[slot] = target
