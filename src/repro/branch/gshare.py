"""The gshare single-branch predictor (McFarling)."""

from __future__ import annotations

from repro.branch.counters import SaturatingCounters


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
