"""PAs two-level predictor: per-address history, shared pattern tables."""

from __future__ import annotations

from repro.branch.counters import SaturatingCounters


class PAsPredictor:
    """Per-address branch history indexing a shared pattern history table.

    The paper's icache configuration uses a PAs component with 15 bits of
    local history and a 4K-entry branch history table.  Local history is
    updated at retire (non-speculatively); this slightly lags fetch, which
    is the standard modeling choice for per-address history and matches a
    retire-updated BHT.

    The BHT is a plain list of masked ints: each entry is a local-history
    shift register, read once per prediction and updated with one shift-OR
    per retire.  (A numpy vector here boxed every single-element read into
    a numpy scalar — the opposite of what this access pattern wants.)
    """

    def __init__(self, history_bits: int = 15, bht_entries: int = 4096):
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.bht_entries = bht_entries
        self._bht = [0] * bht_entries
        self.counters = SaturatingCounters(1 << history_bits, bits=2)

    def _bht_index(self, pc: int) -> int:
        return pc % self.bht_entries

    def index(self, pc: int) -> int:
        """PHT index for this branch (its current local history)."""
        return self._bht[pc % self.bht_entries]

    def predict(self, pc: int) -> bool:
        return self.counters.predict(self._bht[pc % self.bht_entries])

    def update(self, pc: int, index: int, taken: bool) -> None:
        """Update PHT at the prediction-time index, then shift local history."""
        self.counters.update(index, taken)
        slot = pc % self.bht_entries
        self._bht[slot] = ((self._bht[slot] << 1) | int(taken)) & self.history_mask

    def storage_bits(self) -> int:
        return self.counters.storage_bits() + self.bht_entries * self.history_bits
