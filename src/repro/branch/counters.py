"""Saturating up/down counter tables, the substrate of every predictor."""

from __future__ import annotations


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
