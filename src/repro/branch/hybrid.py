"""Hybrid (tournament) predictor for the icache reference configuration.

Per the paper's Section 3: a gshare component with 15 bits of global
history, a PAs component with 15 bits of local history and a 4K-entry
branch history table, and a selector accessed with the same 15-bit index as
the gshare component (~32KB total).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.branch.counters import SaturatingCounters
from repro.branch.gshare import GsharePredictor
from repro.branch.pas import PAsPredictor


class HybridPrediction(NamedTuple):
    """A prediction plus everything needed to update at resolve time.

    A NamedTuple, not a dataclass: one is allocated per predicted branch on
    the icache front end's hot path, and tuple construction is several
    times cheaper than dataclass ``__init__``.
    """

    taken: bool
    gshare_taken: bool
    pas_taken: bool
    gshare_index: int
    pas_index: int
    selector_index: int


class HybridPredictor:
    """gshare + PAs with a 2-bit chooser per gshare index.

    ``predict`` reads the three counter bytearrays directly: every index it
    computes is already masked to its table size, so the generic
    ``SaturatingCounters.predict`` modulo-and-compare wrapper is redundant
    on this path (the tables stay shared with the component predictors, so
    training through either view hits the same storage).
    """

    def __init__(self, history_bits: int = 15, bht_entries: int = 4096):
        self.gshare = GsharePredictor(history_bits=history_bits)
        self.pas = PAsPredictor(history_bits=history_bits, bht_entries=bht_entries)
        # Selector counter high => trust gshare.
        self.selector = SaturatingCounters(1 << history_bits, bits=2)
        # Hot-path aliases: raw counter tables plus the index masks.
        self._gshare_table = self.gshare.counters._table
        self._pas_table = self.pas.counters._table
        self._selector_table = self.selector._table
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = self.gshare.index_mask
        self._bht = self.pas._bht
        self._bht_entries = bht_entries

    def predict(self, pc: int, history: int) -> HybridPrediction:
        gshare_index = (pc ^ (history & self._history_mask)) & self._index_mask
        pas_index = self._bht[pc % self._bht_entries]
        gshare_taken = self._gshare_table[gshare_index] >= 2
        pas_taken = self._pas_table[pas_index] >= 2
        return HybridPrediction(
            taken=gshare_taken if self._selector_table[gshare_index] >= 2 else pas_taken,
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

    def update_batch(self, tokens, metas) -> None:
        """Train one fetch's branches in a single call.

        ``tokens[k]`` is the :class:`HybridPrediction` captured at fetch
        time and ``metas[k]`` the compiled fetch block's ``(pc, taken)``
        training record.  Identical counter and local-history movements
        to calling :meth:`update` per branch, with the saturating updates
        inlined (every captured index is already masked to its table).
        """
        gshare_table = self._gshare_table
        pas_table = self._pas_table
        selector_table = self._selector_table
        bht = self._bht
        bht_entries = self._bht_entries
        history_mask = self.pas.history_mask
        for k, (pc, taken) in enumerate(metas):
            prediction = tokens[k]
            for table, index in ((gshare_table, prediction.gshare_index),
                                 (pas_table, prediction.pas_index)):
                value = table[index]
                if taken:
                    if value < 3:
                        table[index] = value + 1
                elif value > 0:
                    table[index] = value - 1
            slot = pc % bht_entries
            bht[slot] = ((bht[slot] << 1) | taken) & history_mask
            gshare_right = prediction.gshare_taken == taken
            if gshare_right != (prediction.pas_taken == taken):
                index = prediction.selector_index
                value = selector_table[index]
                if gshare_right:
                    if value < 3:
                        selector_table[index] = value + 1
                elif value > 0:
                    selector_table[index] = value - 1

    def storage_bits(self) -> int:
        return (
            self.gshare.storage_bits()
            + self.pas.storage_bits()
            + self.selector.storage_bits()
        )
