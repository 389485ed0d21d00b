"""Branch prediction structures: counters, gshare, PAs, hybrid, multiple."""

import random

import pytest

from repro.branch import (
    GlobalHistory,
    GsharePredictor,
    HybridPredictor,
    IdealReturnAddressStack,
    LastTargetPredictor,
    MultipleBranchPredictor,
    PAsPredictor,
    ReturnAddressStack,
    SaturatingCounters,
    SplitMultiplePredictor,
)


# --- saturating counters ------------------------------------------------

def test_counter_initial_state_weakly_not_taken():
    counters = SaturatingCounters(16)
    assert not counters.predict(0)
    assert counters.value(0) == 1


def test_counter_hysteresis():
    counters = SaturatingCounters(4)
    counters.update(0, True)   # 1 -> 2: now predicts taken
    assert counters.predict(0)
    counters.update(0, False)  # 2 -> 1
    assert not counters.predict(0)


def test_counter_saturation():
    counters = SaturatingCounters(4)
    for _ in range(10):
        counters.update(0, True)
    assert counters.value(0) == 3
    for _ in range(10):
        counters.update(0, False)
    assert counters.value(0) == 0


def test_counter_index_wraps():
    counters = SaturatingCounters(8)
    counters.update(3, True)
    assert counters.value(11) == counters.value(3)


def test_counter_storage_bits():
    assert SaturatingCounters(1024, bits=2).storage_bits() == 2048


def test_counter_invalid_args():
    with pytest.raises(ValueError):
        SaturatingCounters(0)
    with pytest.raises(ValueError):
        SaturatingCounters(8, bits=0)
    with pytest.raises(ValueError):
        SaturatingCounters(8, bits=2, init=4)


def test_three_bit_counter_threshold():
    counters = SaturatingCounters(4, bits=3)
    assert counters.threshold == 4
    for _ in range(4):
        counters.update(0, True)
    assert counters.predict(0)


# --- global history -------------------------------------------------------

def test_history_shift_and_mask():
    ghr = GlobalHistory(4)
    for outcome in (True, False, True, True):
        ghr.push(outcome)
    assert ghr.value == 0b1011
    ghr.push(True)
    assert ghr.value == 0b0111  # oldest bit shifted out


def test_history_snapshot_restore():
    ghr = GlobalHistory(8)
    ghr.push(True)
    snap = ghr.snapshot()
    ghr.push(False)
    ghr.push(False)
    ghr.restore(snap)
    assert ghr.value == snap == 1


# --- gshare ---------------------------------------------------------------

def test_gshare_learns_a_bias():
    predictor = GsharePredictor(history_bits=8)
    history = 0
    index = predictor.index(100, history)
    for _ in range(4):
        predictor.update(index, True)
    assert predictor.predict(100, history)


def test_gshare_index_xors_history():
    predictor = GsharePredictor(history_bits=8)
    assert predictor.index(0b1100, 0b1010) == 0b0110


def test_gshare_history_wider_than_table_rejected():
    with pytest.raises(ValueError):
        GsharePredictor(history_bits=16, table_bits=8)


def test_gshare_learns_alternating_pattern_with_history():
    """With history, gshare disambiguates a strict alternation."""
    predictor = GsharePredictor(history_bits=8)
    ghr = GlobalHistory(8)
    pc = 0x40
    correct = 0
    total = 400
    outcome = True
    for i in range(total):
        index = predictor.index(pc, ghr.value)
        prediction = predictor.counters.predict(index)
        if prediction == outcome:
            correct += 1
        predictor.update(index, outcome)
        ghr.push(outcome)
        outcome = not outcome
    assert correct / total > 0.9


# --- PAs --------------------------------------------------------------------

def test_pas_learns_per_branch_pattern():
    predictor = PAsPredictor(history_bits=10, bht_entries=64)
    pc = 0x77
    pattern = [True, True, False]
    correct = 0
    total = 600
    for i in range(total):
        outcome = pattern[i % 3]
        index = predictor.index(pc)
        if predictor.counters.predict(index) == outcome:
            correct += 1
        predictor.update(pc, index, outcome)
    assert correct / total > 0.9


def test_pas_separate_histories():
    predictor = PAsPredictor(history_bits=10, bht_entries=64)
    for _ in range(8):
        index = predictor.index(1)
        predictor.update(1, index, True)
    assert predictor.index(1) != 0
    assert predictor.index(2) == 0  # untouched branch, empty history


# --- hybrid ---------------------------------------------------------------

def test_hybrid_prediction_structure():
    predictor = HybridPredictor(history_bits=10)
    prediction = predictor.predict(0x10, 0)
    assert prediction.taken in (True, False)
    predictor.update(0x10, prediction, True)


def test_hybrid_selector_moves_toward_better_component():
    predictor = HybridPredictor(history_bits=10)
    pc = 0x20
    # Train a case where PAs is right and gshare is wrong: per-branch
    # always-taken with noisy global history.
    import random
    rng = random.Random(7)
    for _ in range(300):
        history = rng.getrandbits(10)
        prediction = predictor.predict(pc, history)
        predictor.update(pc, prediction, True)
    prediction = predictor.predict(pc, rng.getrandbits(10))
    assert prediction.pas_taken  # PAs has surely learned always-taken


def test_hybrid_storage_accounting():
    predictor = HybridPredictor(history_bits=15)
    # gshare 2^15 x 2b + PAs (2^15 x 2b + 4096 x 15b) + selector 2^15 x 2b
    expected = 3 * (1 << 15) * 2 + 4096 * 15
    assert predictor.storage_bits() == expected


# --- multiple branch predictor ------------------------------------------------

def test_multiple_gives_three_predictions():
    predictor = MultipleBranchPredictor(rows_bits=8)
    prediction = predictor.predict(0x30, 0)
    assert len(prediction.taken) == 3
    assert len(prediction.indices) == 3


def test_multiple_tree_counters_are_conditioned():
    """B1's counter depends on B0's actual direction."""
    predictor = MultipleBranchPredictor(rows_bits=6)
    row = predictor.row_index(0x11, 0)
    # Train: after B0 taken, B1 is taken; after B0 not-taken, B1 not-taken.
    for _ in range(8):
        predictor.update(row, 0, (), True)
        predictor.update(row, 1, (True,), True)
        predictor.update(row, 1, (False,), False)
    assert predictor._table[row * 7 + 1 + 1] >= 2   # path (True,)
    assert predictor._table[row * 7 + 1 + 0] <= 1   # path (False,)


def test_multiple_storage_is_32kb():
    predictor = MultipleBranchPredictor(rows_bits=14)
    assert predictor.storage_bits() == (1 << 14) * 7 * 2  # 28KB of counters


def test_multiple_update_positions():
    predictor = MultipleBranchPredictor(rows_bits=6)
    row = 5
    predictor.update(row, 2, (True, False), True)
    assert predictor._table[row * 7 + 3 + 0b10] == 2
    with pytest.raises(ValueError):
        predictor.update(row, 3, (True, True, True), True)


def test_split_predictor_uses_separate_tables():
    predictor = SplitMultiplePredictor(table_bits=(8, 7, 6), history_bits=6)
    prediction = predictor.predict(0x44, 0b101)
    assert len(prediction.taken) == 3
    predictor.update(prediction.indices[1], 1, (True,), True)
    assert predictor.tables[1].counters.value(prediction.indices[1]) == 2


def test_split_predictor_paper_sizing():
    predictor = SplitMultiplePredictor()  # 64K/16K/8K counters
    assert predictor.storage_bits() == ((1 << 16) + (1 << 14) + (1 << 13)) * 2


@pytest.mark.parametrize("which", ["tree", "split"])
def test_multiple_update_batch_parity(which):
    """update_batch moves the same counters as per-branch update."""
    def build():
        if which == "tree":
            return MultipleBranchPredictor(rows_bits=8)
        return SplitMultiplePredictor(table_bits=(8, 7, 6), history_bits=7)

    def state(predictor):
        if which == "tree":
            return bytes(predictor._table)
        return tuple(bytes(t.counters._table) for t in predictor.tables)

    rng = random.Random(13)
    sequential, batched = build(), build()
    for _ in range(2_000):
        count = rng.randrange(1, 4)
        path = tuple(rng.random() < 0.5 for _ in range(2))
        metas = [(path[:k], rng.random() < 0.6) for k in range(count)]
        tokens = tuple(rng.randrange(1 << 6) for _ in range(3))
        for k, (p, taken) in enumerate(metas):
            sequential.update(tokens[k], k, p, taken)
        batched.update_batch(tokens, metas)
        assert state(batched) == state(sequential)


# --- RAS -----------------------------------------------------------------------

def test_ideal_ras_lifo():
    ras = IdealReturnAddressStack()
    ras.push(10)
    ras.push(20)
    assert ras.pop() == 20
    assert ras.pop() == 10
    assert ras.pop() is None


def test_ideal_ras_snapshot_restore():
    ras = IdealReturnAddressStack()
    ras.push(10)
    snap = ras.snapshot()
    ras.push(20)
    ras.pop(); ras.pop()
    ras.restore(snap)
    assert ras.pop() == 10


def test_finite_ras_overflow_drops_oldest():
    ras = ReturnAddressStack(depth=2)
    ras.push(1); ras.push(2); ras.push(3)
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert ras.pop() is None  # 1 was dropped


def test_finite_ras_rejects_bad_depth():
    with pytest.raises(ValueError):
        ReturnAddressStack(depth=0)


# --- indirect -------------------------------------------------------------------

def test_last_target_predictor():
    predictor = LastTargetPredictor(entries=16)
    assert predictor.predict(100) is None
    predictor.update(100, 555)
    assert predictor.predict(100) == 555
    predictor.update(100, 666)
    assert predictor.predict(100) == 666


def test_last_target_tag_conflict():
    predictor = LastTargetPredictor(entries=16)
    predictor.update(4, 111)
    predictor.update(20, 222)  # same slot, different tag
    assert predictor.predict(4) is None
    assert predictor.predict(20) == 222
