"""Generator internals: context arrays, register discipline, structure,
scalar draws served in Python, and the bulk data image."""

import numpy as np
import pytest

from repro.isa import FunctionalExecutor
from repro.isa.opcodes import Opcode
from repro.workloads import generate_program
from repro.workloads.builder import DataBuilder
from repro.workloads.draws import Draws
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import get_profile


@pytest.fixture(scope="module")
def generator():
    gen = WorkloadGenerator(get_profile("compress"))
    gen.generate()
    return gen


def test_every_phase_has_a_context_array(generator):
    assert generator._ctx_counter >= get_profile("compress").n_phases


def test_context_arrays_hold_small_values():
    gen = WorkloadGenerator(get_profile("compress"))
    label, period = gen._new_context_array()
    base = gen.data.symbols[label]
    values = [gen.data.image.get(base + i, 0) for i in range(period)]
    assert all(0 <= v <= 7 for v in values)
    # Slowly varying: consecutive values differ rarely.
    changes = sum(1 for a, b in zip(values, values[1:]) if a != b)
    assert changes < period * 0.5


def test_program_structure_labels():
    program = generate_program("compress")
    profile = get_profile("compress")
    for i in range(profile.n_phases):
        assert f"phase_{i}" in program.symbols
    assert "main" in program.symbols
    assert any(name.startswith("util_") for name in program.symbols)


def test_phase_functions_save_the_link_register():
    """Non-leaf functions must spill r31 or nested calls would corrupt it."""
    program = generate_program("compress")
    phase_addr = program.symbols["phase_0"]
    prologue = program.instructions[phase_addr:phase_addr + 2]
    assert prologue[0].op is Opcode.ADDI and prologue[0].rd == 30
    assert prologue[1].op is Opcode.ST and prologue[1].rs2 == 31


def test_stack_pointer_balances():
    """After any bounded run, SP must sit within the stack region — calls
    and returns balance."""
    from repro.isa.executor import STACK_BASE
    program = generate_program("li")
    executor = FunctionalExecutor(program, max_instructions=30_000)
    executor.run_to_completion()
    sp = executor.state.regs[30]
    assert STACK_BASE - 64 <= sp <= STACK_BASE


def test_jump_tables_target_valid_code():
    program = generate_program("perl")
    limit = len(program)
    for name, base in program.data_symbols.items():
        if not name.startswith("jt_"):
            continue
        offset = 0
        while (base + offset) in program.data and name.startswith("jt_"):
            target = program.data[base + offset]
            if offset == 0 or target:  # table entries are code addresses
                assert 0 <= target < limit
            offset += 1
            if offset > 16:
                break


def test_bias_arrays_are_binary():
    program = generate_program("compress")
    for name, base in program.data_symbols.items():
        if not name.startswith("bias_"):
            continue
        for offset in range(8):
            value = program.data.get(base + offset, 0)
            assert value in (0, 1)


def test_distinct_seeds_change_site_count():
    a = WorkloadGenerator(get_profile("compress"), seed=1)
    b = WorkloadGenerator(get_profile("compress"), seed=2)
    a.generate(); b.generate()
    assert (a._site_counter, len(a.code)) != (b._site_counter, len(b.code))


def test_working_set_validation():
    from dataclasses import replace
    bad = replace(get_profile("compress"), working_set_words=1000)  # not 2^n
    with pytest.raises(ValueError):
        WorkloadGenerator(bad)


# --- scalar draws served in Python ------------------------------------------

#: Range sizes ``hi - lo`` for bounded draws.  Up to 2**32 - 1 they take
#: Lemire's method on 32-bit draws, and 2**31 + 1 rejects about half of
#: them; 2**32 is one plain 32-bit draw.  Wider ranges go to numpy.
RANGE_SIZES = [1, 2, 3, 5, 7, 8, 100, 1000, 2**16 + 1, 2**31 - 1, 2**31,
               2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1,
               2**40 + 3, 2**63 + 5, 2**64]


def _pair(seed):
    """A numpy generator and a ``Draws`` over an identical one."""
    return np.random.default_rng(seed), Draws(np.random.default_rng(seed))


def _raw_words_used(seed, state):
    """How many raw PCG64 words lead from ``seed`` to ``state``."""
    probe = np.random.PCG64(seed)
    for used in range(10_000):
        if probe.state["state"] == state["state"]:
            return used
        probe.advance(1)
    raise AssertionError("state not reached from the seed")


@pytest.mark.parametrize("size", RANGE_SIZES)
def test_bounded_draws_match_numpy(size):
    ref, draws = _pair(size % 1000)
    lows = [0, -7, 12345] if size <= 2**63 else [-2**63]
    for low in lows:
        for _ in range(200):
            expected = ref.integers(low, low + size)
            got = draws.integers(low, low + size)
            assert got == expected
            assert (type(got) is int) == (size <= 2**32)
    assert draws.bit_generator.state == ref.bit_generator.state


def test_rejection_consumes_extra_draws():
    """2**31 + 1 rejects about half its 32-bit draws, and the values
    still match: more than one raw word per two draws was consumed."""
    ref, draws = _pair(7)
    for _ in range(200):
        assert draws.integers(0, 2**31 + 1) == ref.integers(0, 2**31 + 1)
    assert _raw_words_used(7, draws.bit_generator.state) > 150


def test_doubles_match_numpy():
    ref, draws = _pair(3)
    bounds = [(0.0, 1.0), (0.95, 0.98), (-2.5, 7), (3, 3), (1e-300, 1e300)]
    for _ in range(300):
        assert draws.random() == ref.random()
        for low, high in bounds:
            expected = ref.uniform(low, high)
            got = draws.uniform(low, high)
            assert type(got) is float and got == expected
    assert draws.bit_generator.state == ref.bit_generator.state


def test_draws_interleave_with_array_draws():
    """Scalar draws served in Python, array draws by numpy, in a seeded
    random order: the values and the final state match numpy's own."""
    ref, draws = _pair(11)
    order = np.random.default_rng(99)
    for step in range(3000):
        kind = int(order.integers(0, 8))
        if kind == 0:
            size = int(order.choice([3, 2**31 + 1, 2**32 - 1, 2**40]))
            assert draws.integers(0, size) == ref.integers(0, size)
        elif kind == 1:
            assert draws.random() == ref.random()
        elif kind == 2:
            assert draws.uniform(0.62, 0.75) == ref.uniform(0.62, 0.75)
        elif kind == 3:
            assert (draws.choice(40, size=6, replace=False).tolist()
                    == ref.choice(40, size=6, replace=False).tolist())
        elif kind == 4:
            labels = ["a", "b", "c", "d", "e"]
            assert (draws.choice(labels, size=2, replace=False).tolist()
                    == ref.choice(labels, size=2, replace=False).tolist())
        elif kind == 5:
            weights = [0.4, 0.3, 0.2, 0.1]
            assert (draws.choice(4, size=16, p=weights).tolist()
                    == ref.choice(4, size=16, p=weights).tolist())
        elif kind == 6:
            assert (draws.integers(0, 256, size=9).tolist()
                    == ref.integers(0, 256, size=9).tolist())
        else:
            mine, theirs = list(range(12)), list(range(12))
            draws.shuffle(mine)
            ref.shuffle(theirs)
            assert mine == theirs
    assert draws.bit_generator.state == ref.bit_generator.state


def test_draws_reject_other_bit_generators():
    with pytest.raises(TypeError):
        Draws(np.random.Generator(np.random.MT19937(1)))


# --- the bulk data image ------------------------------------------------------


def _image_as_before(arrays):
    """The data image word by word, as ``DataBuilder`` used to fill it."""
    image, cursor = {}, 0
    for values, size in arrays:
        for offset, value in enumerate(values):
            if int(value):
                image[cursor + offset] = int(value)
        cursor += len(values) if size is None else size
    return image


def test_bulk_data_array_matches_word_by_word_image():
    arrays = [
        ([5, 0, 7, 0, 0], None),                        # zero words
        (np.array([3, 0, -4, 2**40], dtype=np.int64), None),  # numpy array
        ([np.int64(9), np.int32(0), np.uint8(200)], None),    # numpy scalars
        ([True, False, True], None),                    # bools
        ([-1, -2**63, 0, 2**70], None),                 # negative, wide
        ([1, 0, 2], 10),                                # size= padding
        ([], 4),                                        # space
        ([0, 0, 0], None),                              # all zero
    ]
    data = DataBuilder()
    for index, (values, size) in enumerate(arrays):
        data.array(f"a{index}", values, size=size)
    expected = _image_as_before(arrays)
    image = data.image
    assert list(image.items()) == list(expected.items())  # order too
    assert all(type(word) is int for word in image.values())
    assert data.cursor == 5 + 4 + 3 + 3 + 4 + 10 + 4 + 3
