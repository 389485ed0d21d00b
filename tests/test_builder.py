"""CodeBuilder / DataBuilder label resolution and fixups."""

import pytest

from repro.isa.opcodes import Opcode
from repro.workloads.builder import CodeBuilder, DataBuilder, finish_program


def test_emit_and_resolve_simple():
    builder = CodeBuilder()
    builder.label("main")
    builder.addi(1, 0, 5)
    builder.emit(Opcode.HALT)
    instructions, symbols = builder.resolve()
    assert symbols == {"main": 0}
    assert [i.op for i in instructions] == [Opcode.ADDI, Opcode.HALT]


def test_forward_label_resolution():
    builder = CodeBuilder()
    builder.label("main")
    target = builder.new_label("end")
    builder.jump(target)
    builder.emit(Opcode.NOP)
    builder.label(target)
    builder.emit(Opcode.HALT)
    instructions, _symbols = builder.resolve()
    assert instructions[0].target == 2


def test_backward_branch():
    builder = CodeBuilder()
    top = builder.label("top")
    builder.addi(1, 1, -1)
    builder.branch(Opcode.BNE, 1, 0, top)
    instructions, _ = builder.resolve()
    assert instructions[1].target == 0


def test_unique_label_generation():
    builder = CodeBuilder()
    labels = {builder.new_label() for _ in range(100)}
    assert len(labels) == 100


def test_duplicate_label_rejected():
    builder = CodeBuilder()
    builder.label("x")
    with pytest.raises(ValueError, match="already placed"):
        builder.label("x")


def test_undefined_target_rejected():
    builder = CodeBuilder()
    builder.jump("nowhere")
    with pytest.raises(ValueError, match="undefined code label"):
        builder.resolve()


def test_branch_helper_rejects_non_branch():
    builder = CodeBuilder()
    with pytest.raises(ValueError):
        builder.branch(Opcode.JMP, 1, 0, "x")


def test_data_label_binding():
    code = CodeBuilder()
    data = DataBuilder()
    data.array("arr", [1, 2, 3])
    code.label("main")
    code.load(1, 0, "arr")
    code.emit(Opcode.HALT)
    program = finish_program(code, data, name="t")
    assert program.instructions[0].imm == 0
    assert program.data[0] == 1


def test_unbound_data_label_rejected():
    code = CodeBuilder()
    code.load(1, 0, "missing")
    with pytest.raises(ValueError):
        code.resolve()


def test_data_builder_layout():
    data = DataBuilder()
    a = data.array("a", [5, 0, 7])
    b = data.space("b", 10)
    c = data.array("c", [1])
    assert (a, b, c) == (0, 3, 13)
    image = data.image
    assert image[0] == 5 and image[2] == 7 and image[13] == 1
    assert 1 not in image  # zeros are sparse


def test_data_array_pads_to_size():
    data = DataBuilder()
    a = data.array("a", [5, 0, 7], size=6)
    b = data.array("b", [1])
    assert (a, b) == (0, 6)
    assert data.image == {0: 5, 2: 7, 6: 1}
    with pytest.raises(ValueError, match="size 1 < 2 values"):
        data.array("c", [1, 2], size=1)


def test_jump_table_patching():
    code = CodeBuilder()
    data = DataBuilder()
    data.jump_table("jt", ["case_a", "case_b"])
    code.label("main")
    code.emit(Opcode.HALT)
    code.label("case_a")
    code.emit(Opcode.NOP)
    code.label("case_b")
    code.emit(Opcode.NOP)
    program = finish_program(code, data, name="t")
    base = program.data_symbols["jt"]
    assert program.data[base] == program.symbols["case_a"]
    assert program.data[base + 1] == program.symbols["case_b"]


def test_jump_table_undefined_entry():
    code = CodeBuilder()
    data = DataBuilder()
    data.jump_table("jt", ["missing"])
    code.label("main")
    code.emit(Opcode.HALT)
    with pytest.raises(ValueError, match="undefined"):
        finish_program(code, data, name="t")


def test_duplicate_data_label():
    data = DataBuilder()
    data.array("x", [1])
    with pytest.raises(ValueError):
        data.array("x", [2])


def test_here_tracks_position():
    builder = CodeBuilder()
    assert builder.here == 0
    builder.emit(Opcode.NOP)
    assert builder.here == 1
    assert len(builder) == 1
