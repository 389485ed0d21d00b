"""Instruction record: dataflow queries, validation, disassembly."""

import copy
import dataclasses
import pickle

import pytest

from repro.isa.instruction import Instruction, NUM_REGS, REG_LINK
from repro.isa.opcodes import Opcode


def inst(op, **kwargs):
    return Instruction(addr=kwargs.pop("addr", 0), op=op, **kwargs)


def test_reg3_dataflow():
    i = inst(Opcode.ADD, rd=3, rs1=1, rs2=2)
    assert i.src_regs() == (1, 2)
    assert i.dest_reg() == 3


def test_zero_register_excluded_from_sources():
    i = inst(Opcode.ADD, rd=3, rs1=0, rs2=2)
    assert i.src_regs() == (2,)


def test_write_to_r0_is_discarded():
    i = inst(Opcode.ADD, rd=0, rs1=1, rs2=2)
    assert i.dest_reg() is None


def test_imm_dataflow():
    i = inst(Opcode.ADDI, rd=4, rs1=7, imm=10)
    assert i.src_regs() == (7,)
    assert i.dest_reg() == 4


def test_load_dataflow():
    i = inst(Opcode.LD, rd=5, rs1=6, imm=8)
    assert i.src_regs() == (6,)
    assert i.dest_reg() == 5


def test_store_reads_base_and_data():
    i = inst(Opcode.ST, rs1=6, rs2=7, imm=8)
    assert set(i.src_regs()) == {6, 7}
    assert i.dest_reg() is None


def test_branch_reads_both_operands():
    i = inst(Opcode.BNE, rs1=1, rs2=2, target=10)
    assert i.src_regs() == (1, 2)
    assert i.dest_reg() is None


def test_call_writes_link_register():
    i = inst(Opcode.CALL, target=50)
    assert i.dest_reg() == REG_LINK
    assert i.src_regs() == ()


def test_ret_reads_link_register():
    i = inst(Opcode.RET)
    assert i.src_regs() == (REG_LINK,)


def test_jr_reads_its_register():
    i = inst(Opcode.JR, rs1=9)
    assert i.src_regs() == (9,)


def test_lui_has_no_sources():
    i = inst(Opcode.LUI, rd=2, imm=5)
    assert i.src_regs() == ()
    assert i.dest_reg() == 2


def test_fall_through():
    i = inst(Opcode.NOP, addr=41)
    assert i.fall_through == 42


def test_register_range_validated():
    with pytest.raises(ValueError):
        Instruction(addr=0, op=Opcode.ADD, rd=NUM_REGS, rs1=0, rs2=0)
    with pytest.raises(ValueError):
        Instruction(addr=0, op=Opcode.ADD, rd=1, rs1=-1, rs2=0)


def test_direct_control_requires_target():
    with pytest.raises(ValueError):
        Instruction(addr=0, op=Opcode.BEQ, rs1=1, rs2=2)
    with pytest.raises(ValueError):
        Instruction(addr=0, op=Opcode.JMP)


def test_indirect_control_needs_no_target():
    Instruction(addr=0, op=Opcode.JR, rs1=1)
    Instruction(addr=0, op=Opcode.RET)


def test_instruction_is_immutable():
    i = inst(Opcode.ADD, rd=1, rs1=2, rs2=3)
    with pytest.raises(Exception):
        i.rd = 5


def test_instruction_is_a_slotted_frozen_dataclass():
    """Built through its writable twin, an instruction ends up an
    ordinary frozen dataclass instance, with no ``__dict__``."""
    i = inst(Opcode.BNE, addr=4, rs1=1, rs2=2, target=9)
    assert type(i) is Instruction and not hasattr(i, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        i.target = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del i.op
    twin = Instruction(4, Opcode.BNE, 0, 1, 2, 0, 9)
    assert twin == i and hash(twin) == hash(i) and twin is not i
    assert i != dataclasses.replace(i, target=8)
    assert dataclasses.replace(i, target=8).target == 8
    assert repr(i) == ("Instruction(addr=4, op=<Opcode.BNE: ('BNE', <OpClass.COND_BRANCH: "
                       "'cond_branch'>)>, rd=0, rs1=1, rs2=2, imm=0, target=9)")
    for copied in (pickle.loads(pickle.dumps(i)), copy.copy(i), copy.deepcopy(i)):
        assert copied == i and copied.src_regs() == (1, 2)


@pytest.mark.parametrize("op,kwargs,text", [
    (Opcode.ADD, dict(rd=1, rs1=2, rs2=3), "ADD r1, r2, r3"),
    (Opcode.ADDI, dict(rd=1, rs1=2, imm=-4), "ADDI r1, r2, -4"),
    (Opcode.LD, dict(rd=1, rs1=2, imm=8), "LD r1, 8(r2)"),
    (Opcode.ST, dict(rs1=2, rs2=1, imm=8), "ST r1, 8(r2)"),
    (Opcode.BNE, dict(rs1=1, rs2=0, target=7), "BNE r1, r0, 7"),
    (Opcode.JMP, dict(target=9), "JMP 9"),
    (Opcode.JR, dict(rs1=3), "JR r3"),
    (Opcode.RET, dict(), "RET"),
    (Opcode.HALT, dict(), "HALT"),
])
def test_disassembly(op, kwargs, text):
    assert inst(op, **kwargs).disassemble() == text


def test_str_includes_address():
    assert str(inst(Opcode.NOP, addr=12)).startswith("    12:")


# --- opcode-wide dataflow table --------------------------------------------

#: Opcode -> (registers read, register written), by operand name: "rd",
#: "rs1", "rs2", "link" (r31).  r0 never appears in ``src_regs()`` and a
#: write to r0 gives ``dest_reg() is None``.
DATAFLOW = {
    **{op: (("rs1", "rs2"), "rd") for op in (
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.SLT, Opcode.MUL)},
    **{op: (("rs1",), "rd") for op in (
        Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI)},
    Opcode.LUI: ((), "rd"),
    Opcode.LD: (("rs1",), "rd"),
    Opcode.ST: (("rs1", "rs2"), None),
    **{op: (("rs1", "rs2"), None) for op in (
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE)},
    Opcode.JMP: ((), None),
    Opcode.CALL: ((), "link"),
    Opcode.RET: (("link",), None),
    Opcode.JR: (("rs1",), None),
    Opcode.TRAP: ((), None),
    Opcode.NOP: ((), None),
    Opcode.HALT: ((), None),
}

#: Opcodes that must carry a static target.
DIRECT = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP, Opcode.CALL}

OPERAND_SETS = [
    dict(rd=5, rs1=6, rs2=7),
    dict(rd=0, rs1=6, rs2=7),
    dict(rd=5, rs1=0, rs2=7),
    dict(rd=5, rs1=6, rs2=0),
    dict(rd=0, rs1=0, rs2=0),
    dict(rd=REG_LINK, rs1=REG_LINK, rs2=1),
]


def test_dataflow_table_covers_every_opcode():
    assert set(DATAFLOW) == set(Opcode)


@pytest.mark.parametrize("operands", OPERAND_SETS, ids=lambda o: "-".join(map(str, o.values())))
@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
def test_dataflow_matches_table(op, operands):
    i = inst(op, target=3 if op in DIRECT else None, **operands)
    regs = dict(operands, link=REG_LINK)
    sources, dest = DATAFLOW[op]
    assert i.src_regs() == tuple(regs[s] for s in sources if regs[s] != 0)
    written = regs[dest] if dest is not None else 0
    assert i.dest_reg() == (written if written != 0 else None)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
def test_register_range_error_for_every_opcode(op):
    target = 3 if op in DIRECT else None
    for name in ("rd", "rs1", "rs2"):
        for value in (NUM_REGS, -1):
            with pytest.raises(ValueError,
                               match=rf"^{name}={value} out of range for {op.mnemonic}$"):
                inst(op, target=target, **{name: value})


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
def test_missing_target_error_for_every_opcode(op):
    if op in DIRECT:
        with pytest.raises(ValueError, match=rf"^{op.mnemonic} at 9 requires a target$"):
            inst(op, addr=9)
    else:
        assert inst(op, addr=9).target is None
