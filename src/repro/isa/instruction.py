"""The :class:`Instruction` record and register-file conventions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.opcodes import Opcode, BRANCH_OPS, REG3_OPS, REG_IMM_OPS

#: Number of architectural integer registers.  ``r0`` is hard-wired to zero.
NUM_REGS = 32

#: Register hard-wired to zero.
REG_ZERO = 0

#: Stack-pointer convention used by generated code.
REG_SP = 30

#: Link register written by ``CALL`` and read by ``RET``.
REG_LINK = 31

#: Bytes per instruction; instruction caches index with ``addr * INST_BYTES``.
INST_BYTES = 4


#: Dataflow shape markers for :data:`_SHAPES`.
_RS1 = "rs1"
_RS1_RS2 = "rs1, rs2"
_RD = "rd"


def _shape(op: Opcode) -> tuple:
    """``(sources, destination, needs target)`` for one opcode.

    ``sources`` is :data:`_RS1`, :data:`_RS1_RS2` (r0 dropped when the
    instruction is built) or a fixed register tuple; ``destination`` is
    :data:`_RD` (None when rd is r0), a fixed register or None.
    """
    if op in REG3_OPS or op in BRANCH_OPS or op is Opcode.ST:
        sources = _RS1_RS2  # ST reads its address base and its data
    elif op in REG_IMM_OPS or op is Opcode.LD or op is Opcode.JR:
        sources = _RS1
    elif op is Opcode.RET:
        sources = (REG_LINK,)
    else:
        sources = ()
    if op in REG3_OPS or op in REG_IMM_OPS or op in (Opcode.LD, Opcode.LUI):
        dest = _RD
    elif op is Opcode.CALL:
        dest = REG_LINK
    else:
        dest = None
    return sources, dest, op.is_direct_control


#: Per-opcode dataflow shape, read once per instruction built.  Keyed by
#: mnemonic: a str key hashes in C, an :class:`Opcode` key through
#: ``Enum.__hash__`` in Python.
_SHAPES = {op.mnemonic: _shape(op) for op in Opcode}


class _Slots:
    """Storage for :class:`Instruction`: its fields and cached dataflow."""

    __slots__ = ("addr", "op", "rd", "rs1", "rs2", "imm", "target", "_srcs", "_dest")


class _Unfrozen(_Slots):
    """A writable twin of :class:`Instruction` that fills in its slots.

    Writing a slot of a frozen dataclass costs an ``object.__setattr__``
    call per field.  :meth:`Instruction.__new__` writes the slots of an
    ``_Unfrozen`` object with plain attribute stores instead, then
    switches its ``__class__``: both classes add nothing to ``_Slots``'
    layout, so the switch is allowed and copies nothing.
    """

    __slots__ = ()


@dataclass(frozen=True, init=False)
class Instruction(_Slots):
    """One static instruction.

    Addresses are in instruction units: the instruction at address ``a`` is
    followed sequentially by the instruction at ``a + 1``.  Multiply by
    :data:`INST_BYTES` when indexing byte-addressed structures.

    Immutable, compared and hashed by its fields.  The fields live in
    ``__slots__`` (see :class:`_Unfrozen`), so they have no class-level
    defaults; the constructor supplies them.  The constructor is
    ``__new__`` alone (``__init__`` is object's), so a caller building
    many instructions may call ``Instruction.__new__`` directly.

    Attributes:
        addr: static address of this instruction.
        op: opcode.
        rd: destination register (0 if none; writes to r0 are discarded).
        rs1: first source register.
        rs2: second source register.
        imm: immediate / memory displacement.
        target: static target address for direct control instructions.
    """

    __slots__ = ()

    addr: int
    op: Opcode
    rd: int
    rs1: int
    rs2: int
    imm: int
    target: Optional[int]

    def __new__(cls, addr: int, op: Opcode, rd: int = 0, rs1: int = 0, rs2: int = 0,
                imm: int = 0, target: Optional[int] = None) -> "Instruction":
        if not (0 <= rd < NUM_REGS and 0 <= rs1 < NUM_REGS and 0 <= rs2 < NUM_REGS):
            for name, value in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
                if not 0 <= value < NUM_REGS:
                    raise ValueError(f"{name}={value} out of range for {op.mnemonic}")
        sources, dest, direct = _SHAPES[op.mnemonic]
        if direct and target is None:
            raise ValueError(f"{op.mnemonic} at {addr} requires a target")
        # Cache the dataflow queries; they run in the dispatch hot path.
        if sources is _RS1_RS2:
            if rs1 != REG_ZERO:
                srcs = (rs1, rs2) if rs2 != REG_ZERO else (rs1,)
            else:
                srcs = (rs2,) if rs2 != REG_ZERO else ()
        elif sources is _RS1:
            srcs = (rs1,) if rs1 != REG_ZERO else ()
        else:
            srcs = sources
        if dest is _RD:
            dest = rd if rd != REG_ZERO else None
        self = _Unfrozen()
        self.addr = addr
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self._srcs = srcs
        self._dest = dest
        self.__class__ = cls
        return self

    def __reduce__(self):
        # Rebuild through the constructor: the default slot-state restore
        # would assign the frozen fields one by one.
        return (type(self), (self.addr, self.op, self.rd, self.rs1, self.rs2, self.imm, self.target))

    # --- dataflow helpers ------------------------------------------------

    @property
    def fall_through(self) -> int:
        """Address of the next sequential instruction."""
        return self.addr + 1

    def src_regs(self) -> tuple:
        """Architectural registers this instruction reads (r0 excluded)."""
        return self._srcs

    def dest_reg(self) -> Optional[int]:
        """Architectural register this instruction writes, or None."""
        return self._dest

    # --- presentation -----------------------------------------------------

    def disassemble(self) -> str:
        """Render this instruction in assembler syntax."""
        op = self.op
        if op in REG3_OPS:
            return f"{op.mnemonic} r{self.rd}, r{self.rs1}, r{self.rs2}"
        if op in REG_IMM_OPS:
            return f"{op.mnemonic} r{self.rd}, r{self.rs1}, {self.imm}"
        if op is Opcode.LUI:
            return f"LUI r{self.rd}, {self.imm}"
        if op is Opcode.LD:
            return f"LD r{self.rd}, {self.imm}(r{self.rs1})"
        if op is Opcode.ST:
            return f"ST r{self.rs2}, {self.imm}(r{self.rs1})"
        if op in BRANCH_OPS:
            return f"{op.mnemonic} r{self.rs1}, r{self.rs2}, {self.target}"
        if op in (Opcode.JMP, Opcode.CALL):
            return f"{op.mnemonic} {self.target}"
        if op is Opcode.JR:
            return f"JR r{self.rs1}"
        return op.mnemonic

    def __str__(self) -> str:
        return f"{self.addr:6d}: {self.disassemble()}"


def alu(op: Opcode, addr: int, rd: int, rs1: int, rs2: int = 0, imm: int = 0) -> Instruction:
    """Convenience constructor for ALU instructions."""
    return Instruction(addr=addr, op=op, rd=rd, rs1=rs1, rs2=rs2, imm=imm)
