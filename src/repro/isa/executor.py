"""Functional (architectural) execution of programs.

Two consumers share the same instruction semantics:

* :class:`FunctionalExecutor` runs a program in order against architectural
  state — used for oracle instruction streams, workload statistics, and
  front-end-only simulations.
* The out-of-order core calls :func:`step_instruction` directly with its own
  speculative register file and store-queue-aware memory hooks, so wrong-path
  instructions execute real semantics and are rolled back via checkpoint
  repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.isa.instruction import Instruction, NUM_REGS, REG_LINK, REG_SP, REG_ZERO
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

#: Stack pointer initial value (word address); stacks grow downward.
STACK_BASE = 1 << 24


def _to_signed(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 64) if value & _SIGN_BIT else value


class ExecResult:
    """Outcome of executing one instruction.

    A hand-rolled ``__slots__`` class rather than a frozen dataclass: one is
    allocated per executed instruction and frozen-dataclass construction
    (one ``object.__setattr__`` per field) was a measurable fraction of
    functional-execution time.

    Attributes:
        next_pc: address of the next instruction on this path.
        taken: for conditional branches, whether the branch was taken.
        mem_addr: effective word address for loads/stores.
        value: value written to ``dest`` (or stored, for ST).
        dest: destination register actually written, or None.
        halted: True after HALT.
    """

    __slots__ = ("next_pc", "taken", "mem_addr", "value", "dest", "halted")

    def __init__(self, next_pc: int, taken: Optional[bool] = None,
                 mem_addr: Optional[int] = None, value: Optional[int] = None,
                 dest: Optional[int] = None, halted: bool = False):
        self.next_pc = next_pc
        self.taken = taken
        self.mem_addr = mem_addr
        self.value = value
        self.dest = dest
        self.halted = halted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecResult(next_pc={self.next_pc}, taken={self.taken}, "
                f"mem_addr={self.mem_addr}, value={self.value}, "
                f"dest={self.dest}, halted={self.halted})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExecResult):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


def step_instruction(
    inst: Instruction,
    regs: List[int],
    read_mem: Callable[[int], int],
    write_mem: Callable[[int, int], None],
) -> ExecResult:
    """Execute ``inst`` against ``regs`` and the given memory hooks.

    ``regs`` is mutated in place (except r0, which stays zero).  Returns an
    :class:`ExecResult` describing control flow and memory effects.
    """
    op = inst.op
    next_pc = inst.fall_through
    taken = None
    mem_addr = None
    value = None
    dest = None

    # The chain is ordered by dynamic frequency in the paper workloads
    # (ALU immediates and adds, then memory, then branches): this function
    # executes every simulated instruction, so average chain depth matters.
    if op is Opcode.ADDI:
        value = (regs[inst.rs1] + inst.imm) & _WORD_MASK
    elif op is Opcode.ADD:
        value = (regs[inst.rs1] + regs[inst.rs2]) & _WORD_MASK
    elif op is Opcode.LD:
        mem_addr = (regs[inst.rs1] + inst.imm) & _WORD_MASK
        value = read_mem(mem_addr) & _WORD_MASK
    elif op is Opcode.ST:
        mem_addr = (regs[inst.rs1] + inst.imm) & _WORD_MASK
        value = regs[inst.rs2] & _WORD_MASK
        write_mem(mem_addr, value)
    elif op is Opcode.BNE:
        taken = regs[inst.rs1] != regs[inst.rs2]
    elif op is Opcode.BEQ:
        taken = regs[inst.rs1] == regs[inst.rs2]
    elif op is Opcode.BLT:
        taken = _to_signed(regs[inst.rs1]) < _to_signed(regs[inst.rs2])
    elif op is Opcode.BGE:
        taken = _to_signed(regs[inst.rs1]) >= _to_signed(regs[inst.rs2])
    elif op is Opcode.SUB:
        value = (regs[inst.rs1] - regs[inst.rs2]) & _WORD_MASK
    elif op is Opcode.AND:
        value = regs[inst.rs1] & regs[inst.rs2]
    elif op is Opcode.OR:
        value = regs[inst.rs1] | regs[inst.rs2]
    elif op is Opcode.XOR:
        value = regs[inst.rs1] ^ regs[inst.rs2]
    elif op is Opcode.SHL:
        value = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & _WORD_MASK
    elif op is Opcode.SHR:
        value = (regs[inst.rs1] & _WORD_MASK) >> (regs[inst.rs2] & 63)
    elif op is Opcode.SLT:
        value = 1 if _to_signed(regs[inst.rs1]) < _to_signed(regs[inst.rs2]) else 0
    elif op is Opcode.MUL:
        value = (regs[inst.rs1] * regs[inst.rs2]) & _WORD_MASK
    elif op is Opcode.ANDI:
        value = regs[inst.rs1] & (inst.imm & _WORD_MASK)
    elif op is Opcode.ORI:
        value = regs[inst.rs1] | (inst.imm & _WORD_MASK)
    elif op is Opcode.XORI:
        value = regs[inst.rs1] ^ (inst.imm & _WORD_MASK)
    elif op is Opcode.SLTI:
        value = 1 if _to_signed(regs[inst.rs1]) < inst.imm else 0
    elif op is Opcode.LUI:
        value = (inst.imm << 16) & _WORD_MASK
    elif op is Opcode.JMP:
        next_pc = inst.target
    elif op is Opcode.CALL:
        value = inst.fall_through
        next_pc = inst.target
    elif op is Opcode.RET:
        next_pc = regs[REG_LINK] & _WORD_MASK
    elif op is Opcode.JR:
        next_pc = regs[inst.rs1] & _WORD_MASK
    elif op is Opcode.NOP or op is Opcode.TRAP:
        pass
    elif op is Opcode.HALT:
        return ExecResult(next_pc=inst.addr, halted=True)
    else:  # pragma: no cover - exhaustive over the opcode set
        raise NotImplementedError(op)

    if taken is not None:
        next_pc = inst.target if taken else inst.fall_through

    if value is not None and op is not Opcode.ST:
        dest = inst.dest_reg()
        if dest is not None:
            regs[dest] = value

    return ExecResult(next_pc=next_pc, taken=taken, mem_addr=mem_addr, value=value, dest=dest)


def run_oracle(program: Program, max_instructions: Optional[int] = None) -> list:
    """Correct-path instruction stream as ``(inst, taken, next_pc)`` tuples.

    Semantically identical to draining :class:`FunctionalExecutor` (same
    :func:`step_instruction` core), but inlined: no per-instruction
    :class:`DynInst`/state-object overhead.  This is the entry point the
    front-end simulator's oracle computation uses; every configuration of a
    benchmark replays this stream, so its cost is paid once per benchmark.

    Entries are interned: every dynamic instance of one (pc, successor)
    is the same tuple object, so a stream costs one list slot per
    instruction rather than one tuple each.
    """
    regs = [0] * NUM_REGS
    regs[REG_SP] = STACK_BASE
    memory = dict(program.data)
    mem_get = memory.get

    instructions = program.instructions
    limit = len(instructions)
    stream: list = []
    append = stream.append
    # Interned entries, per pc: ``fall`` holds the fall-through entry
    # (``taken`` None, ``next_pc`` pc + 1); ``seen`` holds every other
    # successor, keyed by ``taken`` at a conditional branch (its two
    # successors are fixed, and may both be pc + 1) and by ``next_pc``
    # elsewhere.  Keys are ints and bools, never the tuple itself, whose
    # Instruction would hash through Python-level dataclass code.
    seen: List[Optional[dict]] = [None] * limit
    fall: List[Optional[tuple]] = [None] * limit
    pc = program.entry
    remaining = max_instructions if max_instructions is not None else -1
    # The interpreter below inlines step_instruction's semantics (same
    # frequency-ordered dispatch) without the per-instruction call frame or
    # ExecResult allocation: only (inst, taken, next_pc) is kept, and that
    # tuple goes straight into the stream.  Destination registers use the
    # Instruction's precomputed ``_dest`` (None for discarded r0 writes).
    MASK = _WORD_MASK
    to_signed = _to_signed
    ADDI = Opcode.ADDI; ADD = Opcode.ADD; LD = Opcode.LD; ST = Opcode.ST
    BNE = Opcode.BNE; BEQ = Opcode.BEQ; BLT = Opcode.BLT; BGE = Opcode.BGE
    SUB = Opcode.SUB; AND = Opcode.AND; OR = Opcode.OR; XOR = Opcode.XOR
    SHL = Opcode.SHL; SHR = Opcode.SHR; SLT = Opcode.SLT; MUL = Opcode.MUL
    ANDI = Opcode.ANDI; ORI = Opcode.ORI; XORI = Opcode.XORI
    SLTI = Opcode.SLTI; LUI = Opcode.LUI; JMP = Opcode.JMP
    CALL = Opcode.CALL; RET = Opcode.RET; JR = Opcode.JR
    NOP = Opcode.NOP; TRAP = Opcode.TRAP; HALT = Opcode.HALT
    while remaining != 0 and 0 <= pc < limit:
        inst = instructions[pc]
        op = inst.op
        next_pc = pc + 1
        taken = None
        if op is ADDI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] + inst.imm) & MASK
        elif op is ADD:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] + regs[inst.rs2]) & MASK
        elif op is LD:
            value = mem_get((regs[inst.rs1] + inst.imm) & MASK, 0) & MASK
            rd = inst._dest
            if rd is not None:
                regs[rd] = value
        elif op is ST:
            memory[(regs[inst.rs1] + inst.imm) & MASK] = regs[inst.rs2] & MASK
        elif op is BNE:
            taken = regs[inst.rs1] != regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is BEQ:
            taken = regs[inst.rs1] == regs[inst.rs2]
            if taken:
                next_pc = inst.target
        elif op is BLT:
            taken = to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is BGE:
            taken = to_signed(regs[inst.rs1]) >= to_signed(regs[inst.rs2])
            if taken:
                next_pc = inst.target
        elif op is SUB:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] - regs[inst.rs2]) & MASK
        elif op is AND:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] & regs[inst.rs2]
        elif op is OR:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] | regs[inst.rs2]
        elif op is XOR:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] ^ regs[inst.rs2]
        elif op is SHL:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] << (regs[inst.rs2] & 63)) & MASK
        elif op is SHR:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] & MASK) >> (regs[inst.rs2] & 63)
        elif op is SLT:
            rd = inst._dest
            if rd is not None:
                regs[rd] = 1 if to_signed(regs[inst.rs1]) < to_signed(regs[inst.rs2]) else 0
        elif op is MUL:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (regs[inst.rs1] * regs[inst.rs2]) & MASK
        elif op is ANDI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] & (inst.imm & MASK)
        elif op is ORI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] | (inst.imm & MASK)
        elif op is XORI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = regs[inst.rs1] ^ (inst.imm & MASK)
        elif op is SLTI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = 1 if to_signed(regs[inst.rs1]) < inst.imm else 0
        elif op is LUI:
            rd = inst._dest
            if rd is not None:
                regs[rd] = (inst.imm << 16) & MASK
        elif op is JMP:
            next_pc = inst.target
        elif op is CALL:
            regs[REG_LINK] = pc + 1
            next_pc = inst.target
        elif op is RET:
            next_pc = regs[REG_LINK] & MASK
        elif op is JR:
            next_pc = regs[inst.rs1] & MASK
        elif op is NOP or op is TRAP:
            pass
        elif op is HALT:
            append((inst, None, pc))
            break
        else:  # pragma: no cover - exhaustive over the opcode set
            raise NotImplementedError(op)
        if next_pc == pc + 1 and taken is None:
            entry = fall[pc]
            if entry is None:
                entry = fall[pc] = (inst, None, next_pc)
        else:
            successors = seen[pc]
            if successors is None:
                successors = seen[pc] = {}
            succ = next_pc if taken is None else taken
            entry = successors.get(succ)
            if entry is None:
                entry = successors[succ] = (inst, taken, next_pc)
        append(entry)
        pc = next_pc
        remaining -= 1
    return stream


@dataclass
class ExecState:
    """Architectural state: register file, data memory, PC."""

    regs: List[int]
    memory: Dict[int, int]
    pc: int
    halted: bool = False
    instret: int = 0

    @classmethod
    def for_program(cls, program: Program) -> "ExecState":
        regs = [0] * NUM_REGS
        regs[REG_SP] = STACK_BASE
        return cls(regs=regs, memory=dict(program.data), pc=program.entry)


@dataclass(frozen=True)
class DynInst:
    """One element of the dynamic instruction stream."""

    inst: Instruction
    result: ExecResult
    seq: int


class FunctionalExecutor:
    """In-order architectural execution of a :class:`Program`."""

    def __init__(self, program: Program, max_instructions: Optional[int] = None):
        self.program = program
        self.state = ExecState.for_program(program)
        self.max_instructions = max_instructions

    def step(self) -> Optional[DynInst]:
        """Execute one instruction; None once halted or off the image."""
        state = self.state
        if state.halted:
            return None
        if self.max_instructions is not None and state.instret >= self.max_instructions:
            state.halted = True
            return None
        inst = self.program.fetch(state.pc)
        if inst is None:
            state.halted = True
            return None
        result = step_instruction(inst, state.regs, self._read_mem, self._write_mem)
        dyn = DynInst(inst=inst, result=result, seq=state.instret)
        state.instret += 1
        if result.halted:
            state.halted = True
        else:
            state.pc = result.next_pc
        return dyn

    def run(self) -> Iterator[DynInst]:
        """Yield the dynamic instruction stream until halt."""
        while True:
            dyn = self.step()
            if dyn is None:
                return
            yield dyn

    def run_to_completion(self) -> int:
        """Execute everything; return the retired instruction count."""
        for _ in self.run():
            pass
        return self.state.instret

    def _read_mem(self, addr: int) -> int:
        return self.state.memory.get(addr, 0)

    def _write_mem(self, addr: int, value: int) -> None:
        self.state.memory[addr] = value
