"""Builders for emitting code and data with symbolic label fixups.

The generator needs to emit tens of thousands of instructions with forward
references (branch targets, jump tables pointing at code).  Assembling text
would work but is slow and awkward at that scale; these builders construct
:class:`~repro.isa.instruction.Instruction` objects directly and resolve
labels in one pass at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: A branch/jump target: either a resolved address or a label name.
Target = Union[int, str]


@dataclass(slots=True)
class _Pending:
    op: Opcode
    rd: int
    rs1: int
    rs2: int
    imm: Union[int, str]  # str = data label, resolved to a word address
    target: Optional[Target]


class CodeBuilder:
    """Accumulates instructions with symbolic targets, then resolves them."""

    def __init__(self):
        self._pending: List[_Pending] = []
        self._symbols: Dict[str, int] = {}
        self._label_counter = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def here(self) -> int:
        """Address of the next instruction to be emitted."""
        return len(self._pending)

    def new_label(self, prefix: str = "L") -> str:
        """A fresh, unique label name (not yet placed)."""
        self._label_counter += 1
        return f".{prefix}{self._label_counter}"

    def label(self, name: Optional[str] = None, prefix: str = "L") -> str:
        """Place ``name`` (or a fresh label) at the current address."""
        if name is None:
            name = self.new_label(prefix)
        if name in self._symbols:
            raise ValueError(f"label {name!r} already placed")
        self._symbols[name] = self.here
        return name

    # --- emission --------------------------------------------------------

    def emit(self, op: Opcode, rd: int = 0, rs1: int = 0, rs2: int = 0,
             imm: Union[int, str] = 0, target: Optional[Target] = None) -> int:
        """Append one instruction; returns its address."""
        pending = self._pending
        pending.append(_Pending(op, rd, rs1, rs2, imm, target))
        return len(pending) - 1

    def addi(self, rd: int, rs1: int, imm: Union[int, str]) -> int:
        return self.emit(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm)

    def load(self, rd: int, base: int, disp: Union[int, str] = 0) -> int:
        return self.emit(Opcode.LD, rd=rd, rs1=base, imm=disp)

    def store(self, rs_data: int, base: int, disp: Union[int, str] = 0) -> int:
        return self.emit(Opcode.ST, rs2=rs_data, rs1=base, imm=disp)

    def branch(self, op: Opcode, rs1: int, rs2: int, target: Target) -> int:
        if not op.is_cond_branch:
            raise ValueError(f"{op.mnemonic} is not a conditional branch")
        return self.emit(op, rs1=rs1, rs2=rs2, target=target)

    def jump(self, target: Target) -> int:
        return self.emit(Opcode.JMP, target=target)

    def call(self, target: Target) -> int:
        return self.emit(Opcode.CALL, target=target)

    def ret(self) -> int:
        return self.emit(Opcode.RET)

    def jr(self, rs1: int) -> int:
        return self.emit(Opcode.JR, rs1=rs1)

    # --- resolution --------------------------------------------------------

    def resolve(self) -> Tuple[List[Instruction], Dict[str, int]]:
        """Resolve all labels; returns (instructions, symbols)."""
        instructions: List[Instruction] = []
        append = instructions.append
        symbols = self._symbols
        for addr, pend in enumerate(self._pending):
            target = pend.target
            if isinstance(target, str):
                if target not in symbols:
                    raise ValueError(f"undefined code label {target!r} at {addr}")
                target = symbols[target]
            imm = pend.imm
            if isinstance(imm, str):
                raise ValueError(
                    f"unresolved data label {imm!r} at {addr}; bind data labels before resolve()"
                )
            append(Instruction(addr, pend.op, pend.rd, pend.rs1, pend.rs2, imm, target))
        return instructions, dict(symbols)

    def bind_data_labels(self, data_symbols: Dict[str, int]) -> None:
        """Replace string immediates with data word addresses."""
        for addr, pend in enumerate(self._pending):
            if isinstance(pend.imm, str):
                if pend.imm not in data_symbols:
                    raise ValueError(f"undefined data label {pend.imm!r} at {addr}")
                pend.imm = data_symbols[pend.imm]

    def address_of(self, label: str) -> int:
        return self._symbols[label]


class DataBuilder:
    """Accumulates the initial data image and jump tables."""

    def __init__(self):
        self._data: Dict[int, int] = {}
        self._symbols: Dict[str, int] = {}
        self._cursor = 0
        # jump tables: (word address, list of code labels) patched after code resolve
        self._tables: List[Tuple[int, List[str]]] = []

    @property
    def cursor(self) -> int:
        return self._cursor

    def array(self, name: str, values: Sequence[int], size: Optional[int] = None) -> int:
        """Place a labelled word array; returns its word address.

        ``size`` pads the array with zero words past ``values`` up to that
        length.  Zero words stay out of the data image.
        """
        if name in self._symbols:
            raise ValueError(f"data label {name!r} already placed")
        length = len(values) if size is None else size
        if length < len(values):
            raise ValueError(f"data array {name!r}: size {size} < {len(values)} values")
        base = self._cursor
        self._symbols[name] = base
        self._data.update(filter(itemgetter(1), enumerate(map(int, values), base)))
        self._cursor += length
        return base

    def space(self, name: str, count: int) -> int:
        """Reserve ``count`` zeroed words under ``name``."""
        return self.array(name, (), size=count)

    def jump_table(self, name: str, case_labels: Sequence[str]) -> int:
        """Place a table of code addresses, patched after code layout."""
        base = self.space(name, len(case_labels))
        self._tables.append((base, list(case_labels)))
        return base

    def patch_tables(self, code_symbols: Dict[str, int]) -> None:
        for base, labels in self._tables:
            for offset, label in enumerate(labels):
                if label not in code_symbols:
                    raise ValueError(f"jump table entry {label!r} undefined")
                self._data[base + offset] = code_symbols[label]

    @property
    def symbols(self) -> Dict[str, int]:
        return dict(self._symbols)

    @property
    def image(self) -> Dict[int, int]:
        return dict(self._data)


def finish_program(code: CodeBuilder, data: DataBuilder, name: str, entry_label: str = "main") -> Program:
    """Resolve builders into a validated :class:`Program`."""
    code.bind_data_labels(data.symbols)
    instructions, symbols = code.resolve()
    data.patch_tables(symbols)
    program = Program(
        instructions=instructions,
        entry=symbols.get(entry_label, 0),
        data=data.image,
        symbols=symbols,
        data_symbols=data.symbols,
        name=name,
    )
    program.validate_targets()
    return program
