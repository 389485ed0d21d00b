"""Builders for emitting code and data with symbolic label fixups.

The generator needs to emit tens of thousands of instructions with forward
references (branch targets, jump tables pointing at code).  Assembling text
would work but is slow and awkward at that scale; these builders construct
:class:`~repro.isa.instruction.Instruction` objects directly and resolve
labels in one pass at the end.
"""

from __future__ import annotations

from itertools import compress
from operator import index
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

#: A branch/jump target: either a resolved address or a label name.
Target = Union[int, str]


class CodeBuilder:
    """Accumulates instructions with symbolic targets, then resolves them.

    Each emitted instruction is held as an ``(op, rd, rs1, rs2, imm,
    target)`` tuple until :meth:`resolve` builds the
    :class:`~repro.isa.instruction.Instruction` objects.
    """

    def __init__(self):
        self._pending: List[tuple] = []
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
        """Append one instruction; returns its address.

        A str ``imm`` names a data label and a str ``target`` a code label;
        :meth:`resolve` binds both.
        """
        pending = self._pending
        pending.append((op, rd, rs1, rs2, imm, target))
        return len(pending) - 1

    def addi(self, rd: int, rs1: int, imm: Union[int, str]) -> int:
        return self.emit(Opcode.ADDI, rd, rs1, 0, imm)

    def load(self, rd: int, base: int, disp: Union[int, str] = 0) -> int:
        return self.emit(Opcode.LD, rd, base, 0, disp)

    def store(self, rs_data: int, base: int, disp: Union[int, str] = 0) -> int:
        return self.emit(Opcode.ST, 0, base, rs_data, disp)

    def branch(self, op: Opcode, rs1: int, rs2: int, target: Target) -> int:
        if not op.is_cond_branch:
            raise ValueError(f"{op.mnemonic} is not a conditional branch")
        return self.emit(op, 0, rs1, rs2, 0, target)

    def jump(self, target: Target) -> int:
        return self.emit(Opcode.JMP, 0, 0, 0, 0, target)

    def call(self, target: Target) -> int:
        return self.emit(Opcode.CALL, 0, 0, 0, 0, target)

    def ret(self) -> int:
        return self.emit(Opcode.RET)

    def jr(self, rs1: int) -> int:
        return self.emit(Opcode.JR, 0, rs1)

    # --- resolution --------------------------------------------------------

    def resolve(self, data_symbols: Optional[Dict[str, int]] = None
                ) -> Tuple[List[Instruction], Dict[str, int]]:
        """Resolve all labels; returns (instructions, symbols).

        A str immediate is looked up in ``data_symbols``.
        """
        symbols = self._symbols
        # ``Instruction.__new__`` is the whole constructor (``__init__`` is
        # object's), and calling it directly skips ``type.__call__``'s
        # argument repacking: over half the cost of building one.
        build = Instruction.__new__
        instructions: List[Instruction] = []
        append = instructions.append
        for addr, (op, rd, rs1, rs2, imm, target) in enumerate(self._pending):
            if isinstance(target, str):
                if target not in symbols:
                    raise ValueError(f"undefined code label {target!r} at {addr}")
                target = symbols[target]
            if isinstance(imm, str):
                if data_symbols is None or imm not in data_symbols:
                    raise ValueError(f"undefined data label {imm!r} at {addr}")
                imm = data_symbols[imm]
            append(build(Instruction, addr, op, rd, rs1, rs2, imm, target))
        return instructions, dict(symbols)

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

        ``values`` are integers: ints, bools or numpy integers.  ``size``
        pads the array with zero words past ``values`` up to that length.
        Zero words stay out of the data image.
        """
        if name in self._symbols:
            raise ValueError(f"data label {name!r} already placed")
        length = len(values) if size is None else size
        if length < len(values):
            raise ValueError(f"data array {name!r}: size {size} < {len(values)} values")
        base = self._cursor
        self._symbols[name] = base
        # One C-level pass: the zero words select themselves out, and
        # ``index`` turns bools and numpy ints into ints.
        self._data.update(compress(zip(range(base, base + len(values)), map(index, values)),
                                   values))
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
    data_symbols = data.symbols
    instructions, symbols = code.resolve(data_symbols)
    data.patch_tables(symbols)
    program = Program(
        instructions=instructions,
        entry=symbols.get(entry_label, 0),
        data=data.image,
        symbols=symbols,
        data_symbols=data_symbols,
        name=name,
    )
    program.validate_targets()
    return program
