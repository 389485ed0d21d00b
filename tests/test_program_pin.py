"""Hash pins on the generated benchmark programs.

The fifteen synthetic programs stand in for the paper's SPECint95
binaries, so every table and figure depends on them byte for byte.  The
generator may be rewritten for speed, but only if it draws the identical
RNG stream and emits the identical programs.  Each program's canonical
serialisation (every instruction field, the data image, code and data
symbols, the entry point and the name) is hashed with sha256 and pinned
here.  Changing a program on purpose means updating its pin in the same
change, where a reviewer sees it.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.workloads import BENCHMARK_NAMES, generate_program

#: The instruction fields the serialisation covers, in order.
INSTRUCTION_FIELDS = ("addr", "op", "rd", "rs1", "rs2", "imm", "target")

#: The program fields the serialisation covers.
PROGRAM_FIELDS = {"instructions", "entry", "data", "symbols", "data_symbols", "name"}

#: (benchmark, seed or None for the profile's default) -> sha256.
PINS = {
    ("compress", None):
        "3aff911753c77d73f9f47543f91adb809c45e0b8aa67efe1ff0ec26ca7a611b8",
    ("gcc", None):
        "ef1e6b7c9fa0d72093e82e57e62ed367ac2bcb9fd57a2aa9d293f8afc6a8118f",
    ("go", None):
        "e4ed396b59694e6122fd8e7392179e2d00712312eeda22c24dedd440809bc642",
    ("ijpeg", None):
        "e6829ae1691f1b4d02042e5b79c0b2c1c6afe1d2a4e84bb09abb1bf933f470c6",
    ("li", None):
        "ea0478fa6adcc8508df9602c7ff9830bdce51e156d6cbb4f358956c91e3e910b",
    ("m88ksim", None):
        "53f41d752528507210e00efa7cc8fab28c1e1c3185ad3842673d8ebbea165f64",
    ("perl", None):
        "1c250fb5fd1d77f83cc2c5416c24cd36d0ee3c4ab8aec48f351ea160bb6bd768",
    ("vortex", None):
        "461d312f7b3bb3e5f9b295e17b2cc8331cc431ef3b38b9ddf0b383aa318a84fb",
    ("gnuchess", None):
        "f1398c9d0a650c9e0b780476a8337e6ff8ec7548c5d6e8dbb20784bfe9baadb8",
    ("gs", None):
        "60e4ab419340f85765be2d9cc8c69aaed8524a5a961cdcc56a9c3dde036320cf",
    ("pgp", None):
        "21576832c1ff8045323aa8986a42d43100e60369e81cd1b4351ff2a8e721363b",
    ("python", None):
        "8544ce0594982f22e0d035409579dd8b48451de9506f16254973bd2d1c2823db",
    ("plot", None):
        "6d6cc5b31e6ef196fff49eacbba3c1ade62a6baccbfd66252c72220a829532a1",
    ("ss", None):
        "aa5bc03c080950d79e004bf01d67e3a26edeff243d28bb52a18ade3c049108f8",
    ("tex", None):
        "678ec3b6b09da905cb8e8a23aacfc57488be7ebf2e8e45df4a16588e38acee50",
    ("compress", 1):
        "3922e498adae78db3bd00a0bee7207000160e7b3a6c14df2246bc27f7a453c1a",
    ("compress", 2):
        "e95ec6ebf409b82906523fbff052d28628f8702a3be9a10f2d5f06cb8a2ad89a",
    ("compress", 3):
        "43c30d1909a114a64a03f548b8a5ac4bc857bd30b9dbf44659361d7ec17be0c2",
    ("li", 1):
        "99d7637ddf338482d4d0055486f2ae954daf91ddd53be488ebf6caf41c02f0fd",
    ("li", 2):
        "5ad3e2c62163a93faf7cd8d2781ac8f533cc7fd3efb3f30b5a5e32e14bd9704e",
    ("li", 3):
        "2d8b54584686755b7475c959f9b63075cbc0e65b12ec8c7973a35fc352568407",
}


def program_digest(program) -> str:
    """sha256 of a canonical serialisation of ``program``."""
    h = hashlib.sha256()
    for inst in program.instructions:
        h.update(repr((inst.addr, inst.op.mnemonic, inst.rd, inst.rs1,
                       inst.rs2, inst.imm, inst.target)).encode())
        h.update(b"\n")
    h.update(json.dumps({
        "name": program.name,
        "entry": program.entry,
        "data": sorted(program.data.items()),
        "symbols": sorted(program.symbols.items()),
        "data_symbols": sorted(program.data_symbols.items()),
    }).encode())
    return h.hexdigest()


def test_serialisation_covers_every_field():
    assert tuple(f.name for f in dataclasses.fields(Instruction)) == INSTRUCTION_FIELDS
    assert {f.name for f in dataclasses.fields(Program)} == PROGRAM_FIELDS


def test_every_benchmark_is_pinned():
    defaults = {name for name, seed in PINS if seed is None}
    assert defaults == set(BENCHMARK_NAMES)


@pytest.mark.parametrize("name,seed", sorted(PINS, key=lambda k: (k[0], k[1] or 0)))
def test_generated_program_is_unchanged(name, seed):
    program = generate_program(name, seed=seed)
    assert program_digest(program) == PINS[name, seed], (
        f"{name} (seed={seed}) changed: generated programs must stay byte-identical")
