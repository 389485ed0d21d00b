"""Hash pins on the frozen reference modules.

The ``*_reference`` modules and ``repro.branch.reference`` are the seed
implementation kept byte-for-byte as the spec: every fast layer is
parity-tested against them.  A refactor that deletes or rewrites code
around them must not quietly edit them, so each file's sha256 is pinned
here.  Changing the spec on purpose means updating the pin in the same
change, where a reviewer sees it.
"""

import hashlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

#: Path under ``src/repro`` -> sha256 of the file's bytes.
PINS = {
    "branch/reference.py":
        "40e334cb619c281d1c14a815a09ecbce39cf6e175c84f4498208c77fe6e5d684",
    "core/machine_reference.py":
        "a5d875f7cf775547fc42ee8da52a73f81ec3c94b371b76cce449a38640637e08",
    "frontend/fetch_reference.py":
        "2b4ca3d2451871a1f2be56eb1328a7ff8b7bfe999fa0e0271bd7a48e5eacceac",
    "trace/fill_unit_reference.py":
        "6f92f08b0a881e8bb531f914e448d9f020baae8d320fa0d62eb8ef4077acf30e",
}


def test_every_reference_module_is_pinned():
    found = {path.relative_to(SRC).as_posix()
             for path in SRC.rglob("*_reference.py")}
    found.add("branch/reference.py")
    assert found == set(PINS)


@pytest.mark.parametrize("relpath", sorted(PINS))
def test_reference_module_is_unchanged(relpath):
    digest = hashlib.sha256((SRC / relpath).read_bytes()).hexdigest()
    assert digest == PINS[relpath], (
        f"{relpath} changed: the frozen reference modules are the spec")
