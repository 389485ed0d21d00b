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
        "82a491d30802946b88258f91a980c8c39318fcccbdef1ca5d688e2effdbb1af7",
    "core/machine_reference.py":
        "a5d875f7cf775547fc42ee8da52a73f81ec3c94b371b76cce449a38640637e08",
    "frontend/fetch_reference.py":
        "6d0529f471913a225c5199364b8614dbe22d37a7bfe19d0eed2b6203e5ce9de9",
    "trace/fill_unit_reference.py":
        "1fea6516fc1406706fa5faafa5d1e064ef8c645181d389a05bf3c98ba75c9345",
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
