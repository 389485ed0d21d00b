"""Import footprint of a fresh process that serves cached results.

Runs perfbench's import probe (``IMPORT_PROBE`` in ``perfbench/run.py``:
every layer the benchmark drives, plus source hashing for cache keys),
then ``import repro, repro.__main__``, in a fresh interpreter.  Such a
process never generates a program or checks against the frozen
reference stack, so neither numpy nor any ``*reference`` module may be
loaded.  Prints the probe's wall time and peak RSS as a markdown
snippet (or ``--json``) and exits 1 if a module that should load on
first use is already loaded::

    python benchmarks/import_footprint.py >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: Statement that prints the loaded heavy modules and the process's peak
#: RSS as one JSON line.
REPORT = """
import json, resource, sys
print(json.dumps({
    "heavy": sorted(m for m in sys.modules if m == "numpy" or (
        m.startswith("repro.") and m.rsplit(".", 1)[1].endswith("reference"))),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def probe_source() -> str:
    """perfbench's ``IMPORT_PROBE`` plus the package and its CLI."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["IMPORT_PROBE"]):
            return ast.literal_eval(node.value) + "; import repro, repro.__main__"
    raise LookupError("perfbench/run.py defines no IMPORT_PROBE")


def run_probe(code: str, env: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    """Run ``code`` then :data:`REPORT` in a fresh interpreter.

    Returns the report plus the wall seconds of the whole process.  A
    probe that fails raises ``RuntimeError`` carrying its stderr.
    """
    child_env = dict(os.environ if env is None else env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), child_env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code + "\n" + REPORT],
                          cwd=ROOT, env=child_env, timeout=120,
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"import probe exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["wall_s"] = time.perf_counter() - start
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON object")
    args = parser.parse_args(argv)
    report = run_probe(probe_source())
    if args.json:
        print(json.dumps(report))
    else:
        print("### Import footprint (perfbench import probe + CLI)")
        print(f"- wall: {report['wall_s']:.3f} s")
        print(f"- peak RSS (ru_maxrss): {report['maxrss_mb']:.1f} MB")
        print("- loaded on import, should load on first use: "
              + (", ".join(report["heavy"]) or "none"))
    return 1 if report["heavy"] else 0


if __name__ == "__main__":
    sys.exit(main())
