#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the frozen reference stack.

Run from the repository root after a change that is meant to alter
simulated results (never to make a benchmark run pass)::

    python3 perfbench/make_digests.py

Every point of both paper grids runs once with ``engine="reference"``
(the seed front end and machine core) under the benchmark's pinned
environment, in a private cache directory.  Each result payload is
stored with its digest in the cache's canonical JSON form: the digests
check every run, and the payloads pre-fill the warm service's cache.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import harness
import run


def main() -> int:
    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="digests-", dir=scratch)
    try:
        run.pin_environment(run.Path(run_dir))
        from repro.experiments import runner
        digests = {}
        for kind in ("frontend", "machine"):
            for point_id, point in run.grid_points(kind):
                if kind == "frontend":
                    result = runner.frontend_result(
                        point.benchmark, point.config, point.n,
                        engine="reference")
                else:
                    result = runner.machine_result(
                        point.benchmark, point.config, point.n,
                        warmup=point.warmup, engine="reference")
                payload = run.result_payload(kind, result)
                digests[point_id] = {"n": point.n, "payload": payload,
                                     "digest": harness.digest(payload)}
                print(point_id, digests[point_id]["digest"][:16])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    book = {"scale": float(run.PINNED_ENV["REPRO_SCALE"]),
            "engine": "reference", "points": digests}
    run.REFERENCE.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
