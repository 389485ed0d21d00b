"""Front-end fetch speed: compiled fast stack vs the frozen reference.

Measures the complete front-end simulation — fetch engine, predictors,
fill unit, trace cache — on the Fig-4/6-class grid (the fetch-breakdown
benchmarks x {baseline, promotion}), running each point once on the fast
stack (``runner.run_frontend(..., fast=True)``: array-backed predictors +
compiled segment fetch plans) and once on the frozen reference stack
(``fast=False``), and asserting the serialized results are
byte-identical before recording the speedup.  Timings land in
``output/BENCH_frontend.json``.

The packing configuration is recorded as extra rows (parity asserted,
speedup tracked) but excluded from the asserted grid: packing keeps the
fill unit's merge state from converging at these run lengths, so its
speedup is warmup-bound and noisier than the Fig-4/6 cells.

Per-point jitter on a shared 1-core container is real; the grid total is
the stable number, so only it carries the >= 2x floor, and each point is
a best-of-N minimum.
"""

import json
import os
import time

from conftest import OUTPUT_DIR, run_once, strict

from repro.config import BASELINE, PROMOTION, PROMOTION_PACKING
from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import frontend_result_to_dict
from repro.frontend.build import reset_compiled_state

#: Fig-4/6-class grid: the fetch-breakdown figures run these benchmarks
#: under the baseline (Fig 4) and promotion (Fig 6) front ends.
GRID_BENCHMARKS = ("compress", "gcc")
GRID_CONFIGS = (("baseline", BASELINE), ("promotion", PROMOTION))
#: Recorded but outside the asserted grid (see module docstring).
EXTRA_CONFIGS = (("promotion_packing", PROMOTION_PACKING),)
#: Best-of-N minima per point.
REPEATS = 2


def _time_frontend() -> dict:
    report = {"schema": 1, "grid": [], "extra": [], "grid_total": {}}
    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        runner.clear_caches()
        total_ref = total_fast = 0.0
        for name in GRID_BENCHMARKS:
            program = runner.get_program(name)
            n = runner.default_length(name)
            oracle = runner.get_oracle(name, n)

            def run_point(config, fast):
                # Each repeat starts from empty compiled state, so a
                # store warmed by an earlier repeat or config cannot
                # flatter it.
                reset_compiled_state()
                start = time.perf_counter()
                result = runner.run_frontend(program, config, n, oracle,
                                             fast=fast)
                return time.perf_counter() - start, result

            for rows, configs in (("grid", GRID_CONFIGS),
                                  ("extra", EXTRA_CONFIGS)):
                for label, config in configs:
                    fast_runs = [run_point(config, True)
                                 for _ in range(REPEATS)]
                    ref_runs = [run_point(config, False)
                                for _ in range(REPEATS)]
                    fast_s, fast_result = min(fast_runs, key=lambda r: r[0])
                    ref_s, ref_result = min(ref_runs, key=lambda r: r[0])
                    identical = (
                        canonical_json(frontend_result_to_dict(fast_result))
                        == canonical_json(frontend_result_to_dict(ref_result)))
                    if rows == "grid":
                        total_ref += ref_s
                        total_fast += fast_s
                    report[rows].append({
                        "benchmark": name,
                        "config": label,
                        "instructions": n,
                        "reference_seconds": ref_s,
                        "fast_seconds": fast_s,
                        "speedup": ref_s / fast_s if fast_s else 0.0,
                        "inst_per_sec":
                            fast_result.instructions_retired / fast_s
                            if fast_s else 0.0,
                        "results_identical": identical,
                    })
        report["grid_total"] = {
            "reference_seconds": total_ref,
            "fast_seconds": total_fast,
            "speedup": total_ref / total_fast if total_fast else 0.0,
        }
    finally:
        os.environ.pop("REPRO_DISK_CACHE", None)
    return report


def bench_frontend_fetch(benchmark, emit):
    report = run_once(benchmark, _time_frontend)

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_frontend.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = ["Front end: compiled fast stack vs frozen reference "
             "(Fig-4/6-class grid)"]
    for row in report["grid"] + report["extra"]:
        tag = "" if row in report["grid"] else "  [extra]"
        lines.append(
            f"  {row['benchmark']:<10} {row['config']:<18} "
            f"ref {row['reference_seconds']:5.2f}s  "
            f"fast {row['fast_seconds']:5.2f}s  "
            f"{row['speedup']:4.2f}x  "
            f"({row['inst_per_sec']:,.0f} inst/s, "
            f"identical={row['results_identical']}){tag}")
    total = report["grid_total"]
    lines.append(f"  grid total                    "
                 f"ref {total['reference_seconds']:5.2f}s  "
                 f"fast {total['fast_seconds']:5.2f}s  "
                 f"{total['speedup']:4.2f}x")
    emit("BENCH_frontend", "\n".join(lines))

    # The optimization contract: byte-identical serialized results on
    # every point (including the extra rows), and the fast stack at least
    # twice as fast end to end on the Fig-4/6 grid.  Quick runs
    # (REPRO_QUICK=1) skip the floor — quarter-length runs shift the
    # warmup share — but still pin parity.
    assert all(row["results_identical"]
               for row in report["grid"] + report["extra"])
    if strict():
        assert total["speedup"] >= 2.0
