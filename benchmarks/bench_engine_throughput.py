"""Engine throughput: raw simulation speed and result-cache behaviour.

Unlike the figure/table benchmarks this one measures the *simulator*, not
the simulated machine: correct-path instructions simulated per second for
the oracle executor and the front-end simulator, plus the cost of a warm
(disk-cached) result fetch.  Timings land in ``output/BENCH_engine.json``
so the performance trajectory is tracked across changes.

Reference point: the seed implementation simulated ~100k front-end
instructions/second on the 1-core container this repo is developed in.
No absolute-throughput assertion is made (machines differ); the JSON is
the record.
"""

import json
import os
import time

from conftest import OUTPUT_DIR, run_once

from repro.config import BASELINE, PROMOTION, PROMOTION_PACKING, MachineConfig
from repro.core.machine import Machine
from repro.core.machine_reference import Machine as ReferenceMachine
from repro.experiments import diskcache
from repro.experiments import runner
from repro.experiments import tracefile
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import machine_result_to_dict
from repro.frontend.build import build_engine
from repro.frontend.simulator import FrontEndSimulator, compute_oracle
from repro.isa.executor import run_oracle

BENCHMARKS = ("compress", "gcc")
CONFIGS = (("baseline", BASELINE), ("promotion_packing", PROMOTION_PACKING))

#: Figure-11-class machine grid for the core speed record: one benchmark,
#: the paper's three front-end configurations, warmed front end, machine
#: window at the runner's machine length.
MACHINE_GRID_BENCHMARK = "compress"
MACHINE_CONFIGS = (
    ("baseline", BASELINE),
    ("promotion", PROMOTION),
    ("promotion_packing", PROMOTION_PACKING),
)
#: Best-of-N minima: on a 1-core container single timings are noisy, the
#: minimum of a few adjacent runs is the stable estimator.
MACHINE_REPEATS = 2


def _time_engine() -> dict:
    report = {"schema": 3, "runs": [], "oracle": [], "result_cache": {}}

    # Raw simulation throughput: compute in-process, disk cache bypassed
    # so a warm cache cannot fake engine speed.
    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        runner.clear_caches()
        for name in BENCHMARKS:
            program = runner.get_program(name)
            n = runner.default_length(name)
            start = time.perf_counter()
            oracle = run_oracle(program, n)
            elapsed = time.perf_counter() - start
            report["oracle"].append({
                "benchmark": name,
                "instructions": len(oracle),
                "seconds": elapsed,
                "inst_per_sec": len(oracle) / elapsed if elapsed else 0.0,
            })
            for label, config in CONFIGS:
                start = time.perf_counter()
                result = FrontEndSimulator(program, config, oracle=oracle).run()
                elapsed = time.perf_counter() - start
                accesses = result.tc_hits + result.tc_misses
                report["runs"].append({
                    "benchmark": name,
                    "config": label,
                    "instructions": result.instructions_retired,
                    "cycles": result.cycles,
                    "seconds": elapsed,
                    "inst_per_sec":
                        result.instructions_retired / elapsed if elapsed else 0.0,
                    "effective_fetch_rate": result.effective_fetch_rate,
                    "tc_hit_rate": result.tc_hits / accesses if accesses else 0.0,
                })
    finally:
        os.environ.pop("REPRO_DISK_CACHE", None)

    # Result-cache round trip: one cold store + one warm load.
    name, (_label, config) = BENCHMARKS[0], CONFIGS[0]
    n = runner.default_length(name)
    runner.clear_caches()
    start = time.perf_counter()
    runner.frontend_result(name, config, n)  # computes, stores to disk
    report["result_cache"]["cold_seconds"] = time.perf_counter() - start
    runner.clear_caches()  # memos only: next call must hit the disk
    start = time.perf_counter()
    runner.frontend_result(name, config, n)
    warm = time.perf_counter() - start
    report["result_cache"]["warm_seconds"] = warm
    report["result_cache"]["disk_enabled"] = diskcache.enabled()
    report["result_cache"].update(diskcache.stats())
    return report


def bench_engine_throughput(benchmark, emit):
    report = run_once(benchmark, _time_engine)

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_engine.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = ["Engine throughput (correct-path instructions simulated / second)"]
    for row in report["oracle"]:
        lines.append(f"  oracle     {row['benchmark']:<10}"
                     f"{row['inst_per_sec']:>12,.0f} inst/s")
    for row in report["runs"]:
        lines.append(f"  {row['config']:<10} {row['benchmark']:<10}"
                     f"{row['inst_per_sec']:>12,.0f} inst/s  "
                     f"(tc hit rate {row['tc_hit_rate']:.2f})")
    cache = report["result_cache"]
    lines.append(f"  result cache: cold {cache['cold_seconds']:.2f}s -> "
                 f"warm {cache['warm_seconds']:.3f}s "
                 f"({cache['entries']} entries on disk)")
    emit("BENCH_engine", "\n".join(lines))

    # Structural assertions only — no machine-dependent throughput floors.
    assert all(row["inst_per_sec"] > 0 for row in report["runs"])
    for row in report["runs"]:
        if row["config"] == "baseline":
            assert row["tc_hit_rate"] > 0.1
    if cache["disk_enabled"]:
        # A warm fetch deserializes JSON instead of simulating: it must be
        # far cheaper than the cold run it replaces.
        assert cache["warm_seconds"] < cache["cold_seconds"] / 2


def _time_machine() -> dict:
    """Machine-core speed record: the core against the frozen seed core.

    Runs the figure-11-class machine grid (one benchmark, the paper's three
    front-end configurations, warmed front end) end to end — front-end
    warmup plus machine window — once per core per repeat over
    :mod:`repro.core.machine` and the seed reference it must match, keeps
    the best-of-N minimum per configuration, and asserts the serialized
    results are byte-identical before recording the speedups.
    """
    report = {"schema": 5, "grid": [], "grid_total": {}, "trace_files": {}}
    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        runner.clear_caches()
        name = MACHINE_GRID_BENCHMARK
        program = runner.get_program(name)
        warm_n = runner.default_length(name)
        n = runner.machine_length(name)
        oracle = runner.get_oracle(name, warm_n)

        def run_point(machine_cls, config):
            start = time.perf_counter()
            engine = build_engine(program, config.frontend,
                                  memory_config=config.memory)
            FrontEndSimulator(program, config.frontend, oracle=oracle,
                              engine=engine).run()
            result = machine_cls(program, config, max_instructions=n,
                                 engine=engine).run()
            return time.perf_counter() - start, result

        def best_point(machine_cls, config):
            runs = [run_point(machine_cls, config)
                    for _ in range(MACHINE_REPEATS)]
            seconds, result = min(runs, key=lambda r: r[0])
            return seconds, canonical_json(machine_result_to_dict(result)), \
                result

        total_ref = total_fast = 0.0
        for label, frontend in MACHINE_CONFIGS:
            config = MachineConfig(frontend=frontend)
            fast_s, fast_json, fast_result = best_point(Machine, config)
            ref_s, ref_json, _ = best_point(ReferenceMachine, config)
            total_ref += ref_s
            total_fast += fast_s
            report["grid"].append({
                "benchmark": name,
                "config": label,
                "machine_instructions": n,
                "warmup_instructions": warm_n,
                "reference_seconds": ref_s,
                "machine_seconds": fast_s,
                "speedup_vs_reference": ref_s / fast_s if fast_s else 0.0,
                "machine_inst_per_sec": fast_result.retired / fast_s
                if fast_s else 0.0,
                "ipc": fast_result.ipc,
                "cycles": fast_result.cycles,
                "results_identical": fast_json == ref_json,
            })
        report["grid_total"] = {
            "reference_seconds": total_ref,
            "machine_seconds": total_fast,
            "speedup_vs_reference": total_ref / total_fast
            if total_fast else 0.0,
        }
    finally:
        os.environ.pop("REPRO_DISK_CACHE", None)

    # Trace-file round trip: cold functional execution + binary store vs a
    # warm mmap load of the same oracle stream (best-of-3 minima each).
    runner.clear_caches(disk=True)
    name = MACHINE_GRID_BENCHMARK
    program = runner.get_program(name)
    n = runner.default_length(name)

    def _best_of(fn, repeats=3):
        best_s, value = None, None
        for _ in range(repeats):
            start = time.perf_counter()
            value = fn()
            elapsed = time.perf_counter() - start
            if best_s is None or elapsed < best_s:
                best_s = elapsed
        return best_s, value

    compute_s, oracle = _best_of(lambda: compute_oracle(program, n))
    store_s, stored = _best_of(lambda: tracefile.store_oracle(name, n, oracle))
    load_s, loaded = _best_of(lambda: tracefile.load_oracle(name, n, program))
    report["trace_files"] = {
        "enabled": tracefile.enabled(),
        "instructions": n,
        "cold_compute_seconds": compute_s,
        "cold_store_seconds": store_s,
        "warm_load_seconds": load_s,
        "replay_speedup": (compute_s / load_s) if load_s else 0.0,
        "stored": stored is not None,
        "loaded": loaded is not None and len(loaded) == n,
    }
    return report


def bench_machine_core(benchmark, emit):
    report = run_once(benchmark, _time_machine)

    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_machine.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    lines = ["Machine core vs seed reference "
             f"({MACHINE_GRID_BENCHMARK} machine grid, warmed front end)"]
    for row in report["grid"]:
        lines.append(
            f"  {row['config']:<18} ref {row['reference_seconds']:5.2f}s  "
            f"machine {row['machine_seconds']:5.2f}s  "
            f"{row['speedup_vs_reference']:4.2f}x vs ref  "
            f"({row['machine_inst_per_sec']:,.0f} machine inst/s, "
            f"identical={row['results_identical']})")
    total = report["grid_total"]
    lines.append(f"  grid total         ref {total['reference_seconds']:5.2f}s"
                 f"  machine {total['machine_seconds']:5.2f}s  "
                 f"{total['speedup_vs_reference']:4.2f}x vs ref")
    tf = report["trace_files"]
    if tf["enabled"]:
        lines.append(
            f"  oracle trace file: compute {tf['cold_compute_seconds']:.2f}s"
            f" + store {tf['cold_store_seconds']:.3f}s -> "
            f"mmap load {tf['warm_load_seconds']:.3f}s "
            f"({tf['replay_speedup']:,.0f}x replay speedup)")
    emit("BENCH_machine", "\n".join(lines))

    # The optimization contract: byte-identical results across both
    # cores and the grid well ahead of the seed reference.  (Per-config
    # jitter on a shared 1-core container is real; grid totals are the
    # stable numbers, so only they carry floors.)
    assert all(row["results_identical"] for row in report["grid"])
    assert total["speedup_vs_reference"] >= 1.5
    if tf["enabled"]:
        assert tf["stored"] and tf["loaded"]
        # Replaying from the binary trace must beat functional
        # re-execution (its whole point); the margin is what the record
        # in BENCH_machine.json tracks over time.
        assert tf["warm_load_seconds"] < tf["cold_compute_seconds"]
