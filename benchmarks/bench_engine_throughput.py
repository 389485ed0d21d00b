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
from repro.experiments import columns
from repro.trace.bias_table import BranchBiasTable
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


def _scalar_census(oracle, program) -> dict:
    """The row-by-row replay census :func:`columns.oracle_census` replaces."""
    class_counts = [0] * 10
    cond = taken_count = blocks = 0
    touched = set()
    for inst, taken, _next_pc in oracle:
        op = inst.op
        touched.add(inst.addr)
        class_counts[op.commit_code] += 1
        if taken is not None:
            cond += 1
            if taken:
                taken_count += 1
        if op.ends_fetch_block:
            blocks += 1
    return {
        "dynamic_instructions": len(oracle),
        "cond_branches": cond,
        "taken_branches": taken_count,
        "fetch_blocks": blocks,
        "static_touched": len(touched),
        "class_counts": class_counts,
    }


def _best_of(fn, repeats=3):
    best_s, value = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best_s is None or elapsed < best_s:
            best_s = elapsed
    return best_s, value


def _time_vector() -> dict:
    """Scalar-vs-columnar throughput rows (the ``REPRO_VECTOR`` ledger).

    Each row times the reference per-record walk against its columnar
    replacement on the same stream and records the speedup — after
    asserting both produce identical results, so a row can never get
    fast by getting wrong.
    """
    section = {"enabled": columns.enabled(), "rows": []}
    if not section["enabled"]:
        return section
    from repro.workloads.stats import (_characterize_columns,
                                       _characterize_scalar)

    def add_row(kind, benchmark, items, scalar_fn, vector_fn):
        scalar_s, scalar_value = _best_of(scalar_fn)
        vector_s, vector_value = _best_of(vector_fn)
        assert scalar_value == vector_value, f"{kind}/{benchmark} diverged"
        section["rows"].append({
            "kind": kind,
            "benchmark": benchmark,
            "items": items,
            "scalar_seconds": scalar_s,
            "vector_seconds": vector_s,
            "speedup": scalar_s / vector_s if vector_s else 0.0,
        })

    for name in BENCHMARKS:
        program = runner.get_program(name)
        n = runner.default_length(name)
        rows = run_oracle(program, n)
        oracle = tracefile.as_columns(rows)
        addrs = columns.as_u32(oracle.addrs)
        dirs = columns.as_u8(oracle.dirs)
        columns.program_flags(program)  # build outside the timed region

        add_row("oracle_replay", name, len(rows),
                lambda: _scalar_census(rows, program),
                lambda: columns.oracle_census(addrs, dirs, program))
        add_row("workload_stats", name, n,
                lambda: _characterize_scalar(program, n),
                lambda: _characterize_columns(program, n))
        add_row("segmentation", name, len(rows),
                lambda: _scalar_block_histogram(rows),
                lambda: columns.block_size_counter(addrs, program))

        mask = columns.branch_mask(dirs)
        pcs = addrs[mask]
        takens = dirs[mask]
        pcs_list = pcs.tolist()
        takens_list = [bool(t) for t in takens.tolist()]

        def scalar_bias():
            table = BranchBiasTable(entries=1024, threshold=16)
            update = table.update_fast
            flags = bytes(update(pc, taken)
                          for pc, taken in zip(pcs_list, takens_list))
            return flags, table.promotions, table.demotions

        def vector_bias():
            table = BranchBiasTable(entries=1024, threshold=16)
            flags = table.retire_bulk(pcs, takens)
            return flags, table.promotions, table.demotions

        add_row("bias_counting", name, len(pcs_list),
                scalar_bias, vector_bias)
    return section


def _scalar_block_histogram(oracle):
    """Per-record fetch-block segmentation (the stats.py reference loop)."""
    from collections import Counter

    histogram = Counter()
    block_len = 0
    for inst, _taken, _next_pc in oracle:
        block_len += 1
        if inst.op.ends_fetch_block:
            histogram[min(block_len, 16)] += 1
            block_len = 0
    return histogram


def _time_engine() -> dict:
    report = {"schema": 2, "runs": [], "oracle": [], "result_cache": {},
              "vector": {}}

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

    # Scalar-vs-columnar rows (oracle replay census, workload statistics,
    # fetch-block segmentation, bias-table retirement counting).
    os.environ["REPRO_DISK_CACHE"] = "0"
    try:
        runner.clear_caches()
        report["vector"] = _time_vector()
    finally:
        os.environ.pop("REPRO_DISK_CACHE", None)
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
    vector = report["vector"]
    if vector["enabled"]:
        lines.append("Vectorized columns vs scalar reference (REPRO_VECTOR)")
        for row in vector["rows"]:
            lines.append(
                f"  {row['kind']:<16} {row['benchmark']:<10}"
                f" scalar {row['scalar_seconds']*1e3:8.1f}ms ->"
                f" vector {row['vector_seconds']*1e3:8.1f}ms "
                f" {row['speedup']:6.1f}x")
    else:
        lines.append("Vectorized columns: disabled (no numpy / REPRO_VECTOR=0)")
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
    if vector["enabled"]:
        # The vectorization contract: replacing a per-record Python walk
        # with array passes must be a decisive win, not a wash.  2x is a
        # deliberately loose floor (measured speedups are far higher);
        # equality of results is asserted inside _time_vector itself.
        for row in vector["rows"]:
            if row["kind"] in ("oracle_replay", "workload_stats"):
                assert row["speedup"] >= 2.0, row


def _time_machine() -> dict:
    """Machine-core speed record: the core against the frozen seed core.

    Runs the figure-11-class machine grid (one benchmark, the paper's three
    front-end configurations, warmed front end) end to end — front-end
    warmup plus machine window — once per core per repeat over
    :mod:`repro.core.machine` and the seed reference it must match, keeps
    the best-of-N minimum per configuration, and asserts the serialized
    results are byte-identical before recording the speedups.  A second
    section times :func:`runner.run_machine_multi`: the same three-config
    grid as one batched pass over a shared oracle stream versus three
    isolated cold points, which is where a cold multi-config grid actually
    saves time.
    """
    report = {"schema": 4, "grid": [], "grid_total": {},
              "multi_config": {}, "trace_files": {}}
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

        # One-pass multi-config grid: with caches genuinely cold (no disk
        # results, no trace files), three isolated points each pay their
        # own functional oracle execution; the batched pass pays it once.
        os.environ["REPRO_TRACE_FILES"] = "0"
        try:
            configs = [MachineConfig(frontend=f) for _, f in MACHINE_CONFIGS]
            point_jsons = []
            point_total = 0.0
            for config in configs:
                runner.clear_caches()
                start = time.perf_counter()
                result = runner.machine_result(name, config)
                point_total += time.perf_counter() - start
                point_jsons.append(
                    canonical_json(machine_result_to_dict(result)))
            runner.clear_caches()
            start = time.perf_counter()
            batched = runner.run_machine_multi(name, configs)
            batched_s = time.perf_counter() - start
            batched_jsons = [canonical_json(machine_result_to_dict(r))
                             for r in batched]
            report["multi_config"] = {
                "benchmark": name,
                "configs": [label for label, _ in MACHINE_CONFIGS],
                "per_point_seconds": point_total,
                "batched_seconds": batched_s,
                "amortization_speedup": point_total / batched_s
                if batched_s else 0.0,
                "results_identical": batched_jsons == point_jsons,
            }
        finally:
            os.environ.pop("REPRO_TRACE_FILES", None)

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
    multi = report["multi_config"]
    lines.append(f"  multi-config grid  {len(multi['configs'])} cold points "
                 f"{multi['per_point_seconds']:5.2f}s -> one-pass batch "
                 f"{multi['batched_seconds']:5.2f}s  "
                 f"{multi['amortization_speedup']:4.2f}x  "
                 f"(identical={multi['results_identical']})")
    tf = report["trace_files"]
    if tf["enabled"]:
        lines.append(
            f"  oracle trace file: compute {tf['cold_compute_seconds']:.2f}s"
            f" + store {tf['cold_store_seconds']:.3f}s -> "
            f"mmap load {tf['warm_load_seconds']:.3f}s "
            f"({tf['replay_speedup']:,.0f}x replay speedup)")
    emit("BENCH_machine", "\n".join(lines))

    # The optimization contract: byte-identical results across both
    # cores, the grid well ahead of the seed reference, and the batched
    # multi-config pass beating isolated cold points.  (Per-config jitter
    # on a shared 1-core container is real; grid totals are the stable
    # numbers, so only they carry floors.)
    assert all(row["results_identical"] for row in report["grid"])
    assert total["speedup_vs_reference"] >= 1.5
    assert multi["results_identical"]
    # The batch shares one program build and one functional oracle
    # execution across the grid; three isolated cold points pay three.
    # That shared slice is small next to per-config warmup+window at this
    # scale, so the floor only requires the batch not to *lose* (with a
    # jitter allowance); the measured margin is the record.
    assert multi["batched_seconds"] <= multi["per_point_seconds"] * 1.10
    if tf["enabled"]:
        assert tf["stored"] and tf["loaded"]
        # Replaying from the binary trace must beat functional
        # re-execution (its whole point); the margin is what the record
        # in BENCH_machine.json tracks over time.
        assert tf["warm_load_seconds"] < tf["cold_compute_seconds"]
