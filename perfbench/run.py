#!/usr/bin/env python3
"""Paper-level benchmark: cold front-end and machine grids, warm service.

Run from the repository root::

    python3 perfbench/run.py --workload frontend_grid --seed 1 \\
        --seconds 25 --trace 0

Workloads (``frontend_grid``, ``machine_grid``, ``warm_service``),
metrics and the layer table are described in ``perfbench/README.md``.
Every run pins the ``REPRO_*`` environment, works in a private cache
directory under ``.perfbench_tmp/`` that it removes at exit, runs
everything in this one process (``jobs=1``: no pool is spawned), checks
every simulated result against the reference digests in
``perfbench/reference.json``, and verifies at exit that no child process
and no thread it started is still alive (exit code 3 otherwise).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end timings are scaled to the reference host's speed by a
calibration loop read between pieces of work (``harness.ScaledClock``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import harness
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
#: Where a traced run writes its spans, in the checkout.
SPANS = ROOT / ".perfbench_spans"

#: Every knob the simulator reads, pinned so the caller's shell cannot
#: change the workload.  ``REPRO_CACHE_DIR`` is set per run (and per
#: cold pass); the empty values mean "off" for QUICK, VALIDATE and
#: FAULTS.  Scale 0.25 is the paper grids' CI scale.
PINNED_ENV = {
    "REPRO_SCALE": "0.25",
    "REPRO_QUICK": "",
    "REPRO_VALIDATE": "0",
    "REPRO_FAULTS": "",
    "REPRO_JOBS": "1",
    "REPRO_DISK_CACHE": "1",
    "REPRO_TRACE_FILES": "1",
    "REPRO_CACHE_MAX_MB": "0",
    "REPRO_CHECKPOINTS": "1",
    "REPRO_RESUME": "0",
    "REPRO_KEEP_GOING": "0",
    "REPRO_RETRIES": "2",
    "REPRO_BACKOFF": "0.1",
    "REPRO_POINT_TIMEOUT": "0",
    "REPRO_FAST_FRONTEND": "1",
    "REPRO_FAST_MACHINE": "1",
    "REPRO_MACHINE_MULTI": "1",
    "REPRO_MACHINE_MEMO": "1",
    "REPRO_MACHINE_MEMO_MAX": "4096",
    "REPRO_VECTOR": "1",
    "REPRO_SERVICE_ADDR": "127.0.0.1:0",
    "REPRO_ADMIT_MAX": "4",
    "REPRO_CLIENT_BACKLOG": "32",
    "REPRO_DRAIN_GRACE": "30",
    "REPRO_FLEET_MIN": "1",
    "REPRO_LEASE_TTL": "30",
    "REPRO_HEARTBEAT": "5",
}

#: Trace-cache footprint spans these: compress is small, gcc large, go
#: has hard-to-predict branches.
FRONTEND_BENCHMARKS = ("compress", "gcc", "go")
#: perl has the best machine-memo recurrence, compress almost none.
MACHINE_BENCHMARKS = ("compress", "perl", "gcc")

#: Nominal host seconds of one pass on a busy 2-core x86-64 host, with
#: the calibration readings.  A run does about ``seconds / nominal``
#: passes (at least MIN_PASSES; on the front end a whole number of
#: config rotations, see pass_orders): a fixed amount of work per run,
#: so every run has the same sample count and the same tail percentile.
NOMINAL_PASS_S = {"frontend_grid": 3.3, "machine_grid": 5.0,
                  "warm_service": 0.125}
MIN_PASSES = {"frontend_grid": 5, "machine_grid": 3, "warm_service": 10}
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPS = 7

#: A fresh interpreter importing every layer the benchmark drives, and
#: hashing the sources for cache keys: what a user pays per process.
IMPORT_PROBE = ("import repro.experiments.paper, repro.experiments.scheduler,"
                " repro.service.server, repro.service.client;"
                " from repro.experiments.cachekey import code_fingerprint;"
                " code_fingerprint()")

#: Span name -> per-layer time metric.  The benchmark's own root span
#: holds whatever no layer claims.
SPAN_METRIC = {
    "frontend.run": "frontend.run_s",
    "frontend.build": "frontend.build_s",
    "core.run": "core.run_s",
    "core.warmup": "core.warmup_s",
    "workloads.generate": "workloads.generate_s",
    "isa.oracle": "isa.oracle_s",
    "tracefile.store": "tracefile.store_s",
    "tracefile.load": "tracefile.load_s",
    "diskcache.store": "diskcache.store_s",
    "diskcache.load": "diskcache.load_s",
    "serialize.encode": "serialize.encode_s",
    "serialize.decode": "serialize.decode_s",
    "scheduler.run_grid": "scheduler.self_s",
    "scheduler.run_point": "scheduler.self_s",
    "scheduler.backoff": "scheduler.self_s",
    "bench.pass": "trace.unattributed_s",
}


# ------------------------------------------------------------ environment

def pin_environment(run_dir: Path) -> None:
    """Clear every inherited ``REPRO_*`` variable and pin the knobs."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class CacheDirs:
    """Fresh ``REPRO_CACHE_DIR`` subdirectories inside the run directory."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.serial = 0
        self.current: Path = run_dir / "cache"

    def fresh(self) -> Path:
        self.drop()
        self.serial += 1
        self.current = self.run_dir / f"cache-{self.serial}"
        os.environ["REPRO_CACHE_DIR"] = str(self.current)
        return self.current

    def drop(self) -> None:
        shutil.rmtree(self.current, ignore_errors=True)


# ------------------------------------------------------------------ grids

def grid_points(kind: str, book: Optional[harness.DigestBook] = None
                ) -> List[Tuple[str, object]]:
    """``(point_id, GridPoint)`` pairs of one paper grid, in paper order.

    Run lengths come from the pinned scale; a length that disagrees with
    the digest ``book`` means the pinning broke, and aborts the run.
    """
    from repro.experiments import paper
    from repro.experiments.scheduler import FRONTEND, GridPoint
    if kind == FRONTEND:
        pairs = [(b, name, config) for b in FRONTEND_BENCHMARKS
                 for name, config in paper.FIG10_CONFIGS]
    else:
        pairs = [(b, name, config) for b in MACHINE_BENCHMARKS
                 for name, config in paper._machine_configs(False)]
    points = []
    for benchmark, name, config in pairs:
        point_id = f"{kind}/{benchmark}/{name}"
        point = GridPoint(kind, benchmark, config).resolved()
        if book is not None and point.n != book.length(point_id):
            raise SystemExit(f"perfbench: {point_id} runs {point.n} "
                             f"instructions, digests expect "
                             f"{book.length(point_id)}")
        points.append((point_id, point))
    return points


def result_payload(kind: str, result) -> Dict:
    from repro.experiments import serialize
    if kind == "frontend":
        return serialize.frontend_result_to_dict(result)
    return serialize.machine_result_to_dict(result)


def result_instructions(kind: str, payload: Dict) -> int:
    """Correct-path instructions (front end) or retired in the machine
    window (machine) that one result stands for."""
    if kind == "frontend":
        return payload["instructions_retired"]
    return payload["retired"]


def passes_for(args, block: int = 1) -> int:
    """Passes for ``--seconds`` at the nominal pass time, a multiple of
    ``block``.  A traced run does each pass twice (untraced, then
    traced), so it does half as many."""
    passes = max(MIN_PASSES[args.workload],
                 round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(block, passes // 2)
    return block * max(1, round(passes / block))


def pass_orders(points: List[Tuple[str, object]], passes: int,
                rng: random.Random) -> List[List[Tuple[str, object]]]:
    """One seeded point order per pass.

    The first point of a benchmark in a cold pass also pays for program
    generation and the oracle.  Over every block of C passes (C configs
    per benchmark) each config leads its benchmark exactly once, so the
    work a run does is the same whatever the seed; only the order moves.
    """
    members: Dict[str, List] = {}
    for item in points:
        members.setdefault(item[1].benchmark, []).append(item)
    offsets = {bench: rng.randrange(len(group))
               for bench, group in members.items()}
    orders = []
    for index in range(passes):
        order = list(points)
        rng.shuffle(order)
        for bench, group in members.items():
            lead = group[(index + offsets[bench]) % len(group)]
            first = next(i for i, item in enumerate(order)
                         if item[1].benchmark == bench)
            at = order.index(lead)
            order[first], order[at] = order[at], order[first]
        orders.append(order)
    return orders


# ---------------------------------------------------------------- tracing

def _on_frontend(tracer: Tracer, result, _args) -> None:
    tracer.count("frontend.inst", result.instructions_retired)
    tracer.count("frontend.tc_hits", result.tc_hits)
    tracer.count("frontend.tc_lookups", result.tc_hits + result.tc_misses)


def _on_machine(tracer: Tracer, result, _args) -> None:
    tracer.count("core.inst", result.retired)
    tracer.count("core.cycles", result.cycles)


def _on_oracle(tracer: Tracer, result, _args) -> None:
    tracer.count("isa.oracle_inst", len(result))


def _on_trace_load(tracer: Tracer, result, _args) -> None:
    tracer.count("tracefile.hits" if result is not None
                 else "tracefile.misses")


def _on_cache_load(tracer: Tracer, result, _args) -> None:
    tracer.count("diskcache.loads")
    if result is not None:
        tracer.count("diskcache.hits")


def _on_cache_store(tracer: Tracer, _result, _args) -> None:
    tracer.count("diskcache.stores")


def _on_grid(tracer: Tracer, result, _args) -> None:
    tracer.count("scheduler.points", len(result))


def _on_backoff(tracer: Tracer, _result, _args) -> None:
    tracer.count("scheduler.retries")  # one backoff wait per retry


def install_spans(tracer: Tracer, workload: str) -> None:
    """Patch every layer boundary the benchmark attributes time to.

    Names the program imported by value are patched where they are
    looked up (``runner.generate_program``, the serializers in runner,
    scheduler and protocol); the rest are class methods and module
    attributes read at call time.
    """
    from repro.core.machine import Machine
    from repro.experiments import (diskcache, faults, runner, scheduler,
                                   tracefile)
    from repro.frontend import build, simulator
    from repro.service import protocol
    # The machine grid runs the front end only to warm it functionally.
    fe = "core.warmup" if workload == "machine_grid" else "frontend.run"
    tracer.patch(simulator.FrontEndSimulator, "__init__", fe)
    tracer.patch(simulator.FrontEndSimulator, "run", fe, _on_frontend)
    tracer.patch(build, "build_engine", "frontend.build")
    tracer.patch(simulator, "build_engine", "frontend.build")
    tracer.patch(Machine, "__init__", "core.run")
    tracer.patch(Machine, "run", "core.run", _on_machine)
    tracer.patch(runner, "generate_program", "workloads.generate")
    tracer.patch(runner, "compute_oracle", "isa.oracle", _on_oracle)
    tracer.patch(tracefile, "load_oracle", "tracefile.load", _on_trace_load)
    tracer.patch(tracefile, "store_oracle", "tracefile.store")
    tracer.patch(diskcache, "load", "diskcache.load", _on_cache_load)
    tracer.patch(diskcache, "store", "diskcache.store", _on_cache_store)
    for module in (runner, scheduler, protocol):
        for attr in ("frontend_result_to_dict", "machine_result_to_dict"):
            tracer.patch(module, attr, "serialize.encode")
        for attr in ("frontend_result_from_dict", "machine_result_from_dict"):
            tracer.patch(module, attr, "serialize.decode")
    tracer.patch(scheduler, "run_grid", "scheduler.run_grid", _on_grid)
    tracer.patch(scheduler, "_run_point", "scheduler.run_point")
    tracer.patch(faults, "backoff_delay", "scheduler.backoff", _on_backoff)


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (before service additions)."""
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, seconds in self_times(tracer.spans).items():
        metric = SPAN_METRIC.get(name)
        if metric is not None:
            values[metric] += seconds
    counts = tracer.counts
    for name in ("frontend.inst", "core.inst", "core.cycles",
                 "isa.oracle_inst", "tracefile.hits", "tracefile.misses",
                 "diskcache.stores", "diskcache.hits", "diskcache.loads",
                 "scheduler.points"):
        values[name] = float(counts[name])
    lookups = counts["frontend.tc_lookups"]
    values["frontend.tc_hit_rate"] = (counts["frontend.tc_hits"] / lookups
                                      if lookups else 0.0)
    values["scheduler.retries"] = float(counts["scheduler.retries"])
    values["trace.wall_s"] = sum(
        (end - start) / 1e9 for name, start, end, _p, _t in tracer.spans
        if name == "bench.pass")
    return values


# --------------------------------------------------------------- per-layer

#: Unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER_UNITS = {
    "frontend.run_s": "s", "frontend.build_s": "s",
    "frontend.inst": "count", "frontend.tc_hit_rate": "ratio",
    "core.run_s": "s", "core.warmup_s": "s", "core.inst": "count",
    "core.cycles": "count", "core.memo_hit_rate": "ratio",
    "workloads.generate_s": "s", "isa.oracle_s": "s",
    "isa.oracle_inst": "count", "tracefile.store_s": "s",
    "tracefile.load_s": "s", "tracefile.hits": "count",
    "tracefile.misses": "count",
    "diskcache.store_s": "s", "diskcache.stores": "count",
    "serialize.encode_s": "s",
    "diskcache.load_s": "s", "diskcache.hits": "count",
    "diskcache.loads": "count", "serialize.decode_s": "s",
    "scheduler.self_s": "s", "scheduler.points": "count",
    "scheduler.retries": "count",
    "service.self_ms": "ms", "service.coalesced": "count",
    "service.cache_hits": "count", "service.rejected": "count",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Accumulates one run's samples, checks and per-layer passes."""

    def __init__(self, book: harness.DigestBook):
        self.book = book
        self.setup_s: List[float] = []
        #: Pass times scaled to the reference host, and as measured.
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.traced_walls: List[float] = []
        self.kips: List[float] = []
        self.latencies: List[float] = []
        self.round_p50: List[float] = []
        self.round_tail: List[float] = []
        self.tail_n = 0
        self.tail_pct = 0.0
        self.attempted = 0
        self.failed = 0
        self.layers: List[Dict[str, float]] = []
        #: Every traced pass's spans, ``[pass, name, start_ns, end_ns,
        #: parent, thread]``, written out at exit.
        self.spans: List[list] = []

    def add_traced_pass(self, layers: Dict[str, float], spans) -> None:
        self.spans.extend([len(self.layers)] + span for span in spans)
        self.layers.append(layers)

    def check(self, point_id: str, payload) -> bool:
        """Count one operation; a missing or mismatched result fails it."""
        self.attempted += 1
        ok = payload is not None and self.book.matches(point_id, payload)
        if not ok:
            self.failed += 1
            print(f"perfbench: {point_id} failed or mismatched the "
                  f"reference digest", file=sys.stderr)
        return ok

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        median = statistics.median
        if self.round_p50:  # warm service: per-round figures
            p50 = median(self.round_p50)
            tail_value = median(self.round_tail)
        else:
            p50 = median(self.latencies)
            tail_value, self.tail_pct, self.tail_n = harness.tail(
                self.latencies)
        metrics = {
            "setup_s": (median(self.setup_s), "s"),
            "wall_s": (median(self.walls), "s"),
            "sim_kips": (median(self.kips), "kinst/s"),
            "point_p50_s": (p50, "s"),
            "point_tail_s": (tail_value, "s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
            "ok_frac": ((self.attempted - self.failed)
                        / max(1, self.attempted), "fraction"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    def per_layer(self) -> Dict[str, Dict[str, float]]:
        n = max(1, len(self.layers))
        means = {name: sum(layer[name] for layer in self.layers) / n
                 for name in PER_LAYER_UNITS}
        # Each traced pass repeats the untraced pass just before it, so
        # the pairs share the host's state.  Both are host seconds.
        means["trace.overhead_s"] = statistics.median(
            traced - untraced
            for untraced, traced in zip(self.raw_walls, self.traced_walls))
        return {name: {"value": means[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}


def print_layer_table(metrics: Dict[str, Dict[str, float]]) -> None:
    """Self times per traced pass.  On the cold grids every span is on
    the benchmark's thread, so the rows add up to trace.wall_s; on the
    warm service the service thread's spans overlap the round trips."""
    rows = [(name, metrics[name]["value"])
            for name in dict.fromkeys(SPAN_METRIC.values())]
    wall = metrics["trace.wall_s"]["value"]
    print(f"{'layer (self time per traced pass)':40s} {'seconds':>10s} "
          f"{'share':>7s}")
    for name, value in rows:
        share = 100.0 * value / wall if wall else 0.0
        print(f"{name:40s} {value:10.4f} {share:6.1f}%")
    total = sum(value for _name, value in rows)
    print(f"{'sum of the above':40s} {total:10.4f}")
    print(f"{'trace.wall_s (traced pass)':40s} {wall:10.4f}")
    print(f"{'trace.overhead_s (traced - untraced)':40s} "
          f"{metrics['trace.overhead_s']['value']:10.4f}")


# -------------------------------------------------------------- workloads

def unit_clock(latencies: List[float], clock: harness.ScaledClock
               ) -> Callable:
    """A wrapper for ``scheduler._run_point`` that times every unit.

    A unit's latency, in host seconds, is the pass's ``clock`` split at
    its end: its own time plus the scheduler's since the previous unit
    ended.
    The scheduler runs a machine batch (one benchmark's configs) as one
    unit; each member's latency is the batch's time over its members.
    """
    def make(run_point):
        def timed(unit, *args, **kwargs):
            result = run_point(unit, *args, **kwargs)
            seconds = clock.split()
            members = len(getattr(unit, "points", (unit,)))
            latencies.extend([seconds / members] * members)
            return result
        return timed
    return make


def install_laps(tracer: Tracer, clock: harness.ScaledClock,
                 workload: str) -> None:
    """Close a lap of ``clock`` after each long step inside a unit.

    So the readings sample the host's speed all through the pass, not
    just between units.  A front-end unit runs for about 0.15 s, longer
    only when it leads its benchmark and also builds the program and
    the oracle; a machine batch runs for over a second: a functional
    warm-up and a machine window per config.
    """
    from repro.core.machine import Machine
    from repro.experiments import runner
    from repro.frontend import simulator
    steps = [(runner, "generate_program"), (runner, "compute_oracle")]
    if workload == "machine_grid":
        steps += [(simulator.FrontEndSimulator, "run"), (Machine, "run")]

    def lap_after(step):
        def timed(*args, **kwargs):
            try:
                return step(*args, **kwargs)
            finally:
                clock.lap()
        return timed

    for owner, attr in steps:
        tracer.substitute(owner, attr, lap_after)


def timed_setups(body: Callable, undo: Optional[Callable] = None
                 ) -> Tuple[List[float], object]:
    """Set up ``SETUP_REPS`` times, each time from a fresh interpreter
    importing the layers, then ``body()``.

    Returns the reference-host seconds of every set-up and the last
    set-up's result.  ``undo(result)`` tears each earlier set-up down,
    outside the timing.
    """
    clock = harness.ScaledClock()
    clock.start()
    seconds = []
    for rep in range(SETUP_REPS):
        clock.split()  # what came before is not set-up
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        result = body()
        seconds.append(clock.split())
        if undo is not None and rep < SETUP_REPS - 1:
            undo(result)
    factor = clock.factor()
    return [value * factor for value in seconds], result


def run_cold_grid(args, rec: Recorder, dirs: CacheDirs) -> None:
    """A cold paper grid: every pass starts with empty caches.

    A pass is one ``run_grid(order, jobs=1, resume=False)`` call, as the
    paper's figures prefetch their grids, so machine points run batched
    through ``runner.run_machine_multi``.
    """
    from repro.core import memo
    from repro.experiments import runner, scheduler
    kind = "frontend" if args.workload == "frontend_grid" else "machine"
    rec.setup_s, points = timed_setups(lambda: grid_points(kind, rec.book))

    # A front-end pass's first point of a benchmark also pays for its
    # program and oracle, so passes come in blocks that let every config
    # lead once.  Machine points of a benchmark run as one batch, which
    # pays them once for all its configs.
    configs = len(points) // len({point.benchmark for _id, point in points})
    passes = passes_for(args, block=configs if kind == "frontend" else 1)
    tracer = Tracer()
    for order in pass_orders(points, passes, random.Random(args.seed)):
        for traced in ((False, True) if args.trace else (False,)):
            dirs.fresh()
            runner.clear_caches()
            gc.collect()
            memo0 = memo.aggregate_stats()
            latencies: List[float] = []
            clock = harness.ScaledClock()
            if traced:
                tracer.reset()
                install_spans(tracer, args.workload)
            else:
                tracer.substitute(scheduler, "_run_point",
                                  unit_clock(latencies, clock))
                install_laps(tracer, clock, args.workload)
                clock.start()
            start = time.perf_counter()
            try:
                with tracer.span("bench.pass") if traced else nullcontext():
                    out = scheduler.run_grid([p for _id, p in order],
                                             jobs=1, resume=False)
            except Exception as exc:  # every point of the pass fails
                print(f"perfbench: {args.workload} pass: {exc!r}",
                      file=sys.stderr)
                out = {}
            finally:
                tracer.restore()
            wall = time.perf_counter() - start
            if not traced:
                clock.lap()
            memo1 = memo.aggregate_stats()
            inst = 0
            for point_id, point in order:
                result = out.get(point)
                payload = (None if result is None
                           else result_payload(point.kind, result))
                if rec.check(point_id, payload):
                    inst += result_instructions(point.kind, payload)
            if traced:
                layers = layer_values(tracer)
                lookups = ((memo1["hits"] + memo1["misses"])
                           - (memo0["hits"] + memo0["misses"]))
                layers["core.memo_hit_rate"] = (
                    (memo1["hits"] - memo0["hits"]) / lookups
                    if lookups else 0.0)
                rec.add_traced_pass(layers, tracer.spans)
                rec.traced_walls.append(wall)
            else:
                factor = clock.factor()
                rec.walls.append(clock.raw * factor)
                rec.raw_walls.append(clock.raw)
                rec.kips.append(inst / (clock.raw * factor) / 1000.0)
                rec.latencies.extend(value * factor for value in latencies)
    dirs.drop()


def _prefill_and_start(points, book: harness.DigestBook, dirs: CacheDirs):
    """One warm-service set-up: a pre-filled cache, then a live service.

    The cache is filled with the reference payloads, stored under this
    code's cache keys; the cold grids already time computing them.
    """
    from repro.experiments import diskcache, runner, scheduler
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceThread
    dirs.fresh()
    runner.clear_caches()
    for point_id, point in points:
        diskcache.store(scheduler.point_key(point), point.kind,
                        book.payload(point_id))
    service = ServiceThread(host="127.0.0.1", port=0, jobs=1)
    client = None
    try:
        host, port = service.start()
        client = ServiceClient(host, port, timeout=60.0)
        client.ping()
    except BaseException:
        if client is not None:
            client.close()
        service.stop()
        raise
    return service, client


def _stop(service, client) -> None:
    client.close()
    service.stop()


class _Requested(Exception):
    """Raised by a stand-in once a paper figure has named its points."""


def paper_figures() -> List[Tuple[str, Callable]]:
    """The paper's tables and figures that request simulation results,
    called as ``python -m repro experiment <name>`` renders them (Table 1
    reads programs only)."""
    from repro import config as cfg
    from repro.experiments import paper
    return [
        ("table2", paper.table2_rows), ("table3", paper.table3_rows),
        ("table4", paper.table4_rows),
        ("fig4", lambda: paper.fetch_breakdown("gcc", cfg.BASELINE)),
        ("fig6", lambda: paper.fetch_breakdown("gcc", cfg.PROMOTION)),
        ("fig7", paper.figure7_rows), ("fig9", paper.figure9_rows),
        ("fig10", paper.figure10_rows), ("fig11", paper.figure11_rows),
        ("fig12", paper.figure12_rows), ("fig13", paper.figure13_rows),
        ("fig14", paper.figure14_rows), ("fig15", paper.figure15_rows),
        ("fig16", paper.figure16_rows),
    ]


def paper_sessions(points: List[Tuple[str, object]]
                   ) -> List[Tuple[str, List[Tuple[str, object]]]]:
    """The points each paper figure requests, kept to ``points``.

    Each figure runs with its result producers replaced by stand-ins
    that record its first request (the grid it prefetches, or the one
    point of a fetch breakdown) and stop it there, so nothing is
    simulated.  Requests outside ``points`` (threshold sweeps, the other
    packing policies, perfect disambiguation) are dropped, and a figure
    left with none is skipped.
    """
    from repro.experiments import paper
    from repro.experiments.scheduler import FRONTEND, MACHINE, GridPoint
    ids = {point: point_id for point_id, point in points}
    requested: List[object] = []

    def grid(kind):
        def record(benchmarks, configs, n=None, warmup=True, jobs=None):
            requested.extend(GridPoint(kind, b, c, n, warmup).resolved()
                             for b in benchmarks for c in configs)
            raise _Requested
        return lambda _original: record

    def single(kind):
        def record(benchmark, config, n=None, *_args, **_kwargs):
            requested.append(GridPoint(kind, benchmark, config, n).resolved())
            raise _Requested
        return lambda _original: record

    stand_ins = Tracer()
    stand_ins.substitute(paper, "prefetch_frontend", grid(FRONTEND))
    stand_ins.substitute(paper, "prefetch_machine", grid(MACHINE))
    stand_ins.substitute(paper, "frontend_result", single(FRONTEND))
    stand_ins.substitute(paper, "machine_result", single(MACHINE))
    sessions = []
    try:
        for name, figure in paper_figures():
            requested.clear()
            try:
                figure()
            except _Requested:
                pass
            kept = [(ids[point], point) for point in requested
                    if point in ids]
            if kept:
                sessions.append((name, kept))
    finally:
        stand_ins.restore()
    return sessions


def run_warm_service(args, rec: Recorder, dirs: CacheDirs) -> None:
    """Closed loop: one client replays the paper's requests to a warm
    service, one single-point submission per requested point."""
    from repro.experiments import runner
    from repro.service.client import ServiceError, ServiceOverloaded
    rng = random.Random(args.seed)
    service = client = None
    try:
        def set_up():
            points = (grid_points("frontend", rec.book)
                      + grid_points("machine", rec.book))
            return (paper_sessions(points),
                    _prefill_and_start(points, rec.book, dirs))

        rec.setup_s, (sessions, (service, client)) = timed_setups(
            set_up, undo=lambda result: _stop(*result[1]))
        submits = sum(len(kept) for _name, kept in sessions)
        counters0 = client.status()["counters"]
        tracer = Tracer()
        main_thread = threading.get_ident()
        passes = passes_for(args)
        clock = harness.ScaledClock()
        for _ in range(passes):
            # The seed orders the figures of a round and the points of
            # each figure.
            figures = [(name, rng.sample(kept, len(kept)))
                       for name, kept in rng.sample(sessions, len(sessions))]
            # A round lasts about 0.1 s and is read before and after.
            clock.start()
            for traced in ((False, True) if args.trace else (False,)):
                if traced:
                    tracer.reset()
                    install_spans(tracer, args.workload)
                latencies, replies = [], []
                wall = 0.0
                try:
                    for _name, kept in figures:
                        # `python -m repro experiment` renders each figure
                        # in a process of its own, whose result memo starts
                        # empty: every point it requests is read from the
                        # shared disk cache.  Dropping the service's memo
                        # between figures stands in for that.
                        runner.clear_caches()
                        start = time.perf_counter()
                        with tracer.span("bench.pass") if traced \
                                else nullcontext():
                            for point_id, point in kept:
                                t0 = time.perf_counter()
                                with tracer.span("service.submit") \
                                        if traced else nullcontext():
                                    try:
                                        entries = client.result(
                                            client.submit_nowait([point]),
                                            raw=True)
                                    except (ServiceOverloaded,
                                            ServiceError) as exc:
                                        print(f"perfbench: {point_id}: "
                                              f"{exc!r}", file=sys.stderr)
                                        entries = None
                                latencies.append(time.perf_counter() - t0)
                                replies.append((point_id, point, entries))
                        wall += time.perf_counter() - start
                finally:
                    tracer.restore()
                inst = 0
                for point_id, point, entries in replies:
                    payload = None
                    if entries and entries[0].get("status") == "ok":
                        payload = entries[0]["payload"]
                    if rec.check(point_id, payload):
                        inst += result_instructions(point.kind, payload)
                if traced:
                    layers = layer_values(tracer)
                    round_trips = sum((end - t0_ns) / 1e9 for name, t0_ns,
                                      end, _p, _t in tracer.spans
                                      if name == "service.submit")
                    in_thread = sum((end - t0_ns) / 1e9 for _n, t0_ns,
                                    end, _p, ident in tracer.spans
                                    if ident != main_thread)
                    layers["service.self_ms"] = (
                        1000.0 * (round_trips - in_thread) / submits)
                    rec.add_traced_pass(layers, tracer.spans)
                    rec.traced_walls.append(wall)
                else:
                    round_wall, round_inst = wall, inst
                    round_p50 = statistics.median(latencies)
                    round_tail, rec.tail_pct, rec.tail_n = harness.tail(
                        latencies)
            clock.lap()
            factor = clock.factor()
            rec.walls.append(round_wall * factor)
            rec.raw_walls.append(round_wall)
            rec.kips.append(round_inst / (round_wall * factor) / 1000.0)
            rec.round_p50.append(round_p50 * factor)
            rec.round_tail.append(round_tail * factor)
        counters1 = client.status()["counters"]
        rounds_run = passes * (2 if args.trace else 1)
        for name in ("coalesced", "cache_hits", "rejected"):
            per_round = (counters1[name] - counters0[name]) / rounds_run
            for layers in rec.layers:
                layers[f"service.{name}"] = per_round
    finally:
        if service is not None:
            _stop(service, client)
        dirs.drop()


WORKLOADS = {
    "frontend_grid": run_cold_grid,
    "machine_grid": run_cold_grid,
    "warm_service": run_warm_service,
}


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    # One CPU for the whole run, the calibration loop included, so the
    # loop reads the speed of the CPU the work runs on.  On the warm
    # service, the client, the service loop and its executor hand the
    # interpreter lock over on every request, and a hand-over to another
    # CPU first wakes that CPU, which on a virtual machine takes a time
    # that varies from run to run.  Threads and the set-up's interpreter
    # inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    book = harness.DigestBook(REFERENCE)
    threads_before = harness.thread_snapshot()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    rec = Recorder(book)
    try:
        pin_environment(run_dir)
        WORKLOADS[args.workload](args, rec, CacheDirs(run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    if rec.walls:
        print("perfbench: pass walls, host s (scaled s): " + " ".join(
            f"{raw:.4f} ({wall:.4f})"
            for raw, wall in zip(rec.raw_walls, rec.walls)), file=sys.stderr)
    left = harness.leftovers(threads_before)
    if left:
        print("perfbench: still running after the workload stopped: "
              + ", ".join(left), file=sys.stderr)
        return 3
    if args.trace:
        metrics = rec.per_layer()
        print_layer_table(metrics)
        SPANS.mkdir(exist_ok=True)
        out = SPANS / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "fields": ["pass", "name", "start_ns", "end_ns", "parent",
                       "thread"],
            "spans": rec.spans}))
        print(f"spans of every traced pass: {out.relative_to(ROOT)}")
    else:
        metrics = rec.end_to_end()
        for name, entry in metrics.items():
            print(f"{name:14s} {entry['value']:.6g} {entry['unit']}")
        print(f"timings are reference-host seconds (host seconds x "
              f"{harness.REFERENCE_LOOP_S} s / calibration loop); wall_s "
              f"and sim_kips are medians over all {len(rec.walls)} passes, "
              f"whose median host time was "
              f"{statistics.median(rec.raw_walls):.4g} s")
        kind = ("per-round p%.1f of %d submits, median over all rounds"
                % (rec.tail_pct, rec.tail_n) if rec.round_tail
                else "p%.1f of all %d points" % (rec.tail_pct, rec.tail_n))
        print(f"point_tail_s is the {kind}")
    print(json.dumps({"correct": rec.failed == 0,
                      "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": metrics}))
    return 4 if rec.failed else 0


if __name__ == "__main__":
    sys.exit(main())
