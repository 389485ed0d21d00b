"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show the benchmark suite and the named configurations;
* ``run`` — simulate one benchmark under one configuration (front end by
  default, ``--machine`` for the full cycle-level core);
* ``experiment`` — regenerate one of the paper's tables or figures, or
  ``all`` of them in paper order, and check the paper's claims on each
  (:data:`repro.experiments.paper.CLAIMS`; exits nonzero on a failed one);
* ``validate-replay`` — re-run the lockstep comparison a divergence
  report describes; exits nonzero iff it still reproduces;
* ``serve`` — run the shared experiment service (async grid front door
  with admission control and request coalescing; see
  :mod:`repro.service`); drains gracefully on SIGTERM;
  ``serve --status`` instead queries a running service and prints its
  health, fleet membership and live leases;
* ``worker`` — join a running service's worker fleet: pull grid points
  under heartbeat-renewed leases, compute them locally, ship results
  back; reconnects with backoff and drains on SIGTERM;
* ``submit`` — submit one simulation to a running service and print the
  headline numbers (retries with backoff when the service sheds load);
  ``--stream`` additionally subscribes to the service's event feed and
  prints each per-point lifecycle transition as it happens.

``run --validate [MODE]`` and ``experiment --validate [MODE]`` arm the
online divergence guard (:mod:`repro.validate`): every simulation also
runs on the frozen reference stack and the two are cross-checked.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace

from repro import config as cfg
from repro.config import CoreConfig, MachineConfig
from repro.experiments import paper
from repro.frontend.stats import CycleCategory, FetchReason
from repro.report import format_bar_chart, format_histogram, format_table
from repro.trace.fill_unit import PackingPolicy
from repro.workloads.profiles import BENCHMARK_NAMES, get_profile

CONFIGS = {
    "icache": cfg.ICACHE,
    "baseline": cfg.BASELINE,
    "packing": cfg.PACKING,
    "promotion": cfg.PROMOTION,
    "promotion_packing": cfg.PROMOTION_PACKING,
    "promotion_costreg": cfg.PROMOTION_COST_REG,
}

EXPERIMENTS = tuple(paper.ARTIFACTS)


def _cmd_list(_args) -> int:
    rows = [[name, get_profile(name).paper_inst_count_m,
             get_profile(name).default_dynamic, get_profile(name).description]
            for name in BENCHMARK_NAMES]
    print(format_table(["Benchmark", "Paper (M)", "Scaled run", "Description"],
                       rows, title="Benchmarks"))
    print("\nConfigurations: " + ", ".join(sorted(CONFIGS)))
    print("Experiments:    " + ", ".join(EXPERIMENTS))
    return 0


def _build_config(args):
    config = CONFIGS[args.config]
    if args.threshold is not None:
        config = replace(config, promote=True, promote_threshold=args.threshold)
    if args.packing_policy is not None:
        config = replace(config, packing=PackingPolicy(args.packing_policy))
    if args.static_promotion:
        config = replace(config, promote=False, promote_static=True)
    if args.path_assoc:
        config = replace(config, path_associativity=True)
    if args.no_inactive_issue:
        config = replace(config, inactive_issue=False)
    return config


def _print_divergence(exc) -> int:
    """Render a caught DivergenceError; the exit status for the caller."""
    print("DIVERGENCE: the fast engine disagrees with the reference engine.")
    print(f"  {exc.message}")
    if exc.fetch_index >= 0:
        print(f"  first mismatching fetch: #{exc.fetch_index}")
    if exc.report_path:
        print(f"  report: {exc.report_path}")
        print("  replay: python -m repro validate-replay "
              f"{exc.report_path}")
    return 1


def _cmd_run(args) -> int:
    from repro.experiments import runner
    from repro.frontend.build import fast_stack_enabled

    if args.validate:
        os.environ["REPRO_VALIDATE"] = args.validate
    config = _build_config(args)
    n = args.instructions or get_profile(args.benchmark).default_dynamic
    if args.machine:
        run_config = MachineConfig(
            frontend=config,
            core=CoreConfig(perfect_disambiguation=args.perfect_memory),
        )
    else:
        run_config = config
    if args.validate:
        from repro.validate.errors import DivergenceError
        from repro.validate.lockstep import lockstep
        try:
            result = lockstep("machine" if args.machine else "frontend",
                              args.benchmark, run_config, n, warmup=False)
        except DivergenceError as exc:
            return _print_divergence(exc)
    else:
        run = runner.run_machine if args.machine else runner.run_frontend
        result = run(runner.get_program(args.benchmark), run_config, n, None,
                     fast=fast_stack_enabled())
    if args.machine:
        print(format_table(
            ["Metric", "Value"],
            [["benchmark", args.benchmark],
             ["configuration", run_config.describe()],
             ["retired instructions", result.retired],
             ["cycles", result.cycles],
             ["IPC", result.ipc],
             ["conditional branches", result.cond_branches],
             ["promoted executions", result.promoted_branches],
             ["mispredicted branches", result.total_mispredicted_branches],
             ["avg resolution time", result.avg_resolution_time],
             ["trace cache hits/misses", f"{result.tc_hits}/{result.tc_misses}"]],
            title="Machine simulation",
        ))
        print()
        # In category order: the two cores count into their Counters in
        # different orders.
        print(format_bar_chart(
            {k.value: result.cycle_accounting[k] for k in CycleCategory
             if k in result.cycle_accounting},
            title="Cycle accounting", fmt="{:8d}",
        ))
    else:
        stats = result.stats
        print(format_table(
            ["Metric", "Value"],
            [["benchmark", args.benchmark],
             ["configuration", config.describe()],
             ["retired instructions", result.instructions_retired],
             ["fetches", stats.fetches],
             ["effective fetch rate", result.effective_fetch_rate],
             ["cond mispredict rate", f"{100 * stats.cond_mispredict_rate:.2f}%"],
             ["promoted executions", stats.promoted_branches],
             ["promotions/demotions", f"{result.promotions}/{result.demotions}"],
             ["promoted faults", stats.promoted_faults],
             ["trace cache hits/misses", f"{result.tc_hits}/{result.tc_misses}"]],
            title="Front-end simulation",
        ))
    return 0


def _print_failure_report(failed) -> None:
    """Render a GridFailures exception as the end-of-run failure table."""
    from repro.experiments import faults

    print(format_table(list(faults.FAILURE_HEADERS),
                       faults.failure_rows(failed.failures),
                       title="Failed grid points"))
    print(f"\n{len(failed.failures)} point(s) failed, "
          f"{len(failed.results)} completed; completed points are "
          "checkpointed and a re-run resumes from the journal.")


def _print_divergence_report() -> None:
    """Render grid points that diverged and completed on the reference."""
    from repro.experiments import faults, scheduler

    divergences = scheduler.take_divergences()
    if not divergences:
        return
    print()
    print(format_table(list(faults.FAILURE_HEADERS),
                       faults.failure_rows(divergences),
                       title="Divergences (recomputed on reference engine)"))
    print(f"\n{len(divergences)} point(s) diverged from the reference "
          "engine; their numbers above come from the frozen reference "
          "stack.  Replay a report with: "
          "python -m repro validate-replay <report.json>")


def _print_claims(name: str, rendered: dict) -> int:
    """Print the verdict of each claim on ``name``; 1 if any FAILs."""
    scale = paper.run_scale()
    verdicts = paper.check_claims(name, rendered, scale)
    if verdicts:
        print(f"\nclaims ({scale or 'unnamed'} scale):")
    for verdict, claim, measured in verdicts:
        print(f"  {verdict:<26} {claim.id}: {measured or '-'}"
              f"  [paper: {claim.paper}]")
    return int(any(verdict == "FAIL" for verdict, _c, _m in verdicts))


def _render_reported(name: str, rendered: dict) -> int:
    """Render one artifact and check its claims, then report failed and
    diverged grid points.  ``rendered`` collects each artifact's data
    for the claims that read more than one artifact."""
    from repro.experiments.faults import GridFailures

    try:
        rendered[name] = _render_experiment(name)
        status = _print_claims(name, rendered)
    except GridFailures as failed:
        _print_failure_report(failed)
        status = 1
    _print_divergence_report()
    return status


def _cmd_experiment(args) -> int:
    # The builders resolve every supervision knob from the environment,
    # so one flag covers every grid the experiment touches.
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.max_retries is not None:
        os.environ["REPRO_RETRIES"] = str(args.max_retries)
    if args.keep_going:
        os.environ["REPRO_KEEP_GOING"] = "1"
    elif args.fail_fast:
        os.environ["REPRO_KEEP_GOING"] = "0"
    if args.resume:
        os.environ["REPRO_RESUME"] = "1"
    elif args.no_resume:
        os.environ["REPRO_RESUME"] = "0"
    if args.validate:
        os.environ["REPRO_VALIDATE"] = args.validate
    rendered: dict = {}
    if args.name != "all":
        return _render_reported(args.name, rendered)
    # The whole paper in one process, in paper order: the in-process
    # memo serves the points several artifacts share.  One failing
    # artifact does not stop the rest; the exit status reports it.
    failed_names = []
    for index, name in enumerate(EXPERIMENTS):
        if index:
            print()
        try:
            status = _render_reported(name, rendered)
        except Exception:
            traceback.print_exc()
            status = 1
        if status:
            failed_names.append(name)
    if failed_names:
        print(f"\n{len(failed_names)} of {len(EXPERIMENTS)} artifacts "
              f"failed: {', '.join(failed_names)}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate_replay(args) -> int:
    from repro.validate import report as report_module

    try:
        exc = report_module.replay_report(args.report)
    except (OSError, ValueError) as err:
        print(f"cannot replay {args.report}: {err}", file=sys.stderr)
        return 2
    if exc is None:
        print(f"no divergence: {args.report} does not reproduce "
              "on this source tree")
        return 0
    return _print_divergence(exc)


def _render_experiment(name: str):
    """Build and print one paper table/figure; returns its data (grids
    may raise)."""
    data = paper.ARTIFACTS[name]()
    if name in ("fig4", "fig6"):
        sizes: dict = {}
        for (size, _reason), fraction in data["histogram"].items():
            sizes[size] = sizes.get(size, 0.0) + fraction
        print(format_histogram(sizes, title=f"{name}: gcc fetch sizes "
                                            f"(avg {data['avg']:.2f})"))
        print()
        reasons = data["reasons"]
        print(format_bar_chart({r.value: reasons.get(r, 0.0) for r in FetchReason},
                               title="termination reasons (fraction of fetches)",
                               fmt="{:6.3f}"))
        return data
    rows = data["rows"] if name == "table4" else data
    headers = list(rows[0].keys())
    print(format_table(headers, [[row[h] for h in headers] for row in rows],
                       title=name))
    return data


def _cmd_serve(args) -> int:
    from repro.service import serve

    if args.status:
        return _print_service_status(args.host, args.port)
    try:
        serve(args.host, args.port, jobs=args.jobs,
              admit_max=args.admit_max)
    except KeyboardInterrupt:
        # Abrupt but safe: completed points are journaled and cached.
        return 130
    return 0


def _print_service_status(host, port) -> int:
    """``repro serve --status``: one query, human-readable tables."""
    from repro.service import ServiceClient, ServiceError

    try:
        with ServiceClient(host, port, timeout=30.0) as client:
            status = client.status()
    except (ServiceError, OSError) as exc:
        print(f"cannot reach the experiment service: {exc}", file=sys.stderr)
        return 2
    counters = status.get("counters", {})
    fleet = status.get("fleet", {})
    breaker = status.get("breaker", {})
    fleet_breaker = status.get("fleet_breaker", {})
    print(format_table(
        ["Field", "Value"],
        [["draining", status.get("draining")],
         ["jobs", status.get("jobs")],
         ["in flight", status.get("in_flight")],
         ["computed ok / failed",
          f"{counters.get('computed_ok')}/{counters.get('computed_failed')}"],
         ["cache / journal hits",
          f"{counters.get('cache_hits')}/{counters.get('journal_hits')}"],
         ["coalesced", counters.get("coalesced")],
         ["rejected", counters.get("rejected")],
         ["pool breaker", breaker.get("state")],
         ["fleet breaker", fleet_breaker.get("state")],
         ["fleet workers", len(fleet.get("workers", []))],
         ["live leases", len(fleet.get("leases", []))],
         ["leases granted / requeued / stale",
          f"{fleet.get('granted_total')}/{fleet.get('requeued_total')}"
          f"/{fleet.get('stale_completions')}"]],
        title="Experiment service"))
    workers = fleet.get("workers", [])
    if workers:
        print()
        print(format_table(
            ["Worker", "Host", "PID", "Heartbeat age", "Leases",
             "Completed", "Requeued", "Failed"],
            [[w.get("worker"), w.get("host"), w.get("pid"),
              f"{w.get('heartbeat_age', 0.0):.1f}s", w.get("leases"),
              w.get("completed"), w.get("requeued"), w.get("failed")]
             for w in workers],
            title="Fleet membership"))
    leases = fleet.get("leases", [])
    if leases:
        print()
        print(format_table(
            ["Lease", "Point", "Worker", "Age", "TTL left", "Attempt"],
            [[l.get("lease"), str(l.get("key", ""))[:12] + "…",
              l.get("worker"), f"{l.get('age', 0.0):.1f}s",
              f"{l.get('ttl_remaining', 0.0):.1f}s", l.get("attempt")]
             for l in leases],
            title="Live leases"))
    return 0


def _cmd_worker(args) -> int:
    import signal

    from repro.experiments import env
    from repro.service.server import DEFAULT_ADDR
    from repro.service.worker import FleetWorker

    host = port = None
    if args.addr:
        default = env.get_hostport("REPRO_SERVICE_ADDR", DEFAULT_ADDR)
        try:
            host, port = env.parse_hostport(args.addr, default)
        except ValueError as exc:
            print(f"bad service address {args.addr!r}: {exc}",
                  file=sys.stderr)
            return 2
    worker = FleetWorker(host, port, name=args.name,
                         heartbeat=args.heartbeat,
                         max_points=args.max_points,
                         verbose=not args.quiet)
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: worker.stop())
        except (ValueError, OSError):
            pass
    worker.run()
    print(f"worker {worker.name}: {worker.completed} completed, "
          f"{worker.failed} failed, {worker.stale} stale, "
          f"{worker.reconnects} reconnects", flush=True)
    return 0


def _cmd_submit(args) -> int:
    from repro.experiments.scheduler import FRONTEND, MACHINE, GridPoint
    from repro.service import (ServiceClient, ServiceError, ServiceOverloaded,
                               submit_with_retry)

    config = _build_config(args)
    if args.machine:
        config = MachineConfig(frontend=config, core=CoreConfig())
    point = GridPoint(MACHINE if args.machine else FRONTEND,
                      args.benchmark, config, n=args.instructions)
    try:
        with ServiceClient(args.host, args.port) as client:
            if args.stream:
                # Subscribe first so even the queued event is captured,
                # then pipeline the submission and narrate its lifecycle
                # until the answer lands.
                sub = client.subscribe()
                request = client.submit_nowait([point],
                                               deadline=args.deadline)
                for event in client.events(sub, until=request):
                    worker = event.get("worker")
                    line = f"[{event.get('seq')}] {event.get('event')}"
                    if worker:
                        line += f" on {worker}"
                    if event.get("reason"):
                        line += f" ({event['reason']})"
                    if event.get("elapsed") is not None:
                        line += f" in {event['elapsed']}s"
                    print(line, flush=True)
                results = client.result(request)
            else:
                results = submit_with_retry(client, [point],
                                            deadline=args.deadline)
    except ServiceOverloaded as exc:
        print(f"service overloaded, gave up: {exc}", file=sys.stderr)
        return 3
    except (ServiceError, OSError) as exc:
        print(f"cannot reach the experiment service: {exc}", file=sys.stderr)
        return 2
    result = results[0]
    if args.machine:
        rows = [["IPC", result.ipc], ["cycles", result.cycles],
                ["retired instructions", result.retired]]
    else:
        rows = [["effective fetch rate", result.effective_fetch_rate],
                ["retired instructions", result.instructions_retired],
                ["trace cache hits/misses",
                 f"{result.tc_hits}/{result.tc_misses}"]]
    print(format_table(["Metric", "Value"],
                       [["benchmark", args.benchmark],
                        ["configuration", config.describe()]] + rows,
                       title="Service result"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Trace cache + branch promotion + trace packing "
                    "(Patel, Evers & Patt, ISCA 1998) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show benchmarks, configurations, experiments")

    run = sub.add_parser("run", help="simulate one benchmark")
    run.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run.add_argument("--config", choices=sorted(CONFIGS), default="baseline")
    run.add_argument("--instructions", type=int, default=None)
    run.add_argument("--machine", action="store_true",
                     help="run the full cycle-level machine")
    run.add_argument("--perfect-memory", action="store_true",
                     help="perfect memory disambiguation (with --machine)")
    run.add_argument("--threshold", type=int, default=None,
                     help="enable promotion at this bias threshold")
    run.add_argument("--packing-policy",
                     choices=[p.value for p in PackingPolicy], default=None)
    run.add_argument("--static-promotion", action="store_true")
    run.add_argument("--path-assoc", action="store_true")
    run.add_argument("--no-inactive-issue", action="store_true")
    run.add_argument("--validate", nargs="?", const="lockstep", default=None,
                     metavar="MODE",
                     help="cross-check against the frozen reference stack "
                          "(MODE: lockstep, sample, or sample:N; "
                          "default lockstep)")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=EXPERIMENTS + ("all",),
                     help="one artifact, or all: every artifact in paper "
                          "order in one process")
    exp.add_argument("--jobs", "-j", type=int, default=None,
                     help="worker processes for the simulation grid "
                          "(default: REPRO_JOBS or the CPU count)")
    exp.add_argument("--max-retries", type=int, default=None,
                     help="transient-failure retry budget per grid point "
                          "(default: REPRO_RETRIES or 2)")
    stop = exp.add_mutually_exclusive_group()
    stop.add_argument("--fail-fast", action="store_true",
                      help="stop at the first failed grid point (default)")
    stop.add_argument("--keep-going", action="store_true",
                      help="finish the grid, then exit nonzero with a "
                           "per-point failure table")
    res = exp.add_mutually_exclusive_group()
    res.add_argument("--resume", action="store_true",
                     help="replay this grid's checkpoint journal before "
                          "scheduling (default)")
    res.add_argument("--no-resume", action="store_true",
                     help="ignore any existing checkpoint journal")
    exp.add_argument("--validate", nargs="?", const="lockstep", default=None,
                     metavar="MODE",
                     help="arm the divergence guard for every grid point "
                          "(MODE: lockstep, sample, or sample:N; a "
                          "diverging point is recomputed on the frozen "
                          "reference stack and reported)")

    serve = sub.add_parser(
        "serve",
        help="run the shared experiment service (SIGTERM drains gracefully)")
    serve.add_argument("--host", default=None,
                       help="bind address (default: REPRO_SERVICE_ADDR "
                            "or 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port; 0 asks the OS for an ephemeral port")
    serve.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or the "
                            "CPU count)")
    serve.add_argument("--admit-max", type=int, default=None,
                       help="max in-flight computations before submissions "
                            "are rejected (default: REPRO_ADMIT_MAX or "
                            "4x jobs)")
    serve.add_argument("--status", action="store_true",
                       help="query a running service instead of starting "
                            "one: print health, fleet membership, live "
                            "leases and per-worker counters")

    worker = sub.add_parser(
        "worker",
        help="join a running service's worker fleet (drains on SIGTERM)")
    worker.add_argument("addr", nargs="?", default=None,
                        help="service address as HOST:PORT, :PORT or PORT "
                             "(default: REPRO_SERVICE_ADDR)")
    worker.add_argument("--name", default=None,
                        help="worker identity shown in status and events "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--heartbeat", type=float, default=None,
                        help="lease renewal interval in seconds (default: "
                             "the server's REPRO_HEARTBEAT)")
    worker.add_argument("--max-points", type=int, default=None,
                        help="exit after completing this many points "
                             "(default: run until stopped)")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-lease progress lines")

    submit = sub.add_parser(
        "submit", help="run one simulation through a running service")
    submit.add_argument("benchmark", choices=BENCHMARK_NAMES)
    submit.add_argument("--config", choices=sorted(CONFIGS),
                        default="baseline")
    submit.add_argument("--instructions", type=int, default=None)
    submit.add_argument("--machine", action="store_true",
                        help="run the full cycle-level machine")
    submit.add_argument("--threshold", type=int, default=None,
                        help="enable promotion at this bias threshold")
    submit.add_argument("--packing-policy",
                        choices=[p.value for p in PackingPolicy],
                        default=None)
    submit.add_argument("--static-promotion", action="store_true")
    submit.add_argument("--path-assoc", action="store_true")
    submit.add_argument("--no-inactive-issue", action="store_true")
    submit.add_argument("--host", default=None,
                        help="service address (default: REPRO_SERVICE_ADDR)")
    submit.add_argument("--port", type=int, default=None)
    submit.add_argument("--deadline", type=float, default=None,
                        help="wall-clock budget in seconds for the request")
    submit.add_argument("--stream", action="store_true",
                        help="subscribe to the service's event feed and "
                             "print each lifecycle transition (queued/"
                             "leased/started/retried/diverged/completed) "
                             "while waiting for the result")

    replay = sub.add_parser(
        "validate-replay",
        help="re-run the lockstep comparison a divergence report "
             "describes; exits nonzero iff it still reproduces")
    replay.add_argument("report", help="path to a divergence report JSON "
                                       "(written under the cache's "
                                       "divergences/ directory)")

    return parser


#: Knobs the ``run`` and ``experiment`` flags set for the code they
#: call; :func:`main` puts each back as it found it when it returns.
_FLAG_KNOBS = ("REPRO_JOBS", "REPRO_RETRIES", "REPRO_KEEP_GOING",
               "REPRO_RESUME", "REPRO_VALIDATE")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved = {name: os.environ.get(name) for name in _FLAG_KNOBS}
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate-replay":
            return _cmd_validate_replay(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "submit":
            return _cmd_submit(args)
        return _cmd_experiment(args)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


if __name__ == "__main__":
    sys.exit(main())
