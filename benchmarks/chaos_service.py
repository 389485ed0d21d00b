"""Chaos driver for the experiment service: kill it and trust the cache.

The scenario the CI ``service-chaos`` job runs end to end:

1. Start a real ``repro serve`` process with fault injection armed
   (worker crashes + cache corruption) and pipeline a storm at it —
   ``--distinct`` unique points plus ``--duplicates`` duplicate
   submissions spread across them, all on one connection.
2. SIGTERM the server mid-run.  The drain must answer *every* pipelined
   submission — completed points ok, stragglers with an explicit
   retryable error — and the process must exit; nothing may hang, and
   its stderr (echoed here) may show no "Exception ignored" traceback.
3. Restart the service with faults off and resubmit every distinct
   point with backoff.  The journals and the shared disk cache must
   cover everything that finished before the kill, so the restarted
   server recomputes only the remainder.
4. Recompute the whole grid serially in this process (disk cache off)
   and require the service's answers to be byte-identical.

With ``--workers N`` the same scenario runs against a worker fleet
(the CI ``fleet-chaos`` job): N ``repro worker`` processes attach to
the server, the first of them is armed to hang mid-point and is
SIGKILLed once it holds a lease — the dropped connection must revoke
the lease and requeue the point on a surviving worker — and the
SIGTERM + restart of phase 2 must find the surviving workers
re-registered via their reconnect backoff loop.  Lease grant/requeue/
stale counts are printed for the CI job summary.

Exit status is nonzero on the first violated invariant:

    PYTHONPATH=src python benchmarks/chaos_service.py --duplicates 50
    PYTHONPATH=src python benchmarks/chaos_service.py --workers 2
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import BASELINE
from repro.experiments import runner
from repro.experiments.scheduler import GridPoint
from repro.experiments.serialize import frontend_result_to_dict
from repro.service import (ServiceClient, ServiceError, ServiceOverloaded,
                           submit_with_retry)

REPO = pathlib.Path(__file__).resolve().parents[1]


def log(message: str) -> None:
    print(f"[chaos-service] {message}", flush=True)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_server(port: int, env: dict, stderr=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--jobs", "2"],
        env=env, cwd=REPO, start_new_session=True, stderr=stderr)


def spawn_worker(port: int, env: dict, name: str) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", f"127.0.0.1:{port}",
         "--name", name, "--quiet"],
        env=env, cwd=REPO, start_new_session=True)
    atexit.register(kill_hard, child)  # no leaked workers on any exit
    return child


def kill_hard(child: subprocess.Popen) -> None:
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait(timeout=30)


def wait_ready(port: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with ServiceClient("127.0.0.1", port, timeout=5) as probe:
                probe.ping()
            return
        except (OSError, ServiceError):
            if time.monotonic() >= deadline:
                raise SystemExit("service never became ready")
            time.sleep(0.1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distinct", type=int, default=10)
    parser.add_argument("--duplicates", type=int, default=50)
    # Corrupt cache entries probabilistically and hang the 8th
    # computation so the SIGTERM drain always interrupts real work.
    # (No crash fault here: a worker crash breaks the whole pool, which
    # aborts the pending ordinals before their first attempt and would
    # skip the hang; crash recovery is covered by tests/test_faults.py.)
    parser.add_argument(
        "--faults", default="corrupt-cache:0.2,hang:p7:600")
    # Fleet mode: N worker processes pull the points under leases; the
    # first worker is armed to hang and gets SIGKILLed mid-lease.
    parser.add_argument("--workers", type=int, default=0)
    args = parser.parse_args()

    points = [GridPoint("frontend", "compress", BASELINE, 4_000 + 500 * i)
              for i in range(args.distinct)]
    port = free_port()

    with tempfile.TemporaryDirectory(prefix="repro-chaos-service-") as tmp:
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(REPO / "src"),
            "REPRO_CACHE_DIR": tmp,
            "REPRO_CLIENT_BACKLOG": "500",  # the storm rides one socket
            "REPRO_DRAIN_GRACE": "2.0",
            "REPRO_BACKOFF": "0.05",
            "REPRO_FAULTS": args.faults,
        })
        if args.workers:
            env["REPRO_LEASE_TTL"] = "10"
            env["REPRO_HEARTBEAT"] = "0.5"
        # Fleet workers never inherit the server's faults; the designated
        # victim hangs on most of its leased points (hash-probability,
        # so it wedges and holds a lease until the SIGKILL).
        worker_env = {k: v for k, v in env.items() if k != "REPRO_FAULTS"}
        victim_env = dict(worker_env, REPRO_FAULTS="hang:0.9:600")
        workers = []

        def fleet_status(client):
            return client.status().get("fleet") or {}

        def wait_status(client, predicate, what, timeout=60.0):
            deadline = time.monotonic() + timeout
            while not predicate():
                if time.monotonic() >= deadline:
                    raise SystemExit(f"timed out waiting for {what}")
                time.sleep(0.05)

        # Phase 1: storm a faulty server, SIGTERM it mid-run.
        log(f"phase 1: {args.distinct} distinct + {args.duplicates} "
            f"duplicate submissions under REPRO_FAULTS={args.faults}"
            + (f" with {args.workers} fleet workers" if args.workers
               else ""))
        server_stderr = tempfile.TemporaryFile()
        server = spawn_server(port, env, stderr=server_stderr)
        try:
            wait_ready(port)
            if args.workers:
                workers.append(spawn_worker(port, victim_env, "chaos-w1"))
                workers.extend(
                    spawn_worker(port, worker_env, f"chaos-w{i}")
                    for i in range(2, args.workers + 1))
            with ServiceClient("127.0.0.1", port, timeout=300) as client:
                if args.workers:
                    wait_status(
                        client,
                        lambda: len(fleet_status(client)["workers"])
                        == args.workers,
                        "fleet registration")
                    log(f"{args.workers} workers registered")
                ids = [client.submit_nowait([point]) for point in points]
                ids += [client.submit_nowait([points[i % args.distinct]])
                        for i in range(args.duplicates)]
                deadline = time.monotonic() + 120
                while client.status()["counters"]["computed_ok"] < 2:
                    if time.monotonic() >= deadline:
                        raise SystemExit("no progress before SIGTERM")
                    time.sleep(0.05)
                if args.workers:
                    # The victim is wedged mid-hang on a lease it keeps
                    # heartbeating; SIGKILL it and require the revoked
                    # lease to requeue onto a survivor.
                    wait_status(
                        client,
                        lambda: any(lease["worker"] == "chaos-w1"
                                    for lease in
                                    fleet_status(client)["leases"]),
                        "the victim to hold a lease")
                    log("SIGKILL chaos-w1 mid-lease")
                    kill_hard(workers[0])
                    wait_status(
                        client,
                        lambda: fleet_status(client)["requeued_total"] >= 1,
                        "lease revocation + requeue")
                    fleet = fleet_status(client)
                    log(f"lease requeued after worker loss "
                        f"(granted {fleet['granted_total']}, requeued "
                        f"{fleet['requeued_total']})")
                log("SIGTERM mid-run")
                os.kill(server.pid, signal.SIGTERM)
                answered = ok = retryable = rejected = 0
                for request_id in ids:
                    try:
                        rows = client.result(request_id, raw=True)
                    except ServiceOverloaded:
                        answered += 1  # explicit rejection, not a drop
                        rejected += 1
                        continue
                    answered += 1
                    for row in rows:
                        if row["status"] == "ok":
                            ok += 1
                        elif row.get("retryable"):
                            retryable += 1
                        else:
                            raise SystemExit(
                                f"non-retryable drain answer: {row}")
            server.wait(timeout=120)
        finally:
            if server.poll() is None:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait(timeout=30)
        total = args.distinct + args.duplicates
        if answered != total:
            raise SystemExit(f"{total - answered} submissions never "
                             f"answered — the drain dropped clients")
        log(f"drain answered all {answered} submissions "
            f"({ok} ok, {retryable} retryable, {rejected} rejected); "
            f"server exited {server.returncode}")
        if ok == 0:
            raise SystemExit("nothing completed before the kill")
        server_stderr.seek(0)
        drained_stderr = server_stderr.read().decode(errors="replace")
        server_stderr.close()
        sys.stderr.write(drained_stderr)
        if "Exception ignored" in drained_stderr:
            raise SystemExit("the drained server printed an ignored "
                             "exception as it exited (its stderr is above)")

        # Phase 2: restart clean; journals + cache cover finished work,
        # and surviving workers find the new server by themselves.
        env.pop("REPRO_FAULTS")
        survivors = max(0, args.workers - 1)
        log("phase 2: restart without faults, resubmit the grid")
        server = spawn_server(port, env)
        try:
            wait_ready(port)
            with ServiceClient("127.0.0.1", port, timeout=300) as client:
                if survivors:
                    wait_status(
                        client,
                        lambda: len(fleet_status(client)["workers"])
                        >= survivors,
                        "surviving workers to reconnect")
                    log(f"{survivors} surviving worker(s) re-registered "
                        f"with the restarted server")
                results = submit_with_retry(client, points, base=0.1)
                counters = client.status()["counters"]
                fleet = fleet_status(client)
        finally:
            try:
                os.killpg(server.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            server.wait(timeout=120)
        recomputed = counters["computed_ok"]
        served = counters["cache_hits"] + counters["journal_hits"]
        log(f"restart: {recomputed} recomputed, {served} from "
            f"journal/cache of {args.distinct} distinct points")
        if recomputed >= args.distinct:
            raise SystemExit("restart recomputed everything — the "
                             "journals/cache preserved nothing")
        if args.workers:
            members = ", ".join(
                f"{w['worker']} completed={w['completed']}"
                for w in fleet["workers"]) or "none"
            log(f"fleet after restart: granted {fleet['granted_total']}, "
                f"requeued {fleet['requeued_total']}, stale "
                f"{fleet['stale_completions']}; members: {members}")
            for child in workers:
                kill_hard(child)

    # Phase 3: byte-identical to a clean serial computation.
    log("phase 3: clean serial recomputation (disk cache off)")
    os.environ["REPRO_DISK_CACHE"] = "0"
    runner.clear_caches()
    for point, got in zip(points, results):
        clean = runner.frontend_result(point.benchmark, point.config,
                                       point.n)
        clean_js = json.dumps(frontend_result_to_dict(clean),
                              sort_keys=True)
        got_js = json.dumps(frontend_result_to_dict(got), sort_keys=True)
        if clean_js != got_js:
            raise SystemExit(f"divergence at n={point.n}: service answer "
                             f"differs from the clean serial run")
    log(f"all {args.distinct} service answers byte-identical to the "
        f"clean serial run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
