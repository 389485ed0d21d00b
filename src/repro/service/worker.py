"""Fleet worker: pull leased points from the service and compute them.

``repro worker HOST:PORT`` runs one of these.  The loop is a plain
blocking state machine on one socket — connect, ``worker-register``
(announcing host, pid, supported point kinds and a relative
``cost_rate``), then long-poll with ``worker-poll`` until the server
grants a lease.  Each lease is computed through
:func:`repro.experiments.scheduler.run_point_task`, i.e. with exactly
the fault-injection hooks the local pool gets (``REPRO_FAULTS`` works
on remote workers — the chaos driver relies on it), while a daemon
heartbeat thread renews the lease every ``heartbeat`` seconds through
the shared write lock.  The result ships back as a serialized payload
in ``worker-complete``; the ack's ``accepted`` flag tells the worker
whether it arrived in time or the lease had already been revoked and
requeued elsewhere (a stale completion is not an error — the worker
just polls again).

A failed point is not retried here: the worker ships the kind
:func:`repro.experiments.faults.classify` gives its exception in
``worker-fail``, and the server's supervision policy treats it exactly
like a local failure.

Workers outlive servers: any connection error tears the socket down
and reconnects with capped full-jitter exponential backoff, so a
SIGTERM-drained and restarted server finds its fleet re-registered
within seconds (in-flight submissions themselves survive the restart
via the server's checkpoint journal).  SIGTERM to the *worker* is a
graceful stop: the current lease is finished and shipped, then the
loop exits without taking new work.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.experiments import env, faults, scheduler
from repro.service import protocol

#: Default long-poll hold requested from the server, seconds.
DEFAULT_POLL_WINDOW = 10.0

#: Reconnect backoff bounds, seconds.
RECONNECT_BASE = 0.5
RECONNECT_CAP = 15.0


class WorkerStopped(Exception):
    """Internal control flow: the stop flag was raised mid-loop."""


class FleetWorker:
    """One worker process's connection loop.  See the module docstring.

    ``max_points`` bounds how many leases the worker completes before
    returning (tests use 1); ``reconnect=False`` turns a lost or
    draining server into a return instead of a backoff loop.
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None, *,
                 name: Optional[str] = None,
                 heartbeat: Optional[float] = None,
                 poll_window: float = DEFAULT_POLL_WINDOW,
                 max_points: Optional[int] = None,
                 reconnect: bool = True,
                 rng: Optional[random.Random] = None,
                 verbose: bool = False):
        from repro.service.server import DEFAULT_ADDR
        default_host, default_port = env.get_hostport(
            "REPRO_SERVICE_ADDR", DEFAULT_ADDR)
        self.host = default_host if host is None else host
        self.port = default_port if port is None else port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self._heartbeat = heartbeat
        self._poll_window = max(0.1, poll_window)
        self._max_points = max_points
        self._reconnect = reconnect
        self._rng = rng if rng is not None else random.Random()
        self._verbose = verbose
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._write_lock = threading.Lock()
        self.completed = 0
        self.failed = 0
        self.stale = 0
        self.reconnects = 0

    # ---------------------------------------------------------- control

    def stop(self) -> None:
        """Graceful stop: finish the in-flight lease, then return.

        Safe to call from a signal handler or another thread.
        """
        self._stop.set()

    def _say(self, text: str) -> None:
        if self._verbose:
            print(f"[worker {self.name}] {text}", flush=True)

    # ------------------------------------------------------------- wire

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=30.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rb")

    def _disconnect(self) -> None:
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        for closer in (file, sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass

    def _send(self, message: Dict[str, Any]) -> None:
        """One message out, under the write lock (heartbeats interleave)."""
        data = protocol.encode(message)
        with self._write_lock:
            assert self._sock is not None
            self._sock.sendall(data)

    def _read(self, timeout: float) -> Dict[str, Any]:
        assert self._sock is not None and self._file is not None
        self._sock.settimeout(timeout)
        line = self._file.readline(protocol.MAX_LINE + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    # ------------------------------------------------------------- loop

    def run(self) -> int:
        """Serve leases until stopped; returns points completed.

        Arms this process as a fault-injection worker while it runs, so
        ``REPRO_FAULTS`` behaves identically whether a point lands on
        the local pool or on this remote worker; the previous state is
        restored on return, so a worker run inside another process (a
        test, an embedding service) leaves that process disarmed.
        """
        was_armed = faults.mark_worker()
        try:
            failures = 0
            while not self._done():
                try:
                    self._session()
                    failures = 0
                except (OSError, ConnectionError, protocol.ProtocolError,
                        EOFError) as exc:
                    self._disconnect()
                    if self._done() or not self._reconnect:
                        break
                    failures += 1
                    self.reconnects += 1
                    ceiling = min(RECONNECT_CAP,
                                  RECONNECT_BASE * (2 ** min(failures, 10)))
                    delay = self._rng.uniform(0.0, ceiling)
                    self._say(f"connection lost ({exc}); "
                              f"reconnecting in {delay:.2f}s")
                    if self._stop.wait(delay):
                        break
                except WorkerStopped:
                    break
            self._disconnect()
            return self.completed
        finally:
            faults.mark_worker(was_armed)

    def _done(self) -> bool:
        return self._stop.is_set() or (
            self._max_points is not None
            and self.completed >= self._max_points)

    def _session(self) -> None:
        """One connection's lifetime: register, then poll/compute."""
        self._connect()
        try:
            heartbeat = self._register()
            self._say(f"registered with {self.host}:{self.port} "
                      f"(heartbeat {heartbeat:.1f}s)")
            while not self._done():
                reply = self._poll()
                kind = reply.get("type")
                if kind == "lease":
                    self._serve_lease(reply, heartbeat)
                elif kind == "idle":
                    continue
                elif kind == "draining":
                    self._say("server draining; disconnecting")
                    if not self._reconnect:
                        raise WorkerStopped()
                    raise ConnectionError("server draining")
                else:
                    raise protocol.ProtocolError(
                        f"unexpected poll answer: {kind!r}")
        finally:
            self._disconnect()

    def _register(self) -> float:
        self._send({
            "id": "register", "op": "worker-register",
            "name": self.name, "host": socket.gethostname(),
            "pid": os.getpid(), "kinds": ["frontend", "machine"],
            "cost_rate": 1.0, "version": protocol.PROTOCOL_VERSION,
        })
        reply = self._read(30.0)
        if reply.get("type") != "registered":
            raise protocol.ProtocolError(
                f"registration refused: {reply.get('error') or reply}")
        if self._heartbeat is not None:
            return max(0.05, self._heartbeat)
        return max(0.05, float(reply.get("heartbeat",
                                         env.get_float("REPRO_HEARTBEAT",
                                                       5.0))))

    def _poll(self) -> Dict[str, Any]:
        self._send({"id": "poll", "op": "worker-poll",
                    "window": self._poll_window})
        return self._read(self._poll_window + 30.0)

    def _serve_lease(self, lease: Dict[str, Any],
                     heartbeat: float) -> None:
        """Compute one leased point and ship the outcome."""
        lease_id = lease.get("lease")
        key = str(lease.get("key", ""))
        point = protocol.point_from_dict(lease["point"]).resolved()
        engine = lease.get("engine")
        ordinal = int(lease.get("ordinal", 0))
        attempt = int(lease.get("attempt", 0))
        self._say(f"lease {lease_id}: {point.kind} {point.benchmark} "
                  f"(attempt {attempt})")
        self._send({"op": "worker-started", "lease": lease_id, "key": key})
        beat_stop = threading.Event()
        beater = threading.Thread(
            target=self._beat, args=(beat_stop, heartbeat, lease_id),
            daemon=True)
        beater.start()
        began = time.monotonic()
        try:
            result = scheduler.run_point_task(point, ordinal, attempt, key,
                                              engine=engine)
            payload = protocol.result_to_payload(point.kind, result)
        except BaseException as exc:
            beat_stop.set()
            beater.join(timeout=heartbeat + 1.0)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            kind = faults.classify(exc)
            self.failed += 1
            self._say(f"lease {lease_id} failed ({kind}): "
                      f"{faults.format_error(exc)}")
            self._send({"id": "fail", "op": "worker-fail",
                        "lease": lease_id, "key": key,
                        "error": faults.format_error(exc),
                        "failure": kind})
            self._read_ack("fail-ack")
            return
        beat_stop.set()
        beater.join(timeout=heartbeat + 1.0)
        elapsed = time.monotonic() - began
        self._send({"id": "complete", "op": "worker-complete",
                    "lease": lease_id, "key": key, "payload": payload,
                    "elapsed": elapsed})
        accepted = self._read_ack("complete-ack")
        if accepted:
            self.completed += 1
            self._say(f"lease {lease_id} completed in {elapsed:.2f}s")
        else:
            self.stale += 1
            self._say(f"lease {lease_id} was revoked before the result "
                      "arrived (stale; server already requeued it)")

    def _read_ack(self, expected: str) -> bool:
        reply = self._read(30.0)
        if reply.get("type") != expected:
            raise protocol.ProtocolError(
                f"expected {expected}, got {reply.get('type')!r}")
        return bool(reply.get("accepted", False))

    def _beat(self, stop: threading.Event, interval: float,
              lease_id: Any) -> None:
        """Heartbeat thread body: renew the lease until told to stop.

        A send failure just ends the thread — the main thread will hit
        the same dead socket when it ships the result, and the server
        side has already started the revocation clock.
        """
        while not stop.wait(interval):
            try:
                self._send({"op": "worker-heartbeat",
                            "leases": [lease_id]})
            except (OSError, protocol.ProtocolError):
                return


def run_worker(host: Optional[str] = None, port: Optional[int] = None,
               **kwargs: Any) -> FleetWorker:
    """Construct and run a worker; returns it (counters populated)."""
    worker = FleetWorker(host, port, **kwargs)
    worker.run()
    return worker
