"""The asyncio experiment server: admission, supervision, drain.

One :class:`ExperimentService` owns one process pool and serves many
concurrent clients over line-delimited JSON
(:mod:`repro.service.protocol`).  The design goal is that a *shared*
front door is never worse than everyone running
:func:`repro.experiments.scheduler.run_grid` privately, and usually far
better, because the service adds four things the library cannot:

* **Admission control.**  Every submission is costed *before* any state
  is created: points already on disk, already journaled or already in
  flight are free; only genuinely new computations count against the
  global ``REPRO_ADMIT_MAX`` window, and each admitted-but-not-yet-
  started key holds a reservation against that window until its
  computation is attached, so concurrent submissions of *distinct*
  points cannot all be admitted against the same stale in-flight count
  (concurrent duplicates of a reserved key stay free: they coalesce
  onto its one computation).  An overloaded service answers with an
  explicit ``rejected`` + ``retry_after`` hint — it never queues
  unboundedly, never hangs a client, never silently drops work.
* **Request coalescing.**  In-flight points are deduplicated
  machine-wide by their content-hash cache keys
  (:mod:`repro.service.coalesce`): a duplicate storm of a thousand
  submissions costs one computation per distinct point, and a client
  that disconnects mid-wait only detaches itself — the computation
  finishes and warms the shared cache.
* **Graceful degradation.**  Each point runs under
  :class:`repro.experiments.faults.Supervision`, the one retry policy
  the grid scheduler also runs, over the route list ``[fleet, pool,
  inline]``; a :class:`~repro.experiments.breaker.CircuitBreaker` on
  each non-floor route degrades the service to the next route after
  repeated breaks.  Inline in-parent execution is the safe floor, since
  injected faults never fire outside marked workers.
* **Crash-safe drain.**  SIGTERM (or the ``drain`` op) stops admitting,
  gives in-flight points a grace window, then answers every waiting
  client with explicit retryable errors and leaves each submission's
  checkpoint journal on disk — a restarted service recomputes only the
  unjournaled remainder, byte-identical to a clean run.
* **A worker fleet** (:mod:`repro.service.fleet`): remote ``repro
  worker`` processes pull points under heartbeat-renewed leases over
  the same protocol.  The fleet route is ready when it has at least
  ``REPRO_FLEET_MIN`` live workers — a lost worker revokes its leases
  and the points are requeued transparently.
  Per-point lifecycle events stream to ``subscribe``-d clients through
  :mod:`repro.service.events`.

Every submission's computed points are journaled under a grid
checkpoint journal (:mod:`repro.experiments.checkpoint`) keyed by its
content-hashed point set, so crash-resume works per client request, not
just per process.  Cache hits are not journaled (a hit is already
durable in the cache, as in ``run_grid``): a warm hit costs one thread
hop and no journal file.

The server is single-event-loop; simulations run in pool workers (or,
degraded, in threads via ``asyncio.to_thread``), so the loop only ever
does bookkeeping and IO.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import checkpoint, diskcache, env, faults, scheduler
from repro.experiments.breaker import CircuitBreaker
from repro.service import events as events_mod
from repro.service import fleet as fleet_mod
from repro.service import protocol
from repro.service.coalesce import CoalesceTable, Entry
from repro.service.events import EventHub
from repro.service.fleet import Fleet

#: Default bind address when ``REPRO_SERVICE_ADDR`` is unset.
DEFAULT_ADDR = ("127.0.0.1", 8753)


class ServiceDraining(Exception):
    """The service is shutting down; the work is retryable elsewhere."""


class PointComputationError(faults.Classified):
    """A point's terminal failure, tagged with the fault taxonomy kind."""


class _Connection:
    """Per-client state: a write lock (responses interleave), backlog."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.active = 0      #: submissions currently being served
        self.alive = True

    async def send(self, message: Dict[str, Any]) -> None:
        if not self.alive:
            return
        try:
            data = protocol.encode(message)
        except protocol.ProtocolError:
            data = protocol.encode({"id": message.get("id"), "type": "error",
                                    "error": "response exceeded line limit"})
        async with self.lock:
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self.alive = False  # client gone; computations continue


class ExperimentService:
    """The async grid front door.  See the module docstring."""

    def __init__(self, host: Optional[str] = None, port: Optional[int] = None,
                 *, jobs: Optional[int] = None,
                 admit_max: Optional[int] = None,
                 client_backlog: Optional[int] = None,
                 drain_grace: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 fleet_breaker: Optional[CircuitBreaker] = None,
                 lease_ttl: Optional[float] = None,
                 heartbeat: Optional[float] = None,
                 fleet_min: Optional[int] = None):
        default_host, default_port = env.get_hostport(
            "REPRO_SERVICE_ADDR", DEFAULT_ADDR)
        self.host = default_host if host is None else host
        self.port = default_port if port is None else port
        self._jobs = scheduler.resolve_jobs(jobs)
        if admit_max is None:
            admit_max = env.get_int("REPRO_ADMIT_MAX", 4 * self._jobs)
        self._admit_max = max(1, admit_max or 1)
        if client_backlog is None:
            client_backlog = env.get_int("REPRO_CLIENT_BACKLOG", 32)
        self._client_backlog = max(1, client_backlog or 1)
        if drain_grace is None:
            drain_grace = env.get_float("REPRO_DRAIN_GRACE", 30.0)
        self._drain_grace = max(0.0, drain_grace or 0.0)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fleet_breaker = fleet_breaker if fleet_breaker is not None \
            else CircuitBreaker(name="fleet")
        self.hub = EventHub()
        self.fleet = Fleet(lease_ttl=lease_ttl, heartbeat=heartbeat,
                           min_workers=fleet_min, hub=self.hub)
        self._routes = [
            faults.Route("fleet", self.fleet_breaker, self.fleet.available),
            faults.Route("pool", self.breaker, lambda: self._jobs > 1),
            faults.INLINE,
        ]
        self.table = CoalesceTable()
        #: Admitted-but-not-yet-attached new keys, counted against the
        #: admission window so concurrent submissions cannot
        #: oversubscribe it.  Keyed, not a counter: concurrent
        #: duplicates of a reserved key are free — they will coalesce
        #: onto the one computation, exactly like duplicates of a key
        #: already in the table.
        self._reserved: set = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock = asyncio.Lock()
        self._ordinal = 0
        self._drive_tasks: set = set()
        self._submit_tasks: set = set()
        self._conn_tasks: set = set()
        self._connections: set = set()
        self._draining = False
        self._reaper_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = asyncio.Event()
        self.counters: Dict[str, int] = {
            "clients": 0, "submissions": 0, "points": 0,
            "journal_hits": 0, "cache_hits": 0, "coalesced": 0,
            "computed_ok": 0, "computed_failed": 0, "rejected": 0,
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        ``port=0`` asks the OS for an ephemeral port (the test and bench
        harnesses rely on this); the resolved port is stored back on
        ``self.port``.
        """
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=protocol.MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]
        try:
            self._loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
        except (NotImplementedError, RuntimeError, ValueError, OSError):
            pass  # non-main thread or platform without loop signals
        self._reaper_task = self._loop.create_task(self._reap_leases())
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block until a drain (SIGTERM or the ``drain`` op) completes."""
        await self._stopped.wait()

    async def run(self) -> None:
        """``start`` + ``serve_forever`` + final cleanup, for callers."""
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.aclose()

    def begin_drain(self) -> None:
        """Stop admitting and shut down gracefully (idempotent).

        Safe to call from a signal handler registered on the loop; the
        actual drain runs as a task so the handler returns immediately.
        """
        if self._draining:
            return
        self._draining = True
        # Stop leasing first: idle worker polls answer "draining" so the
        # fleet disperses while in-flight leases use the grace window.
        self.fleet.begin_drain()
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        tasks = set(self._drive_tasks)
        if tasks:
            _done, pending = await asyncio.wait(
                tasks, timeout=self._drain_grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=5.0)
        # Whatever did not finish inside the grace window answers its
        # waiting submissions with an explicit retryable error; their
        # journals keep every point that *did* complete.  Leases that
        # outlived the grace are revoked the same way — their workers'
        # eventual completions will be counted stale and dropped.
        self.fleet.fail_pending(ServiceDraining(
            "service draining; leased points are requeued on resubmit"))
        self.table.fail_all(ServiceDraining(
            "service draining; completed points are journaled — resubmit"))
        await self._break_pool(self._pool_generation)
        submits = set(self._submit_tasks)
        if submits:
            await asyncio.wait(submits, timeout=5.0)
        # Every waiting client has been answered; hang up so connection
        # handlers exit on EOF instead of being cancelled mid-read when
        # the loop tears down (which would log spurious tracebacks).
        for conn in list(self._connections):
            conn.alive = False
            try:
                conn.writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        handlers = set(self._conn_tasks)
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        self._stopped.set()

    async def _reap_leases(self) -> None:
        """Background task: expire leases whose heartbeats stopped."""
        while True:
            await asyncio.sleep(self.fleet.reap_interval)
            self.fleet.reap()

    async def aclose(self) -> None:
        """Release sockets and the pool (after ``serve_forever`` returns)."""
        if self._reaper_task is not None:
            self._reaper_task.cancel()
            try:
                await self._reaper_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reaper_task = None
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (ConnectionError, OSError):
                pass
        await self._break_pool(self._pool_generation)

    # ------------------------------------------------------------ the pool

    async def _ensure_pool(self) -> Tuple[ProcessPoolExecutor, int]:
        async with self._pool_lock:
            if self._pool is None:
                self._pool = await asyncio.to_thread(scheduler._spawn_pool,
                                                     self._jobs)
                self._pool_generation += 1
            return self._pool, self._pool_generation

    async def _break_pool(self, generation: int) -> None:
        """Kill the pool of ``generation`` (no-op if already replaced).

        The generation guard stops a slow failure from one pool's corpse
        tearing down the healthy replacement another drive task already
        spawned.
        """
        async with self._pool_lock:
            if self._pool is None or self._pool_generation != generation:
                return
            pool, self._pool = self._pool, None
        await asyncio.to_thread(scheduler._kill_pool, pool)

    # ------------------------------------------------------- computation

    async def _run_pooled(self, entry: Entry, attempt: int,
                          timeout: Optional[float]):
        """Run one point in the local pool; a hung or broken pool is
        killed and strikes the pool breaker."""
        point = entry.point
        pool, generation = await self._ensure_pool()
        ordinal = self._ordinal
        self._ordinal += 1
        try:
            future = pool.submit(scheduler._run_point_task, point, ordinal,
                                 attempt, entry.key, entry.engine)
        except RuntimeError as exc:  # pool shut down under us
            self.breaker.record_break()
            raise BrokenExecutor(str(exc)) from None
        scaled = scheduler.cost_budget(point, timeout)
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(future),
                                            scaled)
        except asyncio.TimeoutError:
            self.breaker.record_break()
            await self._break_pool(generation)  # the worker is hung: kill it
            raise faults.PointTimeout(
                f"point exceeded its {scaled:.1f}s cost-scaled deadline"
            ) from None
        except BrokenExecutor:
            self.breaker.record_break()
            await self._break_pool(generation)
            raise
        self.breaker.record_success()
        return result

    async def _run_fleet(self, entry: Entry, attempt: int,
                         timeout: Optional[float]):
        """Dispatch one point to a fleet worker and await its result.

        The offer gets the same cost-scaled deadline as a pooled run;
        blowing it (a worker that heartbeats but never finishes) cancels
        the offer — any late completion is counted stale — and raises
        :class:`~repro.service.fleet.LeaseRevoked`.  A transient failure
        or timeout strikes the fleet breaker, so a flapping fleet
        degrades to the pool the way a crashing pool degrades to inline.
        """
        ordinal = self._ordinal
        self._ordinal += 1
        offer = self.fleet.offer(entry, attempt=attempt, ordinal=ordinal)
        scaled = scheduler.cost_budget(entry.point, timeout)
        try:
            payload, worker_id, _elapsed = await asyncio.wait_for(
                offer.future, scaled)
        except asyncio.TimeoutError:
            self.fleet.cancel(offer, reason="cost-scaled deadline")
            self.fleet_breaker.record_break()
            raise fleet_mod.LeaseRevoked(
                f"leased point exceeded its {scaled:.1f}s cost-scaled "
                "deadline") from None
        except asyncio.CancelledError:
            self.fleet.cancel(offer, reason="cancelled")
            raise
        except Exception as exc:
            if faults.retryable(faults.classify(exc)):
                self.fleet_breaker.record_break()
            raise
        self.fleet_breaker.record_success()
        entry.worker = worker_id
        # The worker serialized its result for the wire; rebuilding it
        # here hands _drive a normal result object so admission stores
        # it under this server's cache exactly like a pooled result
        # (remote workers need not share a filesystem with the server).
        return protocol.result_from_payload(entry.point.kind, payload)

    async def _compute(self, entry: Entry, timeout: Optional[float]):
        """Run one point to a result under :class:`faults.Supervision`.

        Each run goes to the first route :func:`faults.pick_route`
        allows; the routes' runners strike and reset their own breakers.
        A point that gives up raises :class:`PointComputationError`
        carrying the policy's failure kind.
        """
        supervision = faults.Supervision(
            budget=faults.retry_budget(self._routes,
                                       faults.resolve_retries(None)),
            backoff=faults.resolve_backoff(), sleep=asyncio.sleep)
        runners = {
            "fleet": self._run_fleet, "pool": self._run_pooled,
            # The floor: a thread of the server process, never faulted.
            "inline": lambda entry, _attempt, _timeout: asyncio.to_thread(
                scheduler._run_point, entry.point, entry.engine)}
        state = faults.PointState(engine=entry.engine)
        while True:
            route = faults.pick_route(self._routes, state)
            if route.name != "fleet":
                entry.worker = route.name
                self.hub.emit(events_mod.STARTED, key=entry.key,
                              worker=route.name, attempt=state.retries)
            try:
                return await runners[route.name](entry, state.retries,
                                                 timeout)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                kind = faults.classify(exc)
                action, state = supervision.step(
                    state, kind, route is faults.INLINE)
                entry.engine = state.engine
                if action == faults.GIVE_UP:
                    raise PointComputationError(
                        faults.format_error(exc),
                        faults.give_up_kind(kind)) from exc
                if action == faults.PIN_REFERENCE:
                    self.hub.emit(events_mod.DIVERGED, key=entry.key,
                                  worker=entry.worker, attempt=state.retries)
                    continue
                self.hub.emit(events_mod.RETRIED, key=entry.key,
                              worker=entry.worker, attempt=state.retries,
                              reason=kind, error=faults.format_error(exc))
                if action == faults.RETRY:
                    await supervision.sleep(supervision.delay(state.retries))

    async def _drive(self, entry: Entry, timeout: Optional[float]) -> None:
        """Own one in-flight computation: resolve its shared future."""
        try:
            result = await self._compute(entry, timeout)
            # Admission stores through the disk cache; keep that write
            # off the event loop (a slow cache dir must not stall every
            # client of the single-loop server).
            await asyncio.to_thread(scheduler._admit, entry.point, result)
            payload = protocol.result_to_payload(entry.point.kind, result)
            self.counters["computed_ok"] += 1
            self.hub.emit(events_mod.COMPLETED, key=entry.key,
                          worker=entry.worker, kind=entry.point.kind,
                          elapsed=round(time.time() - entry.created_at, 3))
            if not entry.future.done():
                entry.future.set_result(payload)
        except asyncio.CancelledError:
            if not entry.future.done():
                entry.future.set_exception(ServiceDraining(
                    "computation cancelled by service drain"))
            raise
        except BaseException as exc:
            if not isinstance(exc, PointComputationError):
                exc = PointComputationError(faults.format_error(exc),
                                            faults.classify(exc))
            self.counters["computed_failed"] += 1
            self.hub.emit(events_mod.FAILED, key=entry.key,
                          worker=entry.worker, failure=exc.kind,
                          error=str(exc))
            if not entry.future.done():
                entry.future.set_exception(exc)
        finally:
            self.table.finish(entry.key)

    # -------------------------------------------------------- admission

    def _admission_answer(self, conn: _Connection, keys: List[str],
                          journaled: Dict[str, Any], hits=()):
        """``(None, reserved_keys)`` to admit, else ``((reason, hint), [])``.

        Runs *before* any entry, journal-write or task exists, so a
        rejected submission leaves zero state behind.  Only genuinely
        new computations count against the window.  Free are: keys
        replayed from the submission's checkpoint journal
        (``journaled``) and keys its cache probe answered (``hits``),
        both found by :meth:`_prepare` before asking — resubmitting an
        interrupted grid must never be rejected for work it already
        finished; keys already in flight (or reserved by a concurrent
        admission — those will coalesce); and probe misses whose
        disk-cache entry has landed since the probe (a ``stat`` per
        miss, never per hit), which a computation that finished in
        between leaves behind.

        The check and its reservation are one synchronous step on the
        event loop: the returned keys are added to ``self._reserved``
        before returning and must be handed back through
        :meth:`_release_reservations` once they are attached (or the
        submission dies), so concurrent submissions — whose preparation
        runs on a worker thread — cannot all be admitted against the
        same stale in-flight count.
        """
        if self._draining:
            return (protocol.DRAINING, 5.0), []
        if conn.active >= self._client_backlog:
            return (protocol.CLIENT_BACKLOG, 1.0), []
        new_keys = []
        for key in dict.fromkeys(keys):
            if key not in journaled and key not in hits \
                    and key not in self._reserved \
                    and self.table.get(key) is None \
                    and not diskcache.entry_path(key).exists():
                new_keys.append(key)
        # Reserved keys that have since attached are already counted by
        # the table; the rest are admitted work that has not landed yet.
        pending = sum(1 for key in self._reserved
                      if self.table.get(key) is None)
        backlog = (len(self.table) + pending + len(new_keys)
                   - self._admit_max)
        if backlog > 0:
            return (protocol.OVERLOADED,
                    min(30.0, max(0.5, 0.25 * backlog))), []
        self._reserved.update(new_keys)
        return None, new_keys

    def _release_reservations(self, reserved_keys: List[str]) -> None:
        """Give admission reservations back (their keys attached or died)."""
        self._reserved.difference_update(reserved_keys)

    # ------------------------------------------------------- submissions

    @staticmethod
    def _prepare(journal: checkpoint.Journal, points, keys: List[str]):
        """A submission's blocking IO, run as one worker-thread step.

        Replays the checkpoint journal, then probes every point it does
        not hold (:func:`scheduler._cached_payload`: memo, then disk).
        Returns ``(journaled, hits)``: ``{key: (kind, payload)}`` and
        ``{key: payload}``.  It creates no state, so a rejection or a
        failure after it leaves none.
        """
        journaled = journal.load()
        hits: Dict[str, Dict[str, Any]] = {}
        for point, key in zip(points, keys):
            if key not in journaled and key not in hits:
                payload = scheduler._cached_payload(point, key)
                if payload is not None:
                    hits[key] = payload
        return journaled, hits

    async def _handle_submit(self, conn: _Connection,
                             message: Dict[str, Any]) -> None:
        reply_id = message.get("id")
        try:
            raw_points = message.get("points")
            if not isinstance(raw_points, list) or not raw_points:
                raise protocol.ProtocolError(
                    "submit needs a non-empty points list")
            deadline = protocol.parse_deadline(message.get("deadline"))
            points = [protocol.point_from_dict(p).resolved()
                      for p in raw_points]
            keys = [scheduler.point_key(p) for p in points]
        except protocol.ProtocolError as exc:
            await conn.send({"id": reply_id, "type": "error",
                             "error": str(exc)})
            return
        # Journal and cache are read before the admission decision, so
        # journaled and cached points cost neither a pool slot nor a
        # window share.
        try:
            journal = checkpoint.Journal(keys)
            journaled, hits = await asyncio.to_thread(
                self._prepare, journal, points, keys)
        except Exception as exc:  # a client must never hang
            await conn.send({"id": reply_id, "type": "error",
                             "error": faults.format_error(exc)})
            return
        rejection, reserved = self._admission_answer(conn, keys, journaled,
                                                     hits)
        if rejection is not None:
            reason, retry_after = rejection
            self.counters["rejected"] += 1
            await conn.send({"id": reply_id, "type": "rejected",
                             "reason": reason, "retry_after": retry_after})
            return

        conn.active += 1
        self.counters["submissions"] += 1
        self.counters["points"] += len(points)
        loop = asyncio.get_running_loop()
        deadline_at = None if deadline is None else loop.time() + deadline
        results: List[Optional[Dict[str, Any]]] = [None] * len(points)
        waits: List[Tuple[int, Any, str, Entry]] = []
        to_compute: List[Entry] = []
        try:
            spawned = 0
            try:
                for index, (point, key) in enumerate(zip(points, keys)):
                    hit = journaled.get(key)
                    if hit is not None:
                        self.counters["journal_hits"] += 1
                        results[index] = {"key": key, "kind": point.kind,
                                          "status": "ok", "payload": hit[1]}
                        continue
                    cached = hits.get(key)
                    if cached is not None:
                        self.counters["cache_hits"] += 1
                        results[index] = {"key": key, "kind": point.kind,
                                          "status": "ok", "payload": cached}
                        continue
                    entry, created = self.table.attach(key, point, loop)
                    if created:
                        to_compute.append(entry)
                        self.hub.emit(events_mod.QUEUED, key=key,
                                      kind=point.kind,
                                      benchmark=point.benchmark)
                    else:
                        self.counters["coalesced"] += 1
                    waits.append((index, point, key, entry))
                # One cost-proportional per-point budget for the points
                # this submission actually computes (an env
                # REPRO_POINT_TIMEOUT, when set, wins — same precedence
                # as run_grid).
                base_timeout = faults.resolve_timeout(None)
                if base_timeout is None and deadline is not None:
                    base_timeout = scheduler.deadline_point_timeout(
                        [entry.point for entry in to_compute] or points,
                        deadline)
                for entry in to_compute:
                    task = loop.create_task(self._drive(entry, base_timeout))
                    self._drive_tasks.add(task)
                    task.add_done_callback(self._drive_tasks.discard)
                    spawned += 1
            except BaseException:
                # Cancellation (client disconnect mid-preparation) or an
                # error between attach and task spawn must not strand
                # entries in the table: a stranded future would hang
                # every later duplicate until drain, and its disk-cache
                # pin would leak.  Entries whose drive task did start
                # own their own teardown.
                for entry in to_compute[spawned:]:
                    if not entry.future.done():
                        entry.future.set_exception(PointComputationError(
                            "submission aborted before its computation "
                            "started", faults.TRANSIENT))
                    self.table.finish(entry.key)
                raise
            finally:
                # New keys are now either attached (counted by the
                # table) or torn down; the admission reservations have
                # done their job either way.
                self._release_reservations(reserved)
            for index, point, key, entry in waits:
                results[index] = await self._await_entry(
                    entry, point, key, journal, deadline_at, loop)
            clean = all(r is not None and r.get("status") == "ok"
                        for r in results)
            # Only a journal that holds lines has a file to drop.
            if clean and (journaled or journal.recorded):
                await asyncio.to_thread(journal.complete)
            await conn.send({"id": reply_id, "type": "done",
                             "results": results})
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defensive: a client must never hang
            await conn.send({"id": reply_id, "type": "error",
                             "error": faults.format_error(exc)})
        finally:
            journal.close()  # no-op after complete(); keeps it for resume
            for _index, _point, _key, entry in waits:
                self.table.release(entry)
            conn.active -= 1

    async def _await_entry(self, entry: Entry, point, key: str,
                           journal: checkpoint.Journal,
                           deadline_at: Optional[float],
                           loop: asyncio.AbstractEventLoop) -> Dict[str, Any]:
        """Wait for one shared future; classify the outcome for the wire.

        The wait is shielded: a submission that is cancelled (client
        disconnect, drain) or that runs out of deadline detaches without
        cancelling the computation, which continues to warm the cache.
        """
        base = {"key": key, "kind": point.kind}
        try:
            if deadline_at is None:
                payload = await asyncio.shield(entry.future)
            else:
                remaining = deadline_at - loop.time()
                if remaining <= 0:
                    raise asyncio.TimeoutError
                payload = await asyncio.wait_for(
                    asyncio.shield(entry.future), remaining)
        except asyncio.TimeoutError:
            return {**base, "status": "error", "retryable": True,
                    "error": "deadline exceeded waiting for result"}
        except ServiceDraining as exc:
            return {**base, "status": "error", "retryable": True,
                    "error": str(exc)}
        except PointComputationError as exc:
            return {**base, "status": "error",
                    "retryable": faults.retryable(exc.kind),
                    "failure": exc.kind, "error": str(exc)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # defensive: never hang a client
            return {**base, "status": "error", "retryable": True,
                    "error": faults.format_error(exc)}
        # Journal writes are blocking disk IO; running them on a worker
        # thread keeps a slow cache dir from stalling the whole loop.
        # Within one submission these awaits are sequential, so records
        # to this journal never interleave.
        await asyncio.to_thread(journal.record, key, point.kind, payload)
        return {**base, "status": "ok", "payload": payload}

    # ----------------------------------------------------- fleet op glue

    async def _handle_worker_poll(self, conn: _Connection, reply_id: Any,
                                  message: Dict[str, Any]) -> None:
        """Long-poll answer: ``lease`` / ``idle`` / ``draining``."""
        handle = self.fleet.handle_for(conn)
        if handle is None:
            await conn.send({"id": reply_id, "type": "error",
                             "error": "worker-poll before worker-register"})
            return
        window = message.get("window")
        if not isinstance(window, (int, float)) or isinstance(window, bool):
            window = 10.0
        lease = await self.fleet.poll(handle, float(window))
        if lease is None:
            kind = "draining" if self.fleet.draining else "idle"
            await conn.send({"id": reply_id, "type": kind})
            return
        offer = lease.offer
        await conn.send({
            "id": reply_id, "type": "lease", "lease": lease.lease_id,
            "key": offer.entry.key,
            "point": protocol.point_to_dict(offer.entry.point),
            "engine": offer.entry.engine,
            "ttl": offer.ttl,
            "attempt": offer.attempt,
            "ordinal": offer.ordinal,
        })

    async def _handle_worker_complete(self, conn: _Connection,
                                      reply_id: Any,
                                      message: Dict[str, Any]) -> None:
        """Accept (or count stale) one worker's shipped result."""
        handle = self.fleet.handle_for(conn)
        accepted = False
        if handle is not None:
            payload = message.get("payload")
            if isinstance(payload, dict):
                accepted = self.fleet.complete(
                    handle, message.get("lease"), payload,
                    message.get("elapsed"))
            else:
                self.fleet.fail(handle, message.get("lease"),
                                "malformed worker result payload",
                                faults.DETERMINISTIC)
        await conn.send({"id": reply_id, "type": "complete-ack",
                         "accepted": accepted})

    async def _handle_worker_fail(self, conn: _Connection, reply_id: Any,
                                  message: Dict[str, Any]) -> None:
        """Route one worker-reported failure into the retry policy."""
        handle = self.fleet.handle_for(conn)
        accepted = False
        if handle is not None:
            kind = message.get("failure")
            if kind not in faults.KINDS:
                kind = faults.DETERMINISTIC
            accepted = self.fleet.fail(
                handle, message.get("lease"),
                str(message.get("error", "worker failure")), kind)
        await conn.send({"id": reply_id, "type": "fail-ack",
                         "accepted": accepted})

    # ------------------------------------------------------------ status

    async def _status_payload(self) -> Dict[str, Any]:
        cache = await asyncio.to_thread(diskcache.cache_stats)
        checkpoints = await asyncio.to_thread(checkpoint.stats)
        return {
            "draining": self._draining,
            "jobs": self._jobs,
            "admit_max": self._admit_max,
            "client_backlog": self._client_backlog,
            "in_flight": len(self.table),
            "admission_reserved": len(self._reserved),
            "counters": dict(self.counters),
            "coalesce": self.table.stats(),
            "breaker": self.breaker.stats(),
            "fleet_breaker": self.fleet_breaker.stats(),
            "fleet": self.fleet.stats(),
            "events": self.hub.stats(),
            "cache": cache,
            "checkpoints": checkpoints,
        }

    # ------------------------------------------------------- connections

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self.counters["clients"] += 1
        self._connections.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await conn.send({"id": None, "type": "error",
                                     "error": "oversized protocol line"})
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await conn.send({"id": None, "type": "error",
                                     "error": str(exc)})
                    continue
                op = message.get("op")
                reply_id = message.get("id")
                if op == "ping":
                    await conn.send({"id": reply_id, "type": "pong",
                                     "version": protocol.PROTOCOL_VERSION})
                elif op == "status":
                    await conn.send({"id": reply_id, "type": "status",
                                     **(await self._status_payload())})
                elif op == "drain":
                    self.begin_drain()
                    await conn.send({"id": reply_id, "type": "draining"})
                elif op == "submit":
                    task = asyncio.get_running_loop().create_task(
                        self._handle_submit(conn, message))
                    for registry in (tasks, self._submit_tasks):
                        registry.add(task)
                        task.add_done_callback(registry.discard)
                elif op == "subscribe":
                    keys = message.get("keys")
                    self.hub.subscribe(
                        conn, reply_id,
                        keys if isinstance(keys, list) else None)
                    await conn.send({"id": reply_id, "type": "subscribed"})
                elif op == "unsubscribe":
                    existed = self.hub.unsubscribe(
                        conn, message.get("subscription"))
                    await conn.send({"id": reply_id, "type": "unsubscribed",
                                     "existed": existed})
                elif op == "worker-register":
                    handle = self.fleet.register(conn, message)
                    await conn.send({
                        "id": reply_id, "type": "registered",
                        "worker": handle.worker_id,
                        "heartbeat": self.fleet.heartbeat_interval,
                        "lease_ttl": self.fleet.lease_ttl})
                elif op == "worker-poll":
                    # Awaited inline: an idle worker sends nothing else,
                    # so holding this connection's read loop through the
                    # long-poll window is free.
                    await self._handle_worker_poll(conn, reply_id, message)
                elif op == "worker-heartbeat":
                    handle = self.fleet.handle_for(conn)
                    if handle is not None:
                        leases = message.get("leases")
                        self.fleet.heartbeat(
                            handle,
                            [l for l in (leases or [])
                             if isinstance(l, int)])
                elif op == "worker-started":
                    handle = self.fleet.handle_for(conn)
                    if handle is not None:
                        self.fleet.started(handle, message.get("lease"))
                elif op == "worker-complete":
                    await self._handle_worker_complete(conn, reply_id,
                                                       message)
                elif op == "worker-fail":
                    await self._handle_worker_fail(conn, reply_id, message)
                else:
                    await conn.send({"id": reply_id, "type": "error",
                                     "error": f"unknown op: {op!r}"})
        finally:
            conn.alive = False
            # A lost worker connection revokes its leases (requeueing
            # the points); a lost subscriber tears down its feeds.
            self.fleet.disconnect(conn)
            self.hub.drop_connection(conn)
            self._connections.discard(conn)
            # Disconnect teardown: the submissions stop waiting (their
            # shielded awaits cancel, releasing their subscriptions and
            # closing their journals), the computations keep running.
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServiceThread:
    """A service on a background thread, for tests and benchmarks.

    ``start()`` blocks until the server is bound and returns the live
    ``(host, port)``; ``stop()`` triggers a drain and joins the thread.
    """

    def __init__(self, **kwargs: Any):
        self.service = ExperimentService(**kwargs)
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def _main(self) -> None:
        async def body() -> None:
            try:
                await self.service.start()
            finally:
                self._ready.set()
            try:
                await self.service.serve_forever()
            finally:
                await self.service.aclose()

        try:
            asyncio.run(body())
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()

    def start(self) -> Tuple[str, int]:
        if self._thread is None:
            self._thread = threading.Thread(target=self._main,
                                            name="repro-service",
                                            daemon=True)
            self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error!r}")
        return self.service.host, self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.begin_drain)
        if self._thread is not None:
            self._thread.join(timeout=timeout)


def serve(host: Optional[str] = None, port: Optional[int] = None,
          **kwargs: Any) -> None:
    """Blocking entry point used by ``repro serve``.

    Runs until SIGTERM (or a client ``drain`` op) completes a graceful
    drain; Ctrl-C interrupts immediately (checkpoint journals make even
    that safe to resume).
    """
    service = ExperimentService(host, port, **kwargs)
    asyncio.run(service.run())
