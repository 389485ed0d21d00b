"""Fleet registry: leased dispatch of points to remote worker processes.

The service's process pool scales to one machine.  This module scales
it out: ``repro worker HOST:PORT`` processes connect over the same
line-delimited JSON protocol, register with capability/cost metadata,
and *pull* points — the server never pushes work at a socket it merely
hopes is healthy.  The unit of dispatch is a **lease**:

* A drive task offers an in-flight point to the fleet
  (:meth:`Fleet.offer`).  The first long-polling worker is granted a
  lease — an id, the point, the pinned engine, and a deadline
  ``now + REPRO_LEASE_TTL * cost_scale(point)`` (heavier points get
  proportionally longer, the same cost model the supervisor's timeouts
  use).
* The worker renews the deadline with heartbeats while it computes.  A
  missed deadline (hung worker, wedged host) or a dropped connection
  (crash, SIGKILL, network partition) **revokes** the lease: the
  offer's future fails with :class:`LeaseRevoked` and the drive task
  requeues the point — on another worker, the local pool, or inline.
* Revocation makes execution at-least-once, and the storage layer makes
  that safe: results are admitted under sha256 content-hash cache keys
  through the coalesce table, so a revoked-then-completed duplicate
  (the worker was slow, not dead) is recognized as **stale** by its
  dead lease id, counted, and dropped — never double-stored, never
  racing the retry's answer.

Drain folds in the same order the rest of the service drains: once
:meth:`begin_drain` is called no new lease is granted (polls answer
``draining`` so workers disconnect and try the next server), in-flight
leases get the drain grace to finish, and whatever remains is revoked
and requeued by the caller's teardown.

Like every service structure, the fleet is touched only from the
server's event loop; workers live on the other side of sockets.  Time
comes from an injectable monotonic clock so tests can expire leases
deterministically.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.experiments import env, faults, scheduler
from repro.service import events as events_mod

#: Default base lease TTL in seconds (scaled by point cost).  Three
#: missed default heartbeats plus generous scheduling slack.
DEFAULT_LEASE_TTL = 30.0

#: Default worker heartbeat interval in seconds (server-chosen; told to
#: the worker at registration).
DEFAULT_HEARTBEAT = 5.0

#: Default minimum live workers before the dispatcher prefers the
#: fleet over the local pool.
DEFAULT_FLEET_MIN = 1

#: Upper bound the server imposes on one long-poll's hold time.
MAX_POLL_WINDOW = 30.0


class LeaseRevoked(faults.Classified):
    """A leased point lost its worker; the point must be requeued.

    Always transient: the fault is in the fleet, not the point.
    """

    kind = faults.TRANSIENT


class RemotePointError(faults.Classified):
    """A worker reported a point failure, pre-classified at the source.

    The worker runs :func:`repro.experiments.faults.classify` on its own
    exception (the exception object itself cannot cross the wire) and
    ships the taxonomy kind; :func:`~repro.experiments.faults.classify`
    honours it, so the supervision policy treats a remote failure
    exactly like a local one.
    """


class Offer:
    """One point offered to the fleet; resolves via ``future``.

    The future's result is ``(payload, worker_id, elapsed)``; its
    exception is :class:`LeaseRevoked` or :class:`RemotePointError`.
    """

    __slots__ = ("entry", "attempt", "ordinal", "ttl", "future",
                 "lease", "cancelled")

    def __init__(self, entry: Any, attempt: int, ordinal: int, ttl: float,
                 loop: asyncio.AbstractEventLoop):
        self.entry = entry
        self.attempt = attempt
        self.ordinal = ordinal
        self.ttl = ttl
        self.future: asyncio.Future = loop.create_future()
        self.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self.lease: Optional["Lease"] = None
        self.cancelled = False


class Lease(object):
    """A granted offer: who is running it and until when."""

    __slots__ = ("lease_id", "offer", "worker", "granted_at", "deadline",
                 "started_at")

    def __init__(self, lease_id: int, offer: Offer, worker: "WorkerHandle",
                 now: float):
        self.lease_id = lease_id
        self.offer = offer
        self.worker = worker
        self.granted_at = now
        self.deadline = now + offer.ttl
        self.started_at: Optional[float] = None


class WorkerHandle(object):
    """Server-side record of one registered worker connection."""

    __slots__ = ("worker_id", "conn", "info", "registered_at",
                 "last_heartbeat", "leases", "completed", "requeued",
                 "failed")

    def __init__(self, worker_id: str, conn: Any, info: Dict[str, Any],
                 now: float):
        self.worker_id = worker_id
        self.conn = conn
        self.info = info
        self.registered_at = now
        self.last_heartbeat = now
        self.leases: Dict[int, Lease] = {}
        self.completed = 0
        self.requeued = 0
        self.failed = 0


class Fleet:
    """Worker registry, lease table, and pull-dispatch queue."""

    def __init__(self, *, lease_ttl: Optional[float] = None,
                 heartbeat: Optional[float] = None,
                 min_workers: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic,
                 hub: Optional[events_mod.EventHub] = None):
        if lease_ttl is None:
            lease_ttl = env.get_float("REPRO_LEASE_TTL", DEFAULT_LEASE_TTL)
        if heartbeat is None:
            heartbeat = env.get_float("REPRO_HEARTBEAT", DEFAULT_HEARTBEAT)
        if min_workers is None:
            min_workers = env.get_int("REPRO_FLEET_MIN", DEFAULT_FLEET_MIN)
        self.lease_ttl = max(0.1, float(lease_ttl))
        self.heartbeat_interval = max(0.05, float(heartbeat))
        self.min_workers = max(1, int(min_workers))
        self._clock = clock
        self._hub = hub
        self._workers: Dict[str, WorkerHandle] = {}
        self._by_conn: Dict[int, WorkerHandle] = {}
        self._offers: Deque[Offer] = deque()
        self._waiters: Deque[Tuple[asyncio.Future, WorkerHandle]] = deque()
        self._leases: Dict[int, Lease] = {}
        self._lease_ids = itertools.count(1)
        self._draining = False
        self.granted_total = 0
        self.completed_total = 0
        self.requeued_total = 0
        self.failed_total = 0
        self.stale_completions = 0

    # -- membership ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def draining(self) -> bool:
        return self._draining

    def available(self) -> bool:
        """Should the dispatcher prefer the fleet for the next point?"""
        return (not self._draining
                and len(self._workers) >= self.min_workers)

    @property
    def reap_interval(self) -> float:
        """How often the reaper should scan for expired leases."""
        return min(1.0, max(0.05, self.lease_ttl / 4.0))

    def register(self, conn: Any, message: Dict[str, Any]) -> WorkerHandle:
        """A worker introduced itself; returns its handle.

        A re-registration under an existing worker id (a worker that
        reconnected before the server noticed the old socket die)
        supersedes the stale handle: its leases are revoked and
        requeued, exactly as if the old connection had dropped.
        """
        info = {
            "name": str(message.get("name") or ""),
            "host": str(message.get("host") or ""),
            "pid": message.get("pid"),
            "kinds": message.get("kinds") or ["frontend", "machine"],
            "cost_rate": message.get("cost_rate"),
            "version": message.get("version"),
        }
        worker_id = info["name"] or "worker-%s-%s" % (info["host"],
                                                      info["pid"])
        stale = self._workers.get(worker_id)
        if stale is not None:
            self._drop_handle(stale, reason="superseded by reconnection")
        handle = WorkerHandle(worker_id, conn, info, self._clock())
        self._workers[worker_id] = handle
        self._by_conn[id(conn)] = handle
        self._emit(events_mod.WORKER_JOINED, worker=worker_id,
                   host=info["host"], pid=info["pid"])
        return handle

    def handle_for(self, conn: Any) -> Optional[WorkerHandle]:
        """The registered worker behind ``conn``, if any."""
        return self._by_conn.get(id(conn))

    def disconnect(self, conn: Any) -> None:
        """Connection teardown: if it was a worker, revoke everything."""
        handle = self._by_conn.get(id(conn))
        if handle is not None and handle.conn is conn:
            self._drop_handle(handle, reason="connection lost")

    def _drop_handle(self, handle: WorkerHandle, reason: str) -> None:
        self._by_conn.pop(id(handle.conn), None)
        if self._workers.get(handle.worker_id) is handle:
            del self._workers[handle.worker_id]
        for lease in list(handle.leases.values()):
            self._revoke(lease, f"worker {handle.worker_id}: {reason}")
        self._emit(events_mod.WORKER_LOST, worker=handle.worker_id,
                   reason=reason)
        if not self._workers:
            # Queued offers can no longer be granted; fail them so the
            # drive tasks fall back to local execution immediately
            # instead of waiting out their cost-scaled deadlines.
            self._fail_queued(LeaseRevoked("fleet has no workers"))

    # -- dispatch ------------------------------------------------------

    def offer(self, entry: Any, attempt: int, ordinal: int) -> Offer:
        """Queue one in-flight point for the next polling worker."""
        ttl = self.lease_ttl * scheduler.cost_scale(entry.point)
        offer = Offer(entry, attempt, ordinal, ttl,
                      asyncio.get_running_loop())
        while self._waiters:
            waiter, handle = self._waiters.popleft()
            if waiter.done() or not handle.conn.alive:
                continue
            waiter.set_result(self._grant(offer, handle))
            return offer
        self._offers.append(offer)
        return offer

    def _grant(self, offer: Offer, handle: WorkerHandle) -> Lease:
        lease = Lease(next(self._lease_ids), offer, handle, self._clock())
        offer.lease = lease
        self._leases[lease.lease_id] = lease
        handle.leases[lease.lease_id] = lease
        self.granted_total += 1
        self._emit(events_mod.LEASED, key=offer.entry.key,
                   worker=handle.worker_id, lease=lease.lease_id,
                   attempt=offer.attempt, ttl=round(offer.ttl, 3))
        return lease

    async def poll(self, handle: WorkerHandle,
                   window: float) -> Optional[Lease]:
        """Long-poll: hand ``handle`` the next offer, or None at timeout.

        Raises nothing on drain — the caller checks :attr:`draining`
        before and after and answers the worker accordingly.
        """
        handle.last_heartbeat = self._clock()
        if self._draining:
            return None
        while self._offers:
            offer = self._offers.popleft()
            if offer.cancelled or offer.future.done():
                continue
            return self._grant(offer, handle)
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        record = (waiter, handle)
        self._waiters.append(record)
        try:
            return await asyncio.wait_for(
                waiter, min(MAX_POLL_WINDOW, max(0.05, window)))
        except asyncio.TimeoutError:
            return None
        finally:
            try:
                self._waiters.remove(record)
            except ValueError:
                pass

    # -- lease lifecycle -----------------------------------------------

    def heartbeat(self, handle: WorkerHandle,
                  lease_ids: List[int]) -> None:
        """Renew the worker's liveness and its named leases' deadlines."""
        now = self._clock()
        handle.last_heartbeat = now
        for lease_id in lease_ids:
            lease = handle.leases.get(lease_id)
            if lease is not None:
                lease.deadline = now + lease.offer.ttl

    def started(self, handle: WorkerHandle, lease_id: int) -> bool:
        """The worker began computing; emits the ``started`` event."""
        lease = handle.leases.get(lease_id)
        if lease is None:
            return False
        lease.started_at = self._clock()
        lease.offer.entry.worker = handle.worker_id
        self._emit(events_mod.STARTED, key=lease.offer.entry.key,
                   worker=handle.worker_id, attempt=lease.offer.attempt)
        return True

    def complete(self, handle: WorkerHandle, lease_id: int,
                 payload: Dict[str, Any],
                 elapsed: Optional[float] = None) -> bool:
        """A worker shipped a result; returns whether it was accepted.

        A completion for a revoked (or unknown) lease is **stale**: the
        point has already been requeued and may already be answered, so
        the payload is dropped — the content-hash cache key guarantees
        the accepted copy is byte-identical anyway.
        """
        lease = self._leases.pop(lease_id, None)
        if lease is None or lease.worker is not handle:
            self.stale_completions += 1
            return False
        handle.leases.pop(lease_id, None)
        handle.completed += 1
        self.completed_total += 1
        offer = lease.offer
        if offer.cancelled or offer.future.done():
            self.stale_completions += 1
            return False
        offer.future.set_result((payload, handle.worker_id, elapsed))
        return True

    def fail(self, handle: WorkerHandle, lease_id: int, error: str,
             kind: str) -> bool:
        """A worker reported a failure; routes it to the drive task."""
        lease = self._leases.pop(lease_id, None)
        if lease is None or lease.worker is not handle:
            self.stale_completions += 1
            return False
        handle.leases.pop(lease_id, None)
        handle.failed += 1
        self.failed_total += 1
        offer = lease.offer
        if offer.cancelled or offer.future.done():
            return False
        offer.future.set_exception(RemotePointError(error, kind))
        return True

    def cancel(self, offer: Offer, reason: str = "cancelled") -> None:
        """The drive task gave up on this offer (timeout/cancellation).

        A queued offer is forgotten; a granted lease is removed so a
        late completion is counted stale instead of resolving a future
        nobody awaits.
        """
        offer.cancelled = True
        try:
            self._offers.remove(offer)
        except ValueError:
            pass
        lease = offer.lease
        if lease is not None and \
                self._leases.pop(lease.lease_id, None) is not None:
            lease.worker.leases.pop(lease.lease_id, None)
            lease.worker.requeued += 1
            self.requeued_total += 1

    def reap(self) -> List[Lease]:
        """Revoke every lease whose deadline passed; returns them.

        Called periodically by the server's reaper task.  An expired
        lease means the worker stopped heartbeating but its socket is
        still up — a wedged process or a half-dead host — so the point
        is requeued without waiting for TCP to notice.
        """
        now = self._clock()
        expired = [lease for lease in self._leases.values()
                   if now > lease.deadline]
        for lease in expired:
            self._revoke(
                lease,
                "lease %d expired (worker %s missed its heartbeat)" % (
                    lease.lease_id, lease.worker.worker_id))
        return expired

    def _revoke(self, lease: Lease, reason: str) -> None:
        self._leases.pop(lease.lease_id, None)
        lease.worker.leases.pop(lease.lease_id, None)
        lease.worker.requeued += 1
        self.requeued_total += 1
        offer = lease.offer
        if not offer.cancelled and not offer.future.done():
            offer.future.set_exception(LeaseRevoked(reason))

    def _fail_queued(self, exc: BaseException) -> None:
        while self._offers:
            offer = self._offers.popleft()
            if not offer.cancelled and not offer.future.done():
                offer.future.set_exception(exc)

    # -- drain ---------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop leasing: wake idle polls (they answer ``draining``).

        In-flight leases are left alone — the server's drain grace gives
        them a chance to complete; whatever survives the grace is failed
        by :meth:`fail_pending` on final teardown.
        """
        self._draining = True
        while self._waiters:
            waiter, _ = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
        self._fail_queued(LeaseRevoked("service draining"))

    def fail_pending(self, exc: BaseException) -> None:
        """Final teardown: fail queued offers and outstanding leases."""
        self._fail_queued(exc)
        for lease in list(self._leases.values()):
            self._leases.pop(lease.lease_id, None)
            lease.worker.leases.pop(lease.lease_id, None)
            offer = lease.offer
            if not offer.cancelled and not offer.future.done():
                offer.future.set_exception(exc)

    # -- introspection -------------------------------------------------

    def _emit(self, event: str, key: Optional[str] = None,
              **fields: Any) -> None:
        if self._hub is not None:
            self._hub.emit(event, key=key, **fields)

    def stats(self) -> Dict[str, Any]:
        """Fleet block of the service ``status`` reply: membership,
        live leases with heartbeat ages, and per-worker counters."""
        now = self._clock()
        workers = []
        for handle in self._workers.values():
            workers.append({
                "worker": handle.worker_id,
                "host": handle.info.get("host"),
                "pid": handle.info.get("pid"),
                "kinds": handle.info.get("kinds"),
                "cost_rate": handle.info.get("cost_rate"),
                "heartbeat_age": round(now - handle.last_heartbeat, 3),
                "leases": len(handle.leases),
                "completed": handle.completed,
                "requeued": handle.requeued,
                "failed": handle.failed,
            })
        leases = []
        for lease in self._leases.values():
            leases.append({
                "lease": lease.lease_id,
                "key": lease.offer.entry.key,
                "worker": lease.worker.worker_id,
                "age": round(now - lease.granted_at, 3),
                "ttl_remaining": round(lease.deadline - now, 3),
                "attempt": lease.offer.attempt,
            })
        return {
            "workers": workers,
            "leases": leases,
            "queued_offers": len(self._offers),
            "idle_polls": len(self._waiters),
            "lease_ttl": self.lease_ttl,
            "heartbeat_interval": self.heartbeat_interval,
            "min_workers": self.min_workers,
            "draining": self._draining,
            "granted_total": self.granted_total,
            "completed_total": self.completed_total,
            "requeued_total": self.requeued_total,
            "failed_total": self.failed_total,
            "stale_completions": self.stale_completions,
        }
