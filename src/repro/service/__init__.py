"""Resilient experiment service: an async grid front door.

This package turns the in-process experiment engine
(:mod:`repro.experiments.scheduler` and friends) into a long-lived
network service that many clients — sweep scripts, CI shards, notebook
sessions — can share without stepping on each other:

* :mod:`repro.service.protocol` — the line-delimited JSON wire format
  and the (de)serialization of grid points and results;
* :mod:`repro.service.coalesce` — machine-wide request coalescing:
  concurrent submissions of the same content-hashed point attach to one
  in-flight computation;
* :mod:`repro.service.server` — the asyncio server: admission control,
  per-point supervision, checkpoint journaling, SIGTERM drain;
* :mod:`repro.service.client` — the thin blocking client with
  overload-aware exponential backoff and progress-event streaming;
* :mod:`repro.service.fleet` — the worker-fleet registry: leases with
  cost-scaled heartbeat deadlines, revocation and requeue on worker
  loss, drain integration;
* :mod:`repro.service.worker` — the remote worker loop behind
  ``repro worker HOST:PORT``: register, long-poll, compute, heartbeat,
  reconnect with full-jitter backoff;
* :mod:`repro.service.events` — the per-point lifecycle event hub
  behind ``subscribe`` / :meth:`ServiceClient.events`.

Everything is standard library only — ``asyncio.start_server`` over
TCP, JSON on the wire — so the service (and its workers) run wherever
the simulator does.  :class:`CircuitBreaker` is re-exported from
:mod:`repro.experiments.breaker`, where the grid scheduler shares it.
"""

from repro.experiments.breaker import CircuitBreaker
from repro.service.client import (ServiceClient, ServiceError,
                                  ServiceOverloaded, ServicePointError,
                                  submit_with_retry)
from repro.service.events import EventHub
from repro.service.fleet import Fleet, LeaseRevoked, RemotePointError
from repro.service.protocol import (ProtocolError, point_from_dict,
                                    point_to_dict)
from repro.service.server import ExperimentService, ServiceThread, serve
from repro.service.worker import FleetWorker, run_worker

__all__ = [
    "CircuitBreaker",
    "EventHub",
    "ExperimentService",
    "Fleet",
    "FleetWorker",
    "LeaseRevoked",
    "RemotePointError",
    "ServiceThread",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServicePointError",
    "point_from_dict",
    "point_to_dict",
    "run_worker",
    "serve",
    "submit_with_retry",
]
