"""Wire protocol of the experiment service: line-delimited JSON.

Every message — request or response — is one JSON object on one
``\\n``-terminated line, so the protocol needs no length prefixes, is
trivially debuggable with ``nc``, and framing survives any JSON value
(the encoder never emits raw newlines).  Requests carry a caller-chosen
``id`` that the matching response echoes back, which lets a client
pipeline many requests over one connection and demultiplex the replies
in whatever order the server finishes them.

Requests (``op`` selects the verb):

* ``{"id": .., "op": "submit", "points": [..], "deadline": ..?}`` —
  run a grid; ``points`` are :func:`point_to_dict` objects and the
  optional ``deadline`` is a wall-clock budget in seconds.
* ``{"id": .., "op": "status"}`` — queue depths, cache and coalescing
  counters, breaker state.
* ``{"id": .., "op": "ping"}`` — liveness probe.
* ``{"id": .., "op": "drain"}`` — begin graceful drain (what SIGTERM
  triggers); mainly for tests and orchestration glue.
* ``{"id": .., "op": "subscribe", "keys": [..]?}`` — open a progress
  event feed on this connection (optionally filtered to point keys).
  The ``subscribed`` ack echoes the id; thereafter every event arrives
  as ``{"id": <same id>, "type": "event", "data": {..}}`` until an
  ``unsubscribe`` op (``"subscription": <id>``) or disconnect.

Fleet worker verbs (sent by ``repro worker`` processes):

* ``{"id": .., "op": "worker-register", "name", "host", "pid",
  "kinds", "cost_rate"?}`` — join the fleet; the ``registered`` ack
  carries the server-chosen ``heartbeat`` interval and base
  ``lease_ttl``.
* ``{"id": .., "op": "worker-poll", "window": ..}`` — long-poll for
  work; answered with ``lease`` (the point, its lease id, TTL and
  pinned engine), ``idle`` (window elapsed empty) or ``draining``.
* ``{"op": "worker-heartbeat", "leases": [..]}`` /
  ``{"op": "worker-started", "lease": ..}`` — one-way notifications
  (no id, no reply): deadline renewal and compute-start marking.
* ``{"id": .., "op": "worker-complete", "lease", "key", "payload",
  "elapsed"}`` / ``{"id": .., "op": "worker-fail", "lease", "key",
  "error", "failure"}`` — ship the outcome; the ack's ``accepted``
  flag is False for a stale (already-revoked) lease, which the worker
  treats as "the server moved on" and simply polls again.

Responses (``type`` selects the shape): ``done`` carries one entry per
submitted point in submission order — ``{"key", "kind", "status":
"ok"|"error", ...}`` with a serialized result payload on ``ok`` and an
``{"error", "retryable"}`` pair otherwise; ``rejected`` is the explicit
admission-control answer (``reason`` ∈ ``overloaded`` / ``draining`` /
``client-backlog``, plus a ``retry_after`` hint in seconds); ``status``
/ ``pong`` / ``error`` are what they sound like.

Nothing here imports asyncio — the same functions serve the blocking
client and the async server.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.experiments.cachekey import config_from_dict, config_to_dict
from repro.experiments.diskcache import StoredPayload
from repro.experiments.scheduler import FRONTEND, MACHINE, GridPoint
from repro.experiments.serialize import (
    frontend_result_from_dict,
    frontend_result_to_dict,
    machine_result_from_dict,
    machine_result_to_dict,
)

#: Protocol revision, carried on every message so a future incompatible
#: change can be detected instead of misparsed.
PROTOCOL_VERSION = 1

#: Hard cap on one wire line.  A machine-result payload is a few KB;
#: 8 MiB leaves three orders of magnitude of headroom while bounding
#: what a broken or hostile peer can make either side buffer.
MAX_LINE = 8 * 1024 * 1024

#: ``rejected`` reasons.
OVERLOADED = "overloaded"
DRAINING = "draining"
CLIENT_BACKLOG = "client-backlog"


class ProtocolError(ValueError):
    """A malformed, oversized or unparseable protocol message."""


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _object(obj: Dict[str, Any], text: Callable[[str, Any], str]) -> str:
    """``_dumps(obj)`` for a str-keyed dict, each value as ``text(key, value)``."""
    return "{" + ",".join(_dumps(key) + ":" + text(key, obj[key])
                          for key in sorted(obj)) + "}"


def _stored(entry: Any) -> bool:
    """Is this a ``done`` result entry carrying a disk hit's payload?"""
    return isinstance(entry, dict) and isinstance(entry.get("payload"),
                                                  StoredPayload)


def _result_entry(entry: Any) -> str:
    """``_dumps(entry)``, with a stored payload put in as its own text."""
    if not _stored(entry):
        return _dumps(entry)
    return _object(entry, lambda key, value: value.text
                   if key == "payload" else _dumps(value))


def encode(message: Dict[str, Any]) -> bytes:
    """One message -> one newline-terminated UTF-8 JSON line.

    The line is ``json.dumps(message, sort_keys=True, separators=(",",
    ":"))``.  In a ``done`` reply, a disk hit's
    :class:`~repro.experiments.diskcache.StoredPayload` is already in
    that encoding, so its stored text is spliced in instead of encoding
    the payload again.
    """
    results = message.get("results")
    if isinstance(results, list) and any(map(_stored, results)):
        line = _object(message, lambda key, value: "[" + ",".join(
            map(_result_entry, value)) + "]" if key == "results"
            else _dumps(value))
    else:
        line = _dumps(message)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE:
        raise ProtocolError(f"message of {len(data)} bytes exceeds the "
                            f"{MAX_LINE}-byte line limit")
    return data


def decode(line: bytes) -> Dict[str, Any]:
    """One wire line -> message dict; raises :class:`ProtocolError`."""
    if len(line) > MAX_LINE:
        raise ProtocolError("oversized protocol line")
    try:
        message = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("protocol message is not a JSON object")
    return message


def point_to_dict(point: GridPoint) -> Dict[str, Any]:
    """Serialize a grid point for the wire (configs are type-tagged)."""
    return {
        "kind": point.kind,
        "benchmark": point.benchmark,
        "config": config_to_dict(point.config),
        "n": point.n,
        "warmup": point.warmup,
    }


def point_from_dict(data: Dict[str, Any]) -> GridPoint:
    """Inverse of :func:`point_to_dict`; raises :class:`ProtocolError`."""
    if not isinstance(data, dict):
        raise ProtocolError("grid point is not a JSON object")
    kind = data.get("kind")
    benchmark = data.get("benchmark")
    config = data.get("config")
    n = data.get("n")
    warmup = data.get("warmup", True)
    if kind not in (FRONTEND, MACHINE):
        raise ProtocolError(f"unknown grid point kind: {kind!r}")
    if not isinstance(benchmark, str) or not benchmark:
        raise ProtocolError(f"bad benchmark: {benchmark!r}")
    if n is not None and (not isinstance(n, int) or n <= 0):
        raise ProtocolError(f"bad run length: {n!r}")
    if not isinstance(warmup, bool):
        raise ProtocolError(f"bad warmup flag: {warmup!r}")
    if not isinstance(config, dict):
        raise ProtocolError("grid point has no config object")
    try:
        built = config_from_dict(config)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config: {exc}") from None
    return GridPoint(kind=kind, benchmark=benchmark, config=built,
                     n=n, warmup=warmup)


def result_to_payload(kind: str, result: Any) -> Dict[str, Any]:
    """Serialize one computed result by its point kind."""
    if kind == FRONTEND:
        return frontend_result_to_dict(result)
    return machine_result_to_dict(result)


def result_from_payload(kind: str, payload: Dict[str, Any]) -> Any:
    """Rebuild a result object from its wire payload."""
    if kind == FRONTEND:
        return frontend_result_from_dict(payload)
    return machine_result_from_dict(payload)


def parse_deadline(value: Any) -> Optional[float]:
    """Validate an optional submit deadline (seconds, positive)."""
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0:
        raise ProtocolError(f"bad deadline: {value!r}")
    return float(value)
