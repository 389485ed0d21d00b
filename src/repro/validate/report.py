"""Self-contained divergence reports, written on first mismatch.

A divergence that kills a 40-minute grid with a bare assertion is
useless to whoever has to debug it.  When the lockstep guard detects a
mismatch it writes one JSON file under
``$REPRO_CACHE_DIR/divergences/`` carrying everything needed to
reproduce it from scratch in a fresh checkout: the benchmark, the full
type-tagged configuration, the run length, the first mismatching fetch
ordinal, both fetch signatures (expected vs got), whether the fault was
injected by the chaos harness, the source fingerprint the divergence
was observed under, and a *minimized* replay length — just enough
oracle stream to reach the mismatch plus slack, so the replay is
seconds even when the original run was minutes.

``python -m repro validate-replay <report.json>`` re-runs the lockstep
comparison from the report alone and exits nonzero iff the divergence
still reproduces.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments import diskcache, warnonce
from repro.experiments.cachekey import (
    canonical_json,
    code_fingerprint,
    config_from_dict,
    config_to_dict,
)
from repro.validate.digests import describe_signature
from repro.validate.errors import DivergenceError

#: Report payload layout version.
REPORT_VERSION = 1

#: Oracle slack appended to the minimized replay window: enough stream
#: past the mismatching fetch that the divergent fetch itself (at most
#: 16 instructions) completes and retires.
_REPLAY_SLACK = 64


def divergence_dir() -> Path:
    """Reports live beside the result cache, under ``divergences/``."""
    return diskcache.cache_dir() / "divergences"


def _render_state(value) -> Any:
    """JSON-safe rendering of an expected/got value.

    Fetch signatures become structured dicts; digests pass through;
    anything else degrades to ``repr``.
    """
    if value is None:
        return None
    if isinstance(value, tuple) and len(value) == 10:
        try:
            return describe_signature(value)
        except Exception:
            return repr(value)
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def minimized_length(n: int, fetch_index: int) -> int:
    """The shortest oracle window that still reaches the mismatch.

    A fetch delivers at most 16 instructions, so ``fetch_index + 1``
    fetches consume at most ``16 * (fetch_index + 1)`` oracle entries;
    the slack keeps the divergent fetch itself inside the window.
    """
    if fetch_index < 0:
        return n
    return min(n, 16 * (fetch_index + 1) + _REPLAY_SLACK)


def write_report(*, kind: str, benchmark: str, config, n: int,
                 exc: DivergenceError, mode: str, stride: int = 1,
                 offset: int = 0, warmup: Optional[bool] = None,
                 warmup_n: Optional[int] = None) -> Optional[Path]:
    """Persist one divergence report; returns its path (None on failure).

    Writing is atomic (temp + rename) and failure-tolerant: a full disk
    must not mask the divergence itself — the caller still raises.
    """
    payload: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "kind": kind,
        "benchmark": benchmark,
        "config": config_to_dict(config),
        "n": n,
        "mode": mode,
        "stride": stride,
        "offset": offset,
        "fetch_index": exc.fetch_index,
        "injected": exc.injected,
        "message": exc.message,
        "expected": _render_state(exc.expected),
        "got": _render_state(exc.got),
        "repro_n": minimized_length(n, exc.fetch_index) if kind == "frontend" else n,
        "warmup": warmup,
        "warmup_n": warmup_n,
        "code": code_fingerprint(),
        "replay": "python -m repro validate-replay <this file>",
    }
    identity = hashlib.sha256(canonical_json({
        "kind": kind, "benchmark": benchmark,
        "config": payload["config"], "n": n,
        "fetch_index": exc.fetch_index, "injected": exc.injected,
        "code": payload["code"],
    }).encode()).hexdigest()[:16]
    directory = divergence_dir()
    path = directory / f"div-{benchmark}-{identity}.json"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except OSError:
        warnonce.warn_once(
            "divergence-report-write",
            f"cannot write divergence report under {directory}; "
            "the divergence itself is still raised")
        return None
    return path


def load_report(path) -> Dict[str, Any]:
    """Parse one report file; raises ``ValueError`` on a malformed one."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("version") != REPORT_VERSION:
        raise ValueError(f"not a version-{REPORT_VERSION} divergence report: {path}")
    return payload


def replay_report(path) -> Optional[DivergenceError]:
    """Re-run the lockstep comparison a report describes.

    Returns the fresh :class:`DivergenceError` when the divergence
    still reproduces, or None when the run is clean (e.g. the original
    was injected by the chaos harness, or the bug has been fixed).
    """
    payload = load_report(path)
    from repro.validate.lockstep import lockstep
    try:
        lockstep(payload["kind"], payload["benchmark"],
                 config_from_dict(payload["config"]), payload["repro_n"],
                 warmup=payload.get("warmup") is not False,
                 warmup_n=payload.get("warmup_n"), report=False)
    except DivergenceError as exc:
        return exc
    return None
