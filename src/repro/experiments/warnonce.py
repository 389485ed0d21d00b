"""One-shot warnings with centrally resettable, optionally shared state.

Several experiment-layer knobs warn when their environment variable is
unparseable (``REPRO_SCALE``, ``REPRO_JOBS``).  Each used to carry its
own module-global "already warned" flag, which meant every new knob
re-invented the guard, tests had to know about every flag to reset them,
and pool workers re-emitted the same warning once per process.  This
module centralizes the state:

* :func:`warn_once` emits a warning the first time a key is seen;
* :func:`reset` clears everything (the test suite calls it between
  tests so ``pytest.warns`` assertions see a fresh state);
* :func:`snapshot` / :func:`seed` serialize the emitted-key set across
  process boundaries, so the experiment scheduler can tell its workers
  "the parent already warned about these" and a parallel grid prints
  each diagnostic once, not once per worker.

The snapshot/seed handoff only covers warnings the parent had already
emitted when the pool started.  For conditions that *arise* mid-run in
workers — one condition that several workers discover at once —
``warn_once(..., shared=True)`` additionally takes a cross-process
latch: a marker file under ``$REPRO_CACHE_DIR/warned/`` claimed with an
exclusive create, so exactly one process in the whole tree emits the
warning.  The latch is best-effort: if the cache directory is not
writable the warning degrades to once-per-process, never to silence.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from typing import Iterable, Tuple

_emitted: set = set()

_MARKER_SUFFIX = ".warned"


def _marker_dir():
    """Cross-process latch directory (beside the result cache)."""
    from repro.experiments import diskcache

    return diskcache.cache_dir() / "warned"


def _claim_shared(key: str) -> bool:
    """Try to claim the cross-process latch for ``key``.

    Returns True when this process won the claim (or the latch is
    unusable — better to warn per-process than not at all); False when
    another process already holds it.
    """
    directory = _marker_dir()
    name = hashlib.sha256(key.encode()).hexdigest() + _MARKER_SUFFIX
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd = os.open(directory / name, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return True
    os.close(fd)
    return True


def warn_once(key: str, message: str, category=RuntimeWarning,
              stacklevel: int = 2, shared: bool = False) -> bool:
    """Emit ``message`` unless ``key`` has already warned; returns whether
    the warning fired.

    With ``shared=True`` the "already warned" state also spans
    processes (via a marker file beside the result cache), so a pool of
    workers that all trip over the same condition produce one warning
    machine-wide instead of one per worker.
    """
    if key in _emitted:
        return False
    _emitted.add(key)
    if shared and not _claim_shared(key):
        return False
    warnings.warn(message, category, stacklevel=stacklevel + 1)
    return True


def reset() -> None:
    """Forget every emitted key (each warning may fire again).

    Also clears the cross-process marker files, so tests that point
    ``REPRO_CACHE_DIR`` somewhere persistent still see shared warnings
    re-fire after a reset.
    """
    _emitted.clear()
    try:
        directory = _marker_dir()
        if directory.is_dir():
            for path in directory.glob(f"*{_MARKER_SUFFIX}"):
                try:
                    path.unlink()
                except OSError:
                    pass
    except OSError:
        pass


def snapshot() -> Tuple[str, ...]:
    """The emitted keys, picklable for a pool-worker initializer."""
    return tuple(sorted(_emitted))


def seed(keys: Iterable[str]) -> None:
    """Mark ``keys`` as already emitted (worker-side of :func:`snapshot`)."""
    _emitted.update(keys)
