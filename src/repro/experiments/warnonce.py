"""One-shot warnings with centrally resettable state.

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
"""

from __future__ import annotations

import warnings
from typing import Iterable, Tuple

_emitted: set = set()


def warn_once(key: str, message: str, category=RuntimeWarning,
              stacklevel: int = 2) -> bool:
    """Emit ``message`` unless ``key`` has already warned; returns whether
    the warning fired."""
    if key in _emitted:
        return False
    _emitted.add(key)
    warnings.warn(message, category, stacklevel=stacklevel + 1)
    return True


def reset() -> None:
    """Forget every emitted key (each warning may fire again)."""
    _emitted.clear()


def snapshot() -> Tuple[str, ...]:
    """The emitted keys, picklable for a pool-worker initializer."""
    return tuple(sorted(_emitted))


def seed(keys: Iterable[str]) -> None:
    """Mark ``keys`` as already emitted (worker-side of :func:`snapshot`)."""
    _emitted.update(keys)
