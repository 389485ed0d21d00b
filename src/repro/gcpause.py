"""One pause of Python's cyclic garbage collector per unit of work.

The simulators build no reference cycles: every engine, compiled fetch
variant and fill-unit state graph dies by refcount the moment its owner
drops it (``tests/test_gc_hygiene.py`` enforces this).  The cyclic
collector therefore has nothing to free inside a simulation, but its
generation-0 threshold still fires every few hundred allocations and
re-walks the long-lived programs, oracles and caches for nothing.

:func:`gc_paused` switches it off for the duration of a ``with`` block.
Pauses nest and may overlap across threads (the service runs points on
executor threads beside its event loop): a depth count under a lock
disables the collector on the outermost entry and restores the state
found there when the last holder leaves, also when the block raises.
The scheduler wraps each unit of work in one pause
(:func:`repro.experiments.scheduler._run_point`); ``FrontEndSimulator.run``
and ``Machine.run`` take their own for callers that drive them directly.
"""

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_restore = False


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic GC for the block; re-entrant and thread-safe."""
    global _depth, _restore
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore:
                gc.enable()
