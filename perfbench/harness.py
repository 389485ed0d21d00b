"""Measurement helpers shared by the benchmark and its digest script.

Nothing here imports the simulator at module level: ``run.py`` pins the
``REPRO_*`` environment before the first ``repro`` import, and the
helper tests import this module without the package configured.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10

#: Seconds :func:`calibration_loop` takes on the host the benchmark was
#: tuned on (a 2-vCPU x86-64 virtual machine, Xeon at 2.1 GHz, CPython
#: 3.11) while no neighbour slows it.  Timings are scaled to that speed.
REFERENCE_LOOP_S = 0.008


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, sample_count)``: the value is the
    (TAIL_BEYOND + 1)-th largest sample, so exactly TAIL_BEYOND samples
    lie above it, and the percentile is the share at or below it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def calibration_loop() -> float:
    """Host seconds of one fixed pure-Python loop.

    Integer arithmetic and dict stores, no simulator code: a change to
    the program cannot change it, while a busy neighbour on the shared
    host slows it as much as it slows the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    table = {}
    for i in range(30_000):
        table[i * 7919 % 100_003] = i
    return time.perf_counter() - start


class ScaledClock:
    """Host time of a piece of work, and the host's speed while it ran.

    The work is timed in laps.  Between laps, outside them, the clock
    reads :func:`calibration_loop`.  The mean reading over the piece,
    each lap weighting the two readings around it by its length, says
    how slow the host was; the piece's reference-host time is its host
    time times ``REFERENCE_LOOP_S`` over that mean.  On a shared host,
    busy neighbours slow everything by up to 1.9x in spells of seconds
    to minutes, and most of a spell cancels.
    """

    def __init__(self, loop: Callable[[], float] = calibration_loop):
        self.loop = loop
        self.raw = 0.0
        self._weighted = self._reading = self._split = self._mark = 0.0

    def start(self) -> None:
        self._reading = self.loop()
        self.raw = self._weighted = self._split = 0.0
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """Close the current lap, read the loop, open the next lap."""
        seconds = time.perf_counter() - self._mark
        reading = self.loop()
        self.raw += seconds
        self._weighted += seconds * (self._reading + reading) / 2.0
        self._reading = reading
        self._mark = time.perf_counter()

    def split(self) -> float:
        """Close the current lap; returns the host seconds since the
        previous split (or the start)."""
        self.lap()
        seconds = self.raw - self._split
        self._split = self.raw
        return seconds

    def factor(self) -> float:
        """Reference-host seconds per host second over the laps so far."""
        return REFERENCE_LOOP_S * self.raw / self._weighted


def digest(payload: Dict) -> str:
    """sha256 of a result payload in the cache's canonical JSON form."""
    from repro.experiments.cachekey import canonical_json
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class DigestBook:
    """Per-point reference results, produced from the frozen reference stack.

    ``point_id`` names one grid point as ``kind/benchmark/config``.  Each
    entry holds the result payload, its digest and the point's run
    length, so a run at another scale fails loudly instead of comparing
    unrelated results.
    """

    def __init__(self, path: Path):
        self.points: Dict[str, Dict] = json.loads(
            Path(path).read_text())["points"]

    def length(self, point_id: str) -> int:
        return self.points[point_id]["n"]

    def payload(self, point_id: str) -> Dict:
        return self.points[point_id]["payload"]

    def matches(self, point_id: str, payload: Dict) -> bool:
        """Does this result payload hash to the reference digest?"""
        entry = self.points.get(point_id)
        return entry is not None and digest(payload) == entry["digest"]


def thread_snapshot() -> set:
    """The threads alive now; pass to :func:`leftovers` after a run."""
    return set(threading.enumerate())


def leftovers(before: set) -> List[str]:
    """Child processes still alive, and threads started since ``before``.

    An empty list means the run shut down everything it started.
    """
    found = [f"process {child.name} pid={child.pid}"
             for child in multiprocessing.active_children()]
    found += [f"thread {thread.name}" for thread in threading.enumerate()
              if thread not in before and thread.is_alive()]
    return found


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
