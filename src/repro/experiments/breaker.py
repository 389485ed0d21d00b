"""Circuit breaker: degrade from pooled to inline execution gracefully.

A breaker guards each non-floor route of the supervision policy's route
list (:func:`repro.experiments.faults.pick_route`).  Inline in-parent
execution is the floor and has no breaker, because injected faults (and
most real crash causes: OOM kills, a bad native extension) only live in
worker processes.

Standard three-state machine:

* ``CLOSED`` — healthy; the route is allowed.  Each break increments a
  strike counter; reaching the threshold trips to OPEN.  Any success on
  the route resets the counter (strikes measure *consecutive* breaks).
* ``OPEN`` — the route is refused; points fall through to the next
  route.  After ``cooldown`` seconds the next ask is allowed through as
  a probe and the state moves to HALF_OPEN.
* ``HALF_OPEN`` — exactly one probe in flight.  Success closes the
  breaker (full reset); another break re-opens it and restarts the
  cooldown clock.

A grid builds one per run with ``cooldown=math.inf`` and reports no
successes, so its third pool break finishes it serially; the service's
breakers live as long as it does and cool down.

Breakers are driven from one thread or event loop, so plain attributes
are race-free; time comes from an injectable monotonic clock so tests
can step it deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

#: States.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Default consecutive-break threshold (the scheduler's per-grid pool
#: breaker uses the same), so one grid's worth of crashes trips it.
DEFAULT_THRESHOLD = 3

#: Default seconds the breaker stays open before probing the pool again.
DEFAULT_COOLDOWN = 30.0


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed half-open probes."""

    def __init__(self, threshold: int = DEFAULT_THRESHOLD,
                 cooldown: float = DEFAULT_COOLDOWN,
                 clock: Callable[[], float] = time.monotonic,
                 name: str = "pool"):
        self.name = name
        self.threshold = max(1, threshold)
        self.cooldown = max(0.0, cooldown)
        self._clock = clock
        self._state = CLOSED
        self._strikes = 0
        self._opened_at = 0.0
        self._trips = 0

    @property
    def state(self) -> str:
        """Current state, with the OPEN -> HALF_OPEN timer folded in."""
        if self._state == OPEN and \
                self._clock() - self._opened_at >= self.cooldown:
            return HALF_OPEN
        return self._state

    @property
    def strikes(self) -> int:
        """Breaks counted since the last success."""
        return self._strikes

    def allow_pool(self) -> bool:
        """May the next point use the process pool?

        In OPEN the answer is no until the cooldown elapses; the first
        ask after that is the half-open probe and answers yes (further
        asks also answer yes — the caller runs one point at a time per
        drive task, and a few extra probes are harmless because every
        outcome is reported back).
        """
        state = self.state
        if state == HALF_OPEN and self._state == OPEN:
            self._state = HALF_OPEN
        return state != OPEN

    def record_success(self) -> None:
        """A pooled point completed: reset to CLOSED."""
        self._state = CLOSED
        self._strikes = 0

    def record_break(self) -> None:
        """A pool broke (crashed worker, killed hang): count a strike."""
        if self._state == HALF_OPEN:
            self._state = OPEN  # failed probe: restart the cooldown
            self._opened_at = self._clock()
            self._trips += 1
            return
        self._strikes += 1
        if self._strikes >= self.threshold and self._state == CLOSED:
            self._state = OPEN
            self._opened_at = self._clock()
            self._trips += 1

    def stats(self) -> Dict[str, object]:
        """Introspection snapshot for the service ``status`` reply."""
        return {
            "name": self.name,
            "state": self.state,
            "strikes": self._strikes,
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "trips": self._trips,
        }
