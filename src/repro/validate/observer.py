"""Per-fetch observers for lockstep differential validation.

The front-end simulator exposes a single interception point — the
engine's ``fetch`` callable, which it asks the observer to wrap — and
every fetch (generic walk or compiled variant) passes through it
exactly once.  A :class:`FetchRecorder`
wraps the *reference* engine's fetch and records the signature of each
checked fetch plus periodic engine-state digests; a
:class:`FetchChecker` wraps the *fast* engine's fetch and compares
against the recording, raising
:class:`~repro.validate.errors.DivergenceError` at the first mismatch.

Because both runs consume the identical oracle stream, the two engines
see identical inputs up to the first divergence, so record-then-check
is observationally equivalent to a true side-by-side drive — and it
pinpoints the exact first mismatching fetch ordinal.

In ``sample`` mode only ordinals with ``(ordinal - offset) % stride ==
0`` are checked (offset is seeded from the grid point's content hash by
the runner), which bounds observer overhead for CI grids; digests are
additionally taken every :data:`DIGEST_PERIOD` fetches so silent state
skew is caught within one period even if no sampled signature differs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.validate import errors
from repro.validate.digests import engine_digest, fetch_signature

#: Engine-state digests are cross-checked every this-many fetches.
DIGEST_PERIOD = 2048


class FetchRecorder:
    """Records checked fetch signatures and periodic digests."""

    def __init__(self, stride: int = 1, offset: int = 0):
        self.engine = None
        self.stride = max(1, stride)
        self.offset = offset % self.stride
        self.ordinal = 0
        self.signatures: Dict[int, tuple] = {}
        self.digests: Dict[int, str] = {}

    def wrap(self, engine):
        """The instrumented fetch callable the simulator should drive."""
        self.engine = engine
        fetch = engine.fetch

        def observed(pc):
            result = fetch(pc)
            ordinal = self.ordinal
            self.ordinal = ordinal + 1
            if (ordinal - self.offset) % self.stride == 0:
                self.signatures[ordinal] = fetch_signature(pc, result)
            if ordinal % DIGEST_PERIOD == 0:
                self.digests[ordinal] = engine_digest(self.engine)
            return result
        return observed


class FetchChecker:
    """Checks a fast run against a :class:`FetchRecorder`'s recording."""

    def __init__(self, recorder: FetchRecorder):
        self.engine = None
        self.stride = recorder.stride
        self.offset = recorder.offset
        self.expected_signatures = recorder.signatures
        self.expected_digests = recorder.digests
        self.ordinal = 0
        self.checked = 0

    def _diverged(self, ordinal: int, what: str, expected, got,
                  injected: bool = False) -> errors.DivergenceError:
        exc = errors.DivergenceError(
            f"fast engine diverged from reference at fetch #{ordinal}: "
            f"{what} mismatch", fetch_index=ordinal, injected=injected)
        exc.expected = expected
        exc.got = got
        return exc

    def wrap(self, engine):
        """The instrumented fetch callable the simulator should drive."""
        self.engine = engine
        fetch = engine.fetch

        def observed(pc):
            result = fetch(pc)
            ordinal = self.ordinal
            self.ordinal = ordinal + 1
            if (ordinal - self.offset) % self.stride == 0:
                self.checked += 1
                if errors.consume_forced_divergence():
                    raise self._diverged(
                        ordinal, "injected", None, None, injected=True)
                got = fetch_signature(pc, result)
                expected = self.expected_signatures.get(ordinal)
                if got != expected:
                    raise self._diverged(ordinal, "fetch signature",
                                         expected, got)
            if ordinal % DIGEST_PERIOD == 0:
                got_digest = engine_digest(self.engine)
                expected_digest = self.expected_digests.get(ordinal)
                if got_digest != expected_digest:
                    raise self._diverged(ordinal, "engine state digest",
                                         expected_digest, got_digest)
            return result
        return observed

    def excess_fetches(self) -> Optional[errors.DivergenceError]:
        """A post-run check: did the fast run issue extra fetches?

        A desync that only *adds* fetches past the reference's count
        would otherwise surface as a confusing end-of-run stats diff.
        """
        recorded = len(self.expected_signatures)
        if self.stride == 1 and self.ordinal != recorded:
            return self._diverged(
                min(self.ordinal, recorded), "fetch count",
                recorded, self.ordinal)
        return None
