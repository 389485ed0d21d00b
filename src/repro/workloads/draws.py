"""Scalar draws from a numpy PCG64 ``Generator``, served in Python.

Generating the fifteen benchmark programs makes about 370,000 scalar draws
(``integers(lo, hi)``, ``random()``, ``uniform(a, b)``) and about 930
array draws (``choice(..., replace=False)``, ``integers(size=)``).  A
scalar call into numpy costs 0.6-2.6 µs, almost all of it argument
handling and locking; the arithmetic behind it is a few integer
operations on the bit generator's raw 64-bit output.  :class:`Draws`
does that arithmetic in Python on raw words it reads from PCG64 in
batches, and hands every other call to the wrapped ``Generator`` after
putting the bit generator exactly where the scalar draws left it.
Values and the bit generator's final state are the ones the
``Generator`` itself would produce.

The numpy internals this relies on (``tests/test_generator_internals.py``
checks each against the installed numpy):

* ``BitGenerator.random_raw(n)`` returns the next ``n`` PCG64 outputs, and
  ``PCG64.advance(k)`` skips ``k`` of them and clears the uint32 buffer;
* a 32-bit draw returns the low half of a fresh raw word and keeps the
  high half in the state's ``has_uint32``/``uinteger`` buffer for the next
  32-bit draw; 64-bit draws bypass that buffer;
* ``integers(lo, hi)`` with ``hi - lo <= 2**32`` draws
  ``lo + Lemire(hi - lo)`` on 32-bit draws (one unrejected draw when
  ``hi - lo`` is ``2**32``, none when it is 1);
* ``random()`` is ``(raw >> 11) * 2**-53`` and ``uniform(a, b)`` is
  ``a + (b - a) * random()``.
"""

from __future__ import annotations

import numpy as np

#: Raw words read from the bit generator at a time.
_BATCH = 256

_MASK32 = 0xFFFFFFFF
_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63
_TWO_M53 = 1.0 / 9007199254740992.0
_INF = float("inf")
_INT64 = np.int64
_FLOAT64 = np.float64


class Draws:
    """A PCG64 ``numpy.random.Generator`` whose scalar draws run in Python.

    ``integers(lo, hi)`` with two Python ints at most 2**32 apart,
    ``random()`` and ``uniform(a, b)`` are served here and return Python
    numbers; :meth:`below` is ``integers(0, n)``.  Any other call (an
    array draw, ``choice``, ``shuffle`` ...) goes to the ``Generator``
    with the state synced before and after.  Draw only through this
    object once it wraps a generator.
    """

    def __init__(self, generator: np.random.Generator):
        if not isinstance(generator.bit_generator, np.random.PCG64):
            raise TypeError("Draws serves PCG64 generators only")
        self.generator = generator
        self._bitgen = generator.bit_generator
        self._sync_in()

    # --------------------------------------------------------- state sync
    #
    # Between syncs the bit generator sits ``_fetched`` raw words past
    # ``_base``, the state read at the last sync; ``_raw`` holds the words
    # of the current batch not handed out yet, last first, and
    # ``_has32``/``_u32`` mirror the state's uint32 buffer.

    def _sync_in(self) -> None:
        """Adopt the bit generator's state as this stream's position."""
        state = self._bitgen.state
        self._base = state
        self._fetched = 0
        self._raw = []
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]

    def _sync_out(self) -> None:
        """Move the bit generator to this stream's position.

        A :meth:`_sync_in` must follow before the next scalar draw.
        """
        base = self._base
        if not self._fetched:
            if self._has32 != base["has_uint32"]:  # only the buffer moved
                self._bitgen.state = dict(base, has_uint32=self._has32, uinteger=self._u32)
            return
        bitgen = self._bitgen
        bitgen.state = base
        bitgen.advance(self._fetched - len(self._raw))
        if self._has32 or self._u32:  # advance() cleared the buffer
            bitgen.state = dict(bitgen.state, has_uint32=self._has32, uinteger=self._u32)

    def _refill(self) -> int:
        """Read a batch of raw words; returns the first."""
        words = self._bitgen.random_raw(_BATCH).tolist()
        words.reverse()
        self._raw = words
        self._fetched += _BATCH
        return words.pop()

    def __getattr__(self, name):
        if name.startswith("_"):  # private names and protocols stay ours
            raise AttributeError(name)
        attr = getattr(self.generator, name)
        if not callable(attr):
            return attr

        def synced(*args, **kwargs):
            self._sync_out()
            try:
                return attr(*args, **kwargs)
            finally:
                self._sync_in()

        return synced

    @property
    def bit_generator(self) -> np.random.PCG64:
        """The bit generator, moved to this stream's position."""
        self._sync_out()
        self._sync_in()
        return self._bitgen

    # ------------------------------------------------------- scalar draws

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        try:
            word = self._raw.pop()
        except IndexError:
            word = self._refill()
        self._has32 = 1
        self._u32 = word >> 32
        return word & _MASK32

    def below(self, n: int) -> int:
        """``integers(0, n)`` for ``1 <= n <= 2**32``, by Lemire's method."""
        if n > _MASK32:  # 2**32 values: one plain 32-bit draw
            if n != _MASK32 + 1:
                raise ValueError(f"below({n}): at most 2**32 values")
            return self._next32()
        if n == 1:
            return 0
        if self._has32:  # _next32, inlined: this is the hot draw
            self._has32 = 0
            m = self._u32 * n
        else:
            try:
                word = self._raw.pop()
            except IndexError:
                word = self._refill()
            self._has32 = 1
            self._u32 = word >> 32
            m = (word & _MASK32) * n
        if (m & _MASK32) < n:
            threshold = (_MASK32 + 1 - n) % n
            while (m & _MASK32) < threshold:
                m = self._next32() * n
        return m >> 32

    def integers(self, low, high=None, size=None, dtype=_INT64, endpoint=False):
        """``Generator.integers``; a Python int for int bounds at most 2**32 apart."""
        if (size is None and type(low) is int and type(high) is int and dtype is _INT64
                and not endpoint and low < high <= low + _MASK32 + 1
                and _INT64_MIN <= low and high <= _INT64_END):
            return low + self.below(high - low)
        return self.__getattr__("integers")(low, high, size, dtype, endpoint)

    def random(self, size=None, dtype=_FLOAT64, out=None):
        """``Generator.random``; a Python float for one draw."""
        if size is None and dtype is _FLOAT64 and out is None:
            try:
                word = self._raw.pop()
            except IndexError:
                word = self._refill()
            return (word >> 11) * _TWO_M53
        return self.__getattr__("random")(size, dtype, out)

    def uniform(self, low=0.0, high=1.0, size=None):
        """``Generator.uniform``; a Python float for two scalar bounds."""
        if size is None and type(low) in (float, int) and type(high) in (float, int):
            start = float(low)
            span = float(high) - start
            if 0.0 <= span < _INF:
                return start + span * self.random()
        return self.__getattr__("uniform")(low, high, size)
