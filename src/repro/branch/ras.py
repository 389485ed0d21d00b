"""Return address stacks.

The paper models an *ideal* return address stack; a finite hardware stack
is provided too for ablations.
"""

from __future__ import annotations

from typing import List, Optional


class IdealReturnAddressStack:
    """An unbounded, never-corrupted RAS — the paper's model.

    Because it tracks calls/returns of the *fetched* (possibly wrong) path
    with unlimited depth, the only way it could mispredict is wrong-path
    corruption; the paper idealizes that away, and so do we by letting the
    core checkpoint and restore the stack pointer (here: full stack state).

    ``snapshot()`` is copy-on-write: the materialized tuple is cached and
    handed out again until the next push/pop dirties the stack, so a run
    of checkpoints between call/return instructions — the common case,
    since the core checkpoints every fetched branch — costs one tuple
    build instead of one per checkpoint.  The cache slot doubles as the
    version tag: ``None`` means "stack changed since last materialize".
    """

    def __init__(self):
        self._stack: List[int] = []
        self._snap: Optional[tuple] = ()  # cached snapshot; None when stale
        # When validation is armed, every snapshot() additionally checks
        # the copy-on-write cache against the live stack — a stale cache
        # would silently corrupt checkpoint/restore.  Bound per instance
        # so the off path keeps the bare method.
        from repro import validate
        if validate.armed():
            self.snapshot = self._snapshot_checked

    def push(self, return_address: int) -> None:
        self._stack.append(return_address)
        self._snap = None

    def pop(self) -> Optional[int]:
        stack = self._stack
        if stack:
            self._snap = None
            return stack.pop()
        return None

    def snapshot(self) -> tuple:
        snap = self._snap
        if snap is None:
            self._snap = snap = tuple(self._stack)
        return snap

    def _snapshot_checked(self) -> tuple:
        """:meth:`snapshot` plus the cache-coherence invariant."""
        snap = self._snap
        if snap is not None and snap != tuple(self._stack):
            from repro.validate.errors import InvariantError
            raise InvariantError(
                f"RAS snapshot cache is stale: cached {snap!r} vs live "
                f"{tuple(self._stack)!r}")
        return IdealReturnAddressStack.snapshot(self)

    def restore(self, snapshot: tuple) -> None:
        self._stack = list(snapshot)
        self._snap = snapshot if type(snapshot) is tuple else tuple(snapshot)

    def __len__(self) -> int:
        return len(self._stack)


class ReturnAddressStack(IdealReturnAddressStack):
    """A finite circular RAS that loses the oldest entries on overflow."""

    def __init__(self, depth: int = 32):
        super().__init__()
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth

    def push(self, return_address: int) -> None:
        stack = self._stack
        if len(stack) == self.depth:
            del stack[0]
        stack.append(return_address)
        self._snap = None
