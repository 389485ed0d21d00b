"""The compiled front-end state of one program, shared by its fast engines.

Everything the fast front end derives from the program and its static
configuration alone lives here rather than in an engine, so every fast
engine built for the program reads and extends the same copy:

* the icache block walks, per ``l1i_line_bytes``;
* the :func:`~repro.frontend.fetch.compile_block` variants, per engine
  class and ``l1i_line_bytes``;
* the fill-event slots ``(inst, direction, promoted)``, one object for
  every compiled variant that retires the instruction that way;
* the fill unit's segment memo, per ``inactive_issue`` and whether
  segment validation is armed (the segments carry their compiled fetch
  variants, which depend on the first, and were validated or not), and
  one fill-unit state graph per packing policy under each memo.

An engine keeps only what a run changes: predictor, cache and bias-table
contents, speculative state, and the trace engine's candidate memo.

There is one store per thread, for the program its latest engine was
built for; building an engine for another program replaces it, and
:func:`drop_program_store` lets it go before that (the runner calls it
before generating a program, the serial scheduler after a program's
last point in a grid).  Threads never share a store, so two threads can
run one program at once.  :func:`live_stores` lists every store still
referenced, by a thread or by a live engine, for
:func:`repro.frontend.build.reset_compiled_state`.

The store's object graph is acyclic like the engines' (see MODEL.md §8),
so a dropped store dies by refcount.
"""

from __future__ import annotations

import threading
import weakref
from typing import List, Tuple

from repro.isa.program import Program
from repro.trace.fill_unit import StateGraph

_local = threading.local()
_live: "weakref.WeakSet[ProgramStore]" = weakref.WeakSet()


class ProgramStore:
    """One program's compiled front-end state (see the module docstring)."""

    __slots__ = ("program", "walks", "blocks", "slots", "fill", "__weakref__")

    def __init__(self, program: Program):
        self.program = program
        #: l1i_line_bytes -> {pc: (block, line breaks)}
        self.walks: dict = {}
        #: (engine class, l1i_line_bytes) -> {pc: (variants, cut variants)}
        self.blocks: dict = {}
        #: addr -> the instruction's fill slots (``fetch._fill_slots``)
        self.slots: dict = {}
        #: (inactive_issue, validate) -> (segment memo, {policy: StateGraph})
        self.fill: dict = {}

    def walks_for(self, line_bytes: int) -> dict:
        """The block walks for one icache line size."""
        return self.walks.setdefault(line_bytes, {})

    def blocks_for(self, engine_cls: type, line_bytes: int) -> dict:
        """The compiled block variants of one engine class and line size."""
        return self.blocks.setdefault((engine_cls, line_bytes), {})

    def fill_for(self, inactive_issue: bool, validate: bool,
                 policy) -> Tuple[dict, StateGraph]:
        """The segment memo and state graph a fill unit shares."""
        memo, graphs = self.fill.setdefault((inactive_issue, validate),
                                            ({}, {}))
        graph = graphs.get(policy)
        if graph is None:
            graph = graphs[policy] = StateGraph()
        return memo, graph

    def clear(self) -> None:
        """Empty every table in place: engines holding them see the same."""
        for table in self.walks.values():
            table.clear()
        for table in self.blocks.values():
            table.clear()
        self.slots.clear()
        for memo, graphs in self.fill.values():
            memo.clear()
            for graph in graphs.values():
                graph.clear()


def program_store(program: Program) -> ProgramStore:
    """This thread's store for ``program``, replacing one for another."""
    store = getattr(_local, "store", None)
    if store is None or store.program is not program:
        store = _local.store = ProgramStore(program)
        _live.add(store)
    return store


def drop_program_store() -> None:
    """Let go of this thread's store (engines still alive keep theirs)."""
    _local.store = None


def live_stores() -> List[ProgramStore]:
    """Every store a thread or a live engine still holds."""
    return list(_live)
