"""Factory: build a fetch engine (and its substrates) from a config.

Two complete front-end stacks can be wired:

* the **fast** stack (default) — the array-backed predictors and
  compiled-fetch-plan engines in :mod:`repro.branch` /
  :mod:`repro.frontend.fetch` / :mod:`repro.trace.fill_unit`;
* the **reference** stack (``REPRO_ENGINE=reference``) — the frozen seed
  copies in :mod:`repro.branch.reference`,
  :mod:`repro.frontend.fetch_reference` and
  :mod:`repro.trace.fill_unit_reference`.

Both produce byte-identical simulation results (pinned by
``tests/test_frontend_parity.py`` and ``benchmarks/bench_frontend_fetch``);
the reference stack exists as the known-good contract the fast one is
measured and verified against.  Its modules are imported only when a
``fast=False`` build asks for them, so a process that never checks
against the reference never loads it.
"""

from __future__ import annotations

import weakref
from dataclasses import replace
from typing import Optional

from repro.branch.multiple import MultipleBranchPredictor, SplitMultiplePredictor
from repro.config import FrontEndConfig
from repro.isa.program import Program
from repro.mem.hierarchy import MemoryConfig, MemoryHierarchy
from repro.frontend.fetch import ICacheFetchEngine, TraceFetchEngine
from repro.trace.bias_table import BranchBiasTable
from repro.trace.fill_unit import FillUnit
from repro.trace.trace_cache import TraceCache


#: Every engine this factory built and that is still alive.  Weak so the
#: registry never extends engine lifetime; used by
#: :func:`reset_compiled_state` to drop compiled caches in place.
_live_engines: "weakref.WeakSet" = weakref.WeakSet()


def fast_stack_enabled() -> bool:
    """True unless ``REPRO_ENGINE=reference`` selects the frozen reference
    stack: the seed front end (engines, predictors, fill unit and bias
    table) and the seed machine core (:mod:`repro.core.machine_reference`).

    ``fast`` is the default; any other value warns once and runs fast.
    """
    from repro.experiments import env
    return env.get_choice("REPRO_ENGINE", ("fast", "reference"),
                          "fast") == "fast"


def reset_compiled_state() -> None:
    """Drop derived/compiled caches inside every live engine.

    The fast stack memoizes aggressively: per-engine block, compiled-block
    and candidate caches keyed by pc, the fill unit's segment memo and
    interned state machine, and per-segment lazy artifacts (fetch slots,
    compiled fetch plans, pattern-specialized variants).  All of these are keyed by
    object identity or pc against the program the engine was built for —
    a long-lived process that regenerates programs (the differential
    fuzzer, notebook sessions) must be able to invalidate them without
    rebuilding every engine.  Architectural state (predictor counters,
    trace-cache contents, bias table) is deliberately untouched.
    """
    for engine in list(_live_engines):
        for attr in ("_block_cache", "_compiled_blocks", "_cand_cache"):
            cache = getattr(engine, attr, None)
            if cache is not None:
                cache.clear()
        fill_unit = getattr(engine, "fill_unit", None)
        if hasattr(fill_unit, "reset_compiled"):
            # Fast fill unit: segment memo plus the state graph and its
            # node list.
            fill_unit.reset_compiled()
        elif fill_unit is not None and hasattr(fill_unit, "_segment_memo"):
            # The reference copy keeps no state machine: its memo is the
            # only derived cache.
            fill_unit._segment_memo.clear()
        trace_cache = getattr(engine, "trace_cache", None)
        if trace_cache is not None:
            for line_set in trace_cache._sets:
                for segment in line_set:
                    segment._fetch_slots = None
                    segment._fetch_plan = None
                    segment._variants = None
                    segment._pattern_mask = -1
                    segment._trace_key = 0


def build_memory(config: FrontEndConfig, memory_config: Optional[MemoryConfig] = None) -> MemoryHierarchy:
    """Memory hierarchy for this front end.

    The reference icache configuration replaces the 4KB supporting icache
    with the paper's large dual-ported 128KB instruction cache.
    """
    base = memory_config or MemoryConfig()
    if config.kind == "icache":
        base = replace(base, l1i_bytes=128 * 1024, l1i_assoc=4)
    return MemoryHierarchy(base)


def build_predictor(config: FrontEndConfig, fast: Optional[bool] = None):
    """The multiple branch predictor organization the config names.

    ``fast=False`` builds it from the frozen reference stack.
    """
    if fast is None:
        fast = fast_stack_enabled()
    if fast:
        tree, split = MultipleBranchPredictor, SplitMultiplePredictor
    else:
        from repro.branch import reference
        tree = reference.MultipleBranchPredictor
        split = reference.SplitMultiplePredictor
    if config.predictor == "tree":
        return tree(rows_bits=14)
    if config.predictor == "split":
        return split(table_bits=(16, 14, 13), history_bits=14)
    raise ValueError(f"unknown predictor kind {config.predictor!r}")


def build_engine(program: Program, config: FrontEndConfig,
                 memory_config: Optional[MemoryConfig] = None,
                 fast: Optional[bool] = None):
    """Construct the complete front end described by ``config``.

    ``fast`` overrides the ``REPRO_ENGINE`` selection: True builds
    the optimized stack, False the frozen reference stack, None (default)
    follows the environment.
    """
    if fast is None:
        fast = fast_stack_enabled()
    if fast:
        icache_cls, trace_cls = ICacheFetchEngine, TraceFetchEngine
        bias_cls, fill_cls = BranchBiasTable, FillUnit
    else:
        from repro.frontend import fetch_reference
        from repro.trace import fill_unit_reference
        icache_cls = fetch_reference.ICacheFetchEngine
        trace_cls = fetch_reference.TraceFetchEngine
        bias_cls = fill_unit_reference.BranchBiasTable
        fill_cls = fill_unit_reference.FillUnit
    memory = build_memory(config, memory_config)
    if config.kind == "icache":
        engine = icache_cls(program, memory)
        _live_engines.add(engine)
        return engine
    if config.kind != "tc":
        raise ValueError(f"unknown front end kind {config.kind!r}")
    trace_cache = TraceCache(n_lines=config.tc_lines, assoc=config.tc_assoc,
                             path_assoc=config.path_associativity)
    bias_table = (
        bias_cls(entries=config.bias_entries, threshold=config.promote_threshold)
        if config.promote
        else None
    )
    static_promotions = None
    if config.promote_static:
        from repro.trace.static_promotion import profile_biased_branches
        static_promotions = profile_biased_branches(
            program,
            bias_threshold=config.static_bias_threshold,
            min_executions=config.static_min_executions,
        )
    fill_unit = fill_cls(
        trace_cache=trace_cache,
        bias_table=bias_table,
        policy=config.packing,
        promote=config.promote,
        static_promotions=static_promotions,
    )
    predictor = build_predictor(config, fast=fast)
    engine = trace_cls(
        program=program,
        memory=memory,
        trace_cache=trace_cache,
        fill_unit=fill_unit,
        predictor=predictor,
        inactive_issue=config.inactive_issue,
    )
    _live_engines.add(engine)
    return engine
