"""JSON (de)serialization of simulation results for the disk cache.

Results cross two boundaries: worker processes return them by pickle
(handled natively by dataclasses), and the disk cache stores them as
versioned JSON.  JSON needs care because the result types hold
``Counter`` objects keyed by enums or tuples:

* ``size_reason_histogram``: ``(size, FetchReason) -> count`` becomes a
  sorted ``[[size, reason_name, count], ...]`` list;
* ``cycle_accounting``: ``CycleCategory -> count`` becomes a name-keyed
  dict;
* ``fill_reasons``: ``FinalizeReason -> count`` likewise.

Serialization is canonical (sorted keys, sorted histogram rows), so two
runs that produced equal results dump to byte-identical JSON — the
scheduler's serial-vs-parallel equivalence test relies on this.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

from repro.core.machine import MachineResult
from repro.experiments.cachekey import (
    config_from_dict,
    config_to_dict,
)
from repro.frontend.simulator import FrontEndResult
from repro.frontend.stats import CycleCategory, FetchReason, FetchStats
from repro.trace.segment import FinalizeReason

#: Enum members by name: a plain dict lookup, where ``Enum[name]`` runs
#: Python-level metaclass code for every decoded histogram row.
_FETCH_REASONS = {member.name: member for member in FetchReason}
_CYCLE_CATEGORIES = {member.name: member for member in CycleCategory}
_FINALIZE_REASONS = {member.name: member for member in FinalizeReason}


def _stats_to_dict(stats: FetchStats) -> Dict[str, Any]:
    return {
        "fetches": stats.fetches,
        "useful_instructions": stats.useful_instructions,
        "size_reason_histogram": sorted(
            [size, reason.name, count]
            for (size, reason), count in stats.size_reason_histogram.items()
        ),
        "predictions_histogram": sorted(
            [n, count] for n, count in stats.predictions_histogram.items()
        ),
        "cycle_accounting": {
            cat.name: count for cat, count in sorted(
                stats.cycle_accounting.items(), key=lambda kv: kv[0].name)
        },
        "tc_fetches": stats.tc_fetches,
        "icache_fetches": stats.icache_fetches,
        "cond_branches": stats.cond_branches,
        "cond_mispredicts": stats.cond_mispredicts,
        "promoted_branches": stats.promoted_branches,
        "promoted_faults": stats.promoted_faults,
        "indirect_jumps": stats.indirect_jumps,
        "indirect_mispredicts": stats.indirect_mispredicts,
        "cache_miss_cycles": stats.cache_miss_cycles,
    }


def _stats_from_dict(data: Dict[str, Any]) -> FetchStats:
    stats = FetchStats(
        fetches=data["fetches"],
        useful_instructions=data["useful_instructions"],
        tc_fetches=data["tc_fetches"],
        icache_fetches=data["icache_fetches"],
        cond_branches=data["cond_branches"],
        cond_mispredicts=data["cond_mispredicts"],
        promoted_branches=data["promoted_branches"],
        promoted_faults=data["promoted_faults"],
        indirect_jumps=data["indirect_jumps"],
        indirect_mispredicts=data["indirect_mispredicts"],
        cache_miss_cycles=data["cache_miss_cycles"],
    )
    stats.size_reason_histogram = Counter({
        (size, _FETCH_REASONS[name]): count
        for size, name, count in data["size_reason_histogram"]
    })
    stats.predictions_histogram = Counter({
        n: count for n, count in data["predictions_histogram"]
    })
    stats.cycle_accounting = Counter({
        _CYCLE_CATEGORIES[name]: count
        for name, count in data["cycle_accounting"].items()
    })
    return stats


def _fill_reasons_to_dict(fill_reasons: dict) -> Dict[str, int]:
    return {reason.name: count
            for reason, count in sorted(fill_reasons.items(),
                                        key=lambda kv: kv[0].name)}


def _fill_reasons_from_dict(data: Dict[str, int]) -> dict:
    return {_FINALIZE_REASONS[name]: count for name, count in data.items()}


# ------------------------------------------------------------- front end

def frontend_result_to_dict(result: FrontEndResult) -> Dict[str, Any]:
    """JSON-able envelope payload for one front-end result."""
    return {
        "benchmark": result.benchmark,
        "config": config_to_dict(result.config),
        "stats": _stats_to_dict(result.stats),
        "cycles": result.cycles,
        "instructions_retired": result.instructions_retired,
        "recoveries": result.recoveries,
        "tc_hits": result.tc_hits,
        "tc_misses": result.tc_misses,
        "tc_writes": result.tc_writes,
        "fill_reasons": _fill_reasons_to_dict(result.fill_reasons),
        "l1i_misses": result.l1i_misses,
        "promotions": result.promotions,
        "demotions": result.demotions,
    }


def frontend_result_from_dict(data: Dict[str, Any]) -> FrontEndResult:
    """Rebuild a front-end result from its stored payload."""
    return FrontEndResult(
        benchmark=data["benchmark"],
        config=config_from_dict(data["config"]),
        stats=_stats_from_dict(data["stats"]),
        cycles=data["cycles"],
        instructions_retired=data["instructions_retired"],
        recoveries=data["recoveries"],
        tc_hits=data["tc_hits"],
        tc_misses=data["tc_misses"],
        tc_writes=data["tc_writes"],
        fill_reasons=_fill_reasons_from_dict(data["fill_reasons"]),
        l1i_misses=data["l1i_misses"],
        promotions=data["promotions"],
        demotions=data["demotions"],
    )


# --------------------------------------------------------------- machine

_MACHINE_INT_FIELDS = (
    "cycles", "retired", "fetches",
    "cond_branches", "promoted_branches", "cond_mispredicts",
    "promoted_faults", "indirect_jumps", "indirect_mispredicts",
    "resolution_time_sum", "resolution_count",
    "load_forwards", "dcache_accesses",
    "inactive_issued", "dormant_activations",
    "tc_hits", "tc_misses", "l1i_misses", "promotions", "demotions",
)


def machine_result_to_dict(result: MachineResult) -> Dict[str, Any]:
    """JSON-able envelope payload for one machine result."""
    out: Dict[str, Any] = {
        "benchmark": result.benchmark,
        "config": config_to_dict(result.config),
        "cycle_accounting": {
            cat.name: count for cat, count in sorted(
                result.cycle_accounting.items(), key=lambda kv: kv[0].name)
        },
        "fill_reasons": _fill_reasons_to_dict(result.fill_reasons),
    }
    for name in _MACHINE_INT_FIELDS:
        out[name] = getattr(result, name)
    return out


def machine_result_from_dict(data: Dict[str, Any]) -> MachineResult:
    """Rebuild a machine result from its stored payload."""
    result = MachineResult(
        benchmark=data["benchmark"],
        config=config_from_dict(data["config"]),
    )
    for name in _MACHINE_INT_FIELDS:
        setattr(result, name, data[name])
    result.cycle_accounting = Counter({
        _CYCLE_CATEGORIES[name]: count
        for name, count in data["cycle_accounting"].items()
    })
    result.fill_reasons = _fill_reasons_from_dict(data["fill_reasons"])
    return result
