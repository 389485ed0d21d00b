"""Zeroed counters in place of the removed machine timing memo.

The cycle-level core no longer memoizes timing.  This module exists only
because ``perfbench/run.py`` imports it and reads ``aggregate_stats()``;
the next benchmark change removes that import and this module together.
"""


def aggregate_stats() -> dict:
    """Counters of the removed memo tables: always zero."""
    return {"tables": 0, "entries": 0, "stores": 0, "evictions": 0,
            "hits": 0, "misses": 0}
