"""Every table and figure from the paper's evaluation, as data.

Naming follows the paper: Table 1 (benchmarks), Figures 4/6 (fetch-size
breakdowns), Table 2 (promotion threshold sweep), Figure 7 (misprediction
change under promotion), Table 3 (predictions per fetch), Figure 9
(packing), Figure 10 (all techniques), Table 4 (packing regulation),
Figures 11-16 (full-machine results).

:data:`ARTIFACTS` names every artifact's builder in paper order, and
:data:`CLAIMS` states the paper's shape claims as predicates over the
builders' rows, each scoped to the run-length scales it was measured at.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import config as cfg
from repro.config import CoreConfig, FrontEndConfig, MachineConfig
from repro.experiments.runner import frontend_result, get_program, machine_result
from repro.experiments.scheduler import prefetch_frontend, prefetch_machine
from repro.frontend.stats import CycleCategory, FetchReason
from repro.trace.fill_unit import PackingPolicy
from repro.workloads.profiles import BENCHMARK_NAMES, TABLE4_BENCHMARKS, get_profile

#: The five front-end configurations of Figure 10, in paper order.
FIG10_CONFIGS = [
    ("icache", cfg.ICACHE),
    ("baseline", cfg.BASELINE),
    ("packing", cfg.PACKING),
    ("promotion", cfg.PROMOTION),
    ("promotion,packing", cfg.PROMOTION_PACKING),
]

#: Machine configurations for Figures 11-16, in paper order.
def _machine_configs(perfect: bool) -> List:
    core = CoreConfig(perfect_disambiguation=perfect)
    return [
        ("icache", MachineConfig(frontend=cfg.ICACHE, core=core)),
        ("baseline", MachineConfig(frontend=cfg.BASELINE, core=core)),
        ("promotion,packing", MachineConfig(frontend=cfg.PROMOTION_COST_REG, core=core)),
    ]


def _benchmarks(benchmarks: Optional[Sequence[str]]) -> List[str]:
    return list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)


def _pct_change(new: float, old: float) -> float:
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old


# --------------------------------------------------------------- Table 1

def table1_rows() -> List[dict]:
    """The benchmark suite: paper's instruction counts and our scaled runs."""
    rows = []
    for name in BENCHMARK_NAMES:
        profile = get_profile(name)
        program = get_program(name)
        rows.append({
            "benchmark": name,
            "paper_inst_count": f"{profile.paper_inst_count_m}M",
            "input_set": profile.input_set,
            "static_instructions": len(program),
            "scaled_dynamic": profile.default_dynamic,
            "description": profile.description,
        })
    return rows


# -------------------------------------------------------- Figures 4 & 6

def fetch_breakdown(benchmark: str = "gcc",
                    config: FrontEndConfig = cfg.BASELINE) -> dict:
    """Fetch-size histogram annotated with termination reasons.

    Figure 4 is this with the baseline config; Figure 6 with promotion.
    Returns {"histogram": {(size, reason): fraction}, "avg": float,
    "reasons": {reason: fraction}}.
    """
    result = frontend_result(benchmark, config)
    stats = result.stats
    total = max(1, stats.fetches)
    histogram = {
        (size, reason): count / total
        for (size, reason), count in sorted(
            stats.size_reason_histogram.items(), key=lambda kv: kv[0][0]
        )
    }
    reasons = {reason: count / total for reason, count in stats.reason_breakdown().items()}
    return {
        "benchmark": benchmark,
        "histogram": histogram,
        "avg": stats.effective_fetch_rate,
        "reasons": reasons,
    }


# ---------------------------------------------------------------- Table 2

def table2_rows(benchmarks: Optional[Sequence[str]] = None,
                thresholds: Sequence[int] = (8, 16, 32, 64, 128, 256)) -> List[dict]:
    """Average effective fetch rate: icache, baseline, promotion sweep."""
    names = _benchmarks(benchmarks)
    configs = [cfg.ICACHE, cfg.BASELINE]
    configs += [cfg.promotion_with_threshold(t) for t in thresholds]
    prefetch_frontend(names, configs)

    def avg_efr(config: FrontEndConfig) -> float:
        rates = [frontend_result(b, config).effective_fetch_rate for b in names]
        return sum(rates) / len(rates)

    rows = [
        {"configuration": "icache", "efr": avg_efr(cfg.ICACHE)},
        {"configuration": "baseline", "efr": avg_efr(cfg.BASELINE)},
    ]
    for threshold in thresholds:
        rows.append({
            "configuration": f"threshold = {threshold}",
            "efr": avg_efr(cfg.promotion_with_threshold(threshold)),
        })
    return rows


# ---------------------------------------------------------------- Figure 7

def figure7_rows(benchmarks: Optional[Sequence[str]] = None,
                 thresholds: Sequence[int] = (64, 128, 256)) -> List[dict]:
    """Percent change in mispredicted conditional branches vs baseline.

    Promoted-branch faults count as mispredictions, as in the paper.
    """
    names = _benchmarks(benchmarks)
    prefetch_frontend(names, [cfg.BASELINE] + [
        cfg.promotion_with_threshold(t) for t in thresholds])
    rows = []
    for name in names:
        base = frontend_result(name, cfg.BASELINE).stats.total_cond_mispredicts
        row = {"benchmark": name}
        for threshold in thresholds:
            promo = frontend_result(
                name, cfg.promotion_with_threshold(threshold)
            ).stats.total_cond_mispredicts
            row[f"threshold={threshold}"] = _pct_change(promo, base)
        rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 3

def table3_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """Predictions required per fetch: baseline vs promotion@64."""
    names = _benchmarks(benchmarks)
    prefetch_frontend(names, [cfg.BASELINE, cfg.PROMOTION])
    rows = []
    for label, config in (("baseline", cfg.BASELINE), ("threshold = 64", cfg.PROMOTION)):
        buckets = {"0 or 1": 0.0, "2": 0.0, "3": 0.0}
        for name in names:
            result = frontend_result(name, config)
            for key, value in result.stats.predictions_buckets().items():
                buckets[key] += value / len(names)
        rows.append({"configuration": label, **buckets})
    return rows


# ------------------------------------------------------------ Figures 9/10

def figure9_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """Effective fetch rate, baseline vs unregulated packing."""
    names = _benchmarks(benchmarks)
    prefetch_frontend(names, [cfg.BASELINE, cfg.PACKING])
    rows = []
    for name in names:
        base = frontend_result(name, cfg.BASELINE).effective_fetch_rate
        pack = frontend_result(name, cfg.PACKING).effective_fetch_rate
        rows.append({
            "benchmark": name,
            "baseline": base,
            "packing": pack,
            "pct_increase": _pct_change(pack, base),
        })
    return rows


def figure10_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """Effective fetch rates for all five configurations."""
    names = _benchmarks(benchmarks)
    prefetch_frontend(names, [config for _label, config in FIG10_CONFIGS])
    rows = []
    for name in names:
        row = {"benchmark": name}
        for label, config in FIG10_CONFIGS:
            row[label] = frontend_result(name, config).effective_fetch_rate
        row["pct_both_over_baseline"] = _pct_change(
            row["promotion,packing"], row["baseline"]
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------- Table 4

TABLE4_POLICIES = [
    ("unreg", PackingPolicy.UNREGULATED),
    ("cost-reg", PackingPolicy.COST_REGULATED),
    ("n=2", PackingPolicy.CHUNK2),
    ("n=4", PackingPolicy.CHUNK4),
]


def table4_rows(benchmarks: Optional[Sequence[str]] = None) -> dict:
    """Packing regulation: % increase in cache miss cycles over promotion.

    Also reports the trace-cache miss-count inflation (where the redundancy
    signal is strongest at our scaled run lengths) and the average
    effective fetch rate per policy, mirroring the paper's final row.
    """
    names = list(benchmarks) if benchmarks is not None else list(TABLE4_BENCHMARKS)
    prefetch_frontend(names, [cfg.PROMOTION] + [
        cfg.promotion_with_packing(policy) for _label, policy in TABLE4_POLICIES])
    rows = []
    efr_sums = {label: 0.0 for label, _ in TABLE4_POLICIES}
    for name in names:
        promo = frontend_result(name, cfg.PROMOTION)
        row = {"benchmark": name}
        for label, policy in TABLE4_POLICIES:
            result = frontend_result(name, cfg.promotion_with_packing(policy))
            row[label] = _pct_change(result.stats.cache_miss_cycles,
                                     max(1, promo.stats.cache_miss_cycles))
            row[label + "_tc_miss"] = _pct_change(result.tc_misses, max(1, promo.tc_misses))
        rows.append(row)
    for label, policy in TABLE4_POLICIES:
        rates = [
            frontend_result(name, cfg.promotion_with_packing(policy)).effective_fetch_rate
            for name in names
        ]
        efr_sums[label] = sum(rates) / len(rates)
    return {"rows": rows, "avg_efr": efr_sums}


# ----------------------------------------------------------- Figures 11-16

def figure11_rows(benchmarks: Optional[Sequence[str]] = None,
                  perfect: bool = False) -> List[dict]:
    """IPC of icache / baseline / promotion+cost-regulated-packing machines.

    ``perfect=True`` gives Figure 16 (ideal memory disambiguation).
    """
    rows = []
    configs = _machine_configs(perfect)
    names = _benchmarks(benchmarks)
    prefetch_machine(names, [config for _label, config in configs])
    for name in names:
        row = {"benchmark": name}
        for label, machine_config in configs:
            row[label] = machine_result(name, machine_config).ipc
        row["pct_new_over_baseline"] = _pct_change(
            row["promotion,packing"], row["baseline"]
        )
        row["pct_new_over_icache"] = _pct_change(row["promotion,packing"], row["icache"])
        rows.append(row)
    return rows


def figure16_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """Figure 11 with the ideal aggressive execution engine."""
    return figure11_rows(benchmarks, perfect=True)


def figure12_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """Fetch-cycle accounting for the promotion+packing machine."""
    rows = []
    config = _machine_configs(False)[2][1]
    names = _benchmarks(benchmarks)
    prefetch_machine(names, [config])
    for name in names:
        result = machine_result(name, config)
        total = max(1, sum(result.cycle_accounting.values()))
        row = {"benchmark": name}
        for category in CycleCategory:
            row[category.value] = 100.0 * result.cycle_accounting[category] / total
        rows.append(row)
    return rows


def figure13_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """% change in fetch cycles lost to mispredictions, vs baseline."""
    configs = _machine_configs(False)
    names = _benchmarks(benchmarks)
    prefetch_machine(names, [configs[1][1], configs[2][1]])
    rows = []
    for name in names:
        base = machine_result(name, configs[1][1]).mispredict_lost_cycles
        new = machine_result(name, configs[2][1]).mispredict_lost_cycles
        rows.append({"benchmark": name, "pct_change": _pct_change(new, max(1, base))})
    return rows


def figure14_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """% change in mispredicted branches (conditional + indirect)."""
    configs = _machine_configs(False)
    names = _benchmarks(benchmarks)
    prefetch_machine(names, [configs[1][1], configs[2][1]])
    rows = []
    for name in names:
        base = machine_result(name, configs[1][1]).total_mispredicted_branches
        new = machine_result(name, configs[2][1]).total_mispredicted_branches
        rows.append({"benchmark": name, "pct_change": _pct_change(new, max(1, base))})
    return rows


def figure15_rows(benchmarks: Optional[Sequence[str]] = None) -> List[dict]:
    """% change in mispredicted-branch resolution time."""
    configs = _machine_configs(False)
    names = _benchmarks(benchmarks)
    prefetch_machine(names, [configs[1][1], configs[2][1]])
    rows = []
    for name in names:
        base = machine_result(name, configs[1][1]).avg_resolution_time
        new = machine_result(name, configs[2][1]).avg_resolution_time
        rows.append({
            "benchmark": name,
            "baseline_cycles": base,
            "new_cycles": new,
            "pct_change": _pct_change(new, max(0.001, base)),
        })
    return rows


# --------------------------------------------------------------- registry

#: Every table and figure, in paper order: name -> builder of its data.
ARTIFACTS: Dict[str, Callable[[], Any]] = {
    "table1": table1_rows,
    "table2": table2_rows,
    "table3": table3_rows,
    "table4": table4_rows,
    "fig4": lambda: fetch_breakdown("gcc", cfg.BASELINE),
    "fig6": lambda: fetch_breakdown("gcc", cfg.PROMOTION),
    "fig7": figure7_rows,
    "fig9": figure9_rows,
    "fig10": figure10_rows,
    "fig11": figure11_rows,
    "fig12": figure12_rows,
    "fig13": figure13_rows,
    "fig14": figure14_rows,
    "fig15": figure15_rows,
    "fig16": figure16_rows,
}

#: Named run-length multipliers: full length, ``REPRO_QUICK=1``, and the
#: CI smoke scale ``REPRO_QUICK=1 REPRO_SCALE=0.1``.
SCALES = {"full": 1.0, "quick": 0.25, "smoke": 0.25 * 0.1}


def run_scale() -> Optional[str]:
    """The named scale whose run lengths every benchmark runs at now.

    Read from the lengths the runner hands out, not from the environment,
    so lengths set any other way (tests shrink them) name no scale.
    """
    from repro.experiments import runner

    lengths = [(runner.default_length(b), runner.machine_length(b))
               for b in BENCHMARK_NAMES]
    for name, factor in SCALES.items():
        if lengths == [runner.run_lengths(b, factor) for b in BENCHMARK_NAMES]:
            return name
    return None


class Claim(NamedTuple):
    """One of the paper's shape claims about one artifact.

    ``check`` takes the artifact's data, then the data of each artifact
    in ``needs``, with per-benchmark rows cut to ``benchmarks``; it
    returns whether the claim holds and the measured values it compared.
    ``scales`` names the :data:`SCALES` at which it was measured to hold.
    """
    artifact: str
    id: str
    paper: str
    check: Callable[..., Tuple[bool, str]]
    benchmarks: Tuple[str, ...]
    scales: Tuple[str, ...]
    needs: Tuple[str, ...] = ()


def _avg(rows: List[dict], key: str) -> float:
    return sum(row[key] for row in rows) / len(rows)


def _gt(a_name: str, a: float, b_name: str, b: float,
        factor: float = 1.0) -> Tuple[bool, str]:
    """``a > factor * b``, with the values compared."""
    times = f"{factor:g} x " if factor != 1.0 else ""
    return (a > factor * b, f"{a_name} {a:.2f} > {times}{b_name} {b:.2f} "
                            f"({_pct_change(a, b):+.1f}%)")


def _count(rows: List[dict], what: str, test: Callable[[dict], bool],
           need: int) -> Tuple[bool, str]:
    """At least ``need`` rows pass ``test``."""
    hits = sum(1 for row in rows if test(row))
    return hits >= need, f"{what} on {hits} of {len(rows)} (need {need})"


def _every(rows: List[dict], what: str,
           test: Callable[[dict], bool]) -> Tuple[bool, str]:
    """Every row passes ``test``; names the rows that do not."""
    misses = [row["benchmark"] for row in rows if not test(row)]
    text = f"{what} on {len(rows) - len(misses)} of {len(rows)}"
    return not misses, text + (f", not {', '.join(misses)}" if misses else "")


def _efr(rows: List[dict]) -> Dict[str, float]:
    return {row["configuration"]: row["efr"] for row in rows}


def _gain(rows: List[dict], new: str, old: str) -> float:
    return _avg(rows, new) / _avg(rows, old) - 1


def _t1_footprint(rows: List[dict]) -> Tuple[bool, str]:
    size = {row["benchmark"]: row["static_instructions"] for row in rows}
    return (size["gcc"] > size["compress"] and size["tex"] > size["m88ksim"],
            f"static size gcc {size['gcc']} > compress {size['compress']}, "
            f"tex {size['tex']} > m88ksim {size['m88ksim']}")


def _f4_reasons(data: dict) -> Tuple[bool, str]:
    atomic = data["reasons"].get(FetchReason.ATOMIC_BLOCKS, 0.0)
    mispred = data["reasons"].get(FetchReason.MISPRED_BR, 0.0)
    return (atomic > 0.02 and mispred > 0.01,
            f"AtomicBlocks {atomic:.3f} > 0.02, MispredBR {mispred:.3f} > 0.01")


def _f6_branch_limit(promo: dict, base: dict) -> Tuple[bool, str]:
    new = promo["reasons"].get(FetchReason.MAXIMUM_BRS, 0.0)
    old = base["reasons"].get(FetchReason.MAXIMUM_BRS, 0.0)
    return (new <= old + 1e-9,
            f"MaximumBRs share {new:.3f} (promotion) <= {old:.3f} (baseline)")


def _t2_sweep(rows: List[dict]) -> Tuple[bool, str]:
    efr = _efr(rows)
    sweep = [v for k, v in efr.items() if k.startswith("threshold")]
    spread = max(sweep) - min(sweep)
    return (spread < 0.15 * efr["baseline"],
            f"sweep {min(sweep):.2f}..{max(sweep):.2f}, spread {spread:.2f} "
            f"< 0.15 x baseline {efr['baseline']:.2f}")


def _t3_shift(rows: List[dict]) -> Tuple[bool, str]:
    base, promo = rows
    return (promo["0 or 1"] >= base["0 or 1"] + 0.15,
            f"<=1 prediction {100 * base['0 or 1']:.1f}% -> "
            f"{100 * promo['0 or 1']:.1f}% (need +15 points)")


def _t3_promo_single(rows: List[dict], floor: float) -> Tuple[bool, str]:
    share = rows[1]["0 or 1"]
    return (share >= floor,
            f"threshold 64: {100 * share:.1f}% of fetches need <=1 "
            f"prediction (need {100 * floor:.0f}%)")


def _f7_plot(rows: List[dict]) -> Tuple[bool, str]:
    (plot,) = rows
    low, high = plot["threshold=64"], plot["threshold=256"]
    return (low > 0 and high < low,
            f"plot {low:+.1f}% at threshold 64 > 0, {high:+.1f}% at 256 lower")


def _f9_majority(rows: List[dict]) -> Tuple[bool, str]:
    holds, text = _count(rows, "gain", lambda r: r["pct_increase"] > 0, 8)
    return holds, f"{text}; average {_avg(rows, 'pct_increase'):+.1f}%"


def _f10_super_additive(rows: List[dict]) -> Tuple[bool, str]:
    base = _avg(rows, "baseline")
    promo = _avg(rows, "promotion") - base
    pack = _avg(rows, "packing") - base
    both = _avg(rows, "promotion,packing") - base
    return (both > 0.9 * (promo + pack),
            f"both {both:+.2f} > 0.9 x (promotion {promo:+.2f} "
            f"+ packing {pack:+.2f})")


def _t4_efr_order(data: dict) -> Tuple[bool, str]:
    efr = data["avg_efr"]
    order = ("unreg", "n=2", "cost-reg", "n=4")
    holds = all(efr[a] > efr[b] for a, b in zip(order, order[1:]))
    return holds, " > ".join(f"{k} {efr[k]:.2f}" for k in order)


def _f12_branch_dominant(row: dict) -> bool:
    losses = (CycleCategory.BRANCH_MISSES, CycleCategory.CACHE_MISSES,
              CycleCategory.FULL_WINDOW, CycleCategory.TRAPS,
              CycleCategory.MISFETCHES)
    return row[CycleCategory.BRANCH_MISSES.value] == max(
        row[c.value] for c in losses)


def _mean_change(rows: List[dict], low: float, high: float) -> Tuple[bool, str]:
    mean = _avg(rows, "pct_change")
    return low < mean < high, f"mean change {mean:+.1f}% in ({low:g}, {high:g})"


def _f16_gain_grows(perfect: List[dict], conservative: List[dict]
                    ) -> Tuple[bool, str]:
    new = _gain(perfect, "promotion,packing", "baseline")
    old = _gain(conservative, "promotion,packing", "baseline")
    return (new > old - 0.005,
            f"techniques' gain {100 * old:+.1f}% (conservative, fig11) -> "
            f"{100 * new:+.1f}% (perfect); need no drop past 0.5 points")


_ALL = tuple(BENCHMARK_NAMES)
_T4 = tuple(TABLE4_BENCHMARKS)
_ANY = ("smoke", "quick", "full")
_QUICK = ("quick", "full")
_FULL = ("full",)
_T4_PAPER = "unreg 12.47 > n=2 12.42 > cost-reg 12.23 > n=4 12.18 avg EFR"
_F11_PAPER = "promotion+packing +4% over baseline, baseline +32% over icache"
_F12_PAPER = "branch mispredictions dominate the lost cycles on all but one"

#: The paper's shape claims, per artifact in paper order.
CLAIMS: Tuple[Claim, ...] = (
    Claim("table1", "T1.fifteen_benchmarks",
          "fifteen benchmarks: SPECint95 plus seven UNIX applications",
          lambda rows: (len(rows) == 15, f"{len(rows)} benchmarks == 15"),
          _ALL, _ANY),
    Claim("table1", "T1.footprint_order",
          "big-footprint gcc and tex stress trace-cache capacity",
          _t1_footprint, ("compress", "gcc", "m88ksim", "tex"), _ANY),
    Claim("table2", "T2.tc_over_icache", "icache 5.11, baseline 10.67 avg EFR",
          lambda rows: _gt("baseline", _efr(rows)["baseline"],
                           "icache", _efr(rows)["icache"], 1.5),
          _ALL, _ANY),
    Claim("table2", "T2.promotion_gain", "threshold 64 11.40 vs baseline 10.67",
          lambda rows: _gt("threshold 64", _efr(rows)["threshold = 64"],
                           "baseline", _efr(rows)["baseline"]),
          _ALL, _ANY),
    Claim("table2", "T2.sweep_flat",
          "flat sweep: 11.35 at threshold 8, 11.40 at 64, 11.33 at 256",
          _t2_sweep, _ALL, _ANY),
    Claim("table3", "T3.shift",
          "<=1 prediction 54% -> 85% (0-1/2/3: 54/18/28 -> 85/12/3)",
          _t3_shift, _ALL, _QUICK),
    Claim("table3", "T3.promo_single", "85% of fetches need <=1 prediction",
          lambda rows: _t3_promo_single(rows, 0.70), _ALL, _ANY),
    Claim("table3", "T3.promo_ge80", "85% of fetches need <=1 prediction",
          lambda rows: _t3_promo_single(rows, 0.80), _ALL, _QUICK),
    Claim("table3", "T3.fewer_three", "3 predictions: 28% -> 3% of fetches",
          lambda rows: (rows[1]["3"] <= rows[0]["3"],
                        f"3 predictions {100 * rows[0]['3']:.1f}% -> "
                        f"{100 * rows[1]['3']:.1f}%, no rise"),
          _ALL, _ANY),
    Claim("table4", "T4.unreg_inflates", "unregulated packing +27..96% miss cycles",
          lambda data: _every(data["rows"], "unreg TC-miss rise > 5%",
                              lambda r: r["unreg_tc_miss"] > 5.0),
          _T4, _QUICK),
    Claim("table4", "T4.costreg_cuts", "regulation cuts the miss inflation sharply",
          lambda data: _every(data["rows"], "cost-reg TC-miss rise < unreg",
                              lambda r: r["cost-reg_tc_miss"] < r["unreg_tc_miss"]),
          _T4, _ANY),
    Claim("table4", "T4.chunking_cuts", "regulation cuts the miss inflation sharply",
          lambda data: _every(data["rows"], "n=2 and n=4 TC-miss rise < unreg",
                              lambda r: max(r["n=2_tc_miss"], r["n=4_tc_miss"])
                              < r["unreg_tc_miss"]),
          _T4, _FULL),
    Claim("table4", "T4.costreg_efr", _T4_PAPER,
          lambda data: _gt("cost-reg", data["avg_efr"]["cost-reg"],
                           "unreg", data["avg_efr"]["unreg"], 0.95),
          _T4, _ANY),
    Claim("table4", "T4.unreg_ge_n4", _T4_PAPER,
          lambda data: (data["avg_efr"]["unreg"] >= data["avg_efr"]["n=4"],
                        f"unreg {data['avg_efr']['unreg']:.2f} >= "
                        f"n=4 {data['avg_efr']['n=4']:.2f}"),
          _T4, _ANY),
    Claim("table4", "T4.efr_order", _T4_PAPER, _t4_efr_order,
          _T4, ("smoke", "full")),
    Claim("fig4", "F4.multi_block", "gcc average fetch size 9.64",
          lambda data: (data["avg"] > 7.0,
                        f"gcc average fetch size {data['avg']:.2f} > 7.00"),
          ("gcc",), _ANY),
    Claim("fig4", "F4.reasons", "fetches end for all seven termination reasons",
          _f4_reasons, ("gcc",), _ANY),
    Claim("fig6", "F6.fewer_branch_limit",
          "fewer fetches end at the branch limit under promotion",
          _f6_branch_limit, ("gcc",), _ANY, ("fig4",)),
    Claim("fig6", "F6.avg_holds", "gcc average fetch size 10.24 vs 9.64 baseline",
          lambda promo, base: _gt("promotion", promo["avg"],
                                  "baseline", base["avg"], 0.97),
          ("gcc",), _ANY, ("fig4",)),
    Claim("fig7", "F7.majority_improve",
          "mostly fewer mispredictions; gcc/go about -20% at threshold 64",
          lambda rows: _count(rows, "fewer mispredictions at threshold 64",
                              lambda r: r["threshold=64"] < 0, len(rows) // 2),
          _ALL, _QUICK),
    Claim("fig7", "F7.mean_reduction",
          "mostly fewer mispredictions; gcc/go about -20% at threshold 64",
          lambda rows: (_avg(rows, "threshold=64") < 2.0,
                        f"mean change {_avg(rows, 'threshold=64'):+.1f}% < +2.0%"),
          _ALL, _ANY),
    Claim("fig7", "F7.plot_premature",
          "plot worsens at low thresholds; raising the threshold fixes it",
          _f7_plot, ("plot",), _FULL),
    Claim("fig9", "F9.pgp_gain", "+2%..+14% per benchmark, +7% on average",
          lambda rows: _every(rows, "packing gain > 5%",
                              lambda r: r["pct_increase"] > 5.0),
          ("pgp",), _ANY),
    Claim("fig9", "F9.m88ksim_gain", "+2%..+14% per benchmark, +7% on average",
          lambda rows: _every(rows, "packing gain > 3%",
                              lambda r: r["pct_increase"] > 3.0),
          ("m88ksim",), _ANY),
    Claim("fig9", "F9.majority", "+2%..+14% per benchmark, +7% on average",
          _f9_majority, _ALL, _ANY),
    Claim("fig9", "F9.all_positive", "+2%..+14% per benchmark, +7% on average",
          lambda rows: _every(rows, "packing gain",
                              lambda r: r["pct_increase"] > 0),
          _ALL, _FULL),
    Claim("fig10", "F10.tc_over_icache", "icache 5.11, baseline 10.67 avg EFR",
          lambda rows: _gt("baseline", _avg(rows, "baseline"),
                           "icache", _avg(rows, "icache"), 1.5),
          _ALL, _ANY),
    Claim("fig10", "F10.both_gt_baseline",
          "both techniques +17% over baseline on average",
          lambda rows: _gt("both", _avg(rows, "promotion,packing"),
                           "baseline", _avg(rows, "baseline"), 1.04),
          _ALL, _ANY),
    Claim("fig10", "F10.promotion_gt_baseline", "promotion alone about +7%",
          lambda rows: _gt("promotion", _avg(rows, "promotion"),
                           "baseline", _avg(rows, "baseline")),
          _ALL, _ANY),
    Claim("fig10", "F10.super_additive", "the combined gain is often super-additive",
          _f10_super_additive, _ALL, _ANY),
    Claim("fig10", "F10.row_order", "both > baseline > icache on every benchmark",
          lambda rows: _every(rows, "both > baseline > icache", lambda r: (
              r["promotion,packing"] > r["baseline"] > r["icache"])),
          _ALL, _FULL),
    Claim("fig10", "F10.super_additive_showcase",
          "super-additive on gcc, ss and tex",
          lambda rows: _every(rows, "both's gain > promotion's + packing's",
                              lambda r: r["promotion,packing"] + r["baseline"]
                              > r["promotion"] + r["packing"]),
          ("gcc", "ss", "tex"), _FULL),
    Claim("fig11", "F11.tc_over_icache", _F11_PAPER,
          lambda rows: _gt("baseline IPC", _avg(rows, "baseline"),
                           "icache", _avg(rows, "icache")),
          _ALL, _ANY),
    Claim("fig11", "F11.within_4pct", _F11_PAPER,
          lambda rows: _gt("promo+pack IPC", _avg(rows, "promotion,packing"),
                           "baseline", _avg(rows, "baseline"), 0.96),
          _ALL, _QUICK),
    Claim("fig12", "F12.useful_fetch", _F12_PAPER,
          lambda rows: _every(rows, "useful fetch > 5% of cycles",
                              lambda r: r[CycleCategory.USEFUL_FETCH.value] > 5.0),
          _ALL, _ANY),
    Claim("fig12", "F12.branch_dominates", _F12_PAPER,
          lambda rows: _count(rows, "branch misses the largest loss",
                              _f12_branch_dominant, len(rows) // 2),
          _ALL, _ANY),
    Claim("fig13", "F13.some_increase",
          "most benchmarks lose more cycles despite fewer mispredictions",
          lambda rows: _count(rows, "more lost cycles",
                              lambda r: r["pct_change"] > 0, 3),
          _ALL, _ANY),
    Claim("fig13", "F13.mean_bounded",
          "most benchmarks lose more cycles despite fewer mispredictions",
          lambda rows: _mean_change(rows, -40.0, 60.0), _ALL, _ANY),
    Claim("fig14", "F14.some_decrease", "mispredicted branches fall on most",
          lambda rows: _count(rows, "fewer mispredicted branches",
                              lambda r: r["pct_change"] < 0, 2),
          _ALL, _ANY),
    Claim("fig14", "F14.mean_bounded", "mispredicted branches fall on most",
          lambda rows: _mean_change(rows, float("-inf"), 25.0), _ALL, _QUICK),
    Claim("fig15", "F15.pipeline_scale", "resolution time +8% on average",
          lambda rows: _every(rows, "baseline resolution in (3, 60) cycles",
                              lambda r: 3.0 < r["baseline_cycles"] < 60.0),
          _ALL, _ANY),
    Claim("fig15", "F15.third_increase", "resolution time +8% on average",
          lambda rows: _count(rows, "longer resolution",
                              lambda r: r["pct_change"] > 0, len(rows) // 3),
          _ALL, _ANY),
    Claim("fig15", "F15.mean_rise", "resolution time +8% on average",
          lambda rows: _mean_change(rows, 0.0, float("inf")), _ALL, _ANY),
    Claim("fig16", "F16.tc_over_icache",
          "promotion+packing +11% over baseline, +63% over icache",
          lambda rows: _gt("baseline IPC", _avg(rows, "baseline"),
                           "icache", _avg(rows, "icache")),
          _ALL, _ANY),
    Claim("fig16", "F16.within_3pct",
          "promotion+packing +11% over baseline, +63% over icache",
          lambda rows: _gt("promo+pack IPC", _avg(rows, "promotion,packing"),
                           "baseline", _avg(rows, "baseline"), 0.97),
          _ALL, _QUICK),
    Claim("fig16", "F16.gain_grows", "techniques' gain +4% -> +11%",
          _f16_gain_grows, _ALL, _ANY, ("fig11",)),
)


def _restrict(data: Any, benchmarks: Tuple[str, ...]) -> Any:
    """Per-benchmark rows cut to ``benchmarks``; other data as it is."""
    if isinstance(data, list) and data and "benchmark" in data[0]:
        return [row for row in data if row["benchmark"] in benchmarks]
    return data


def check_claims(name: str, rendered: Dict[str, Any], scale: Optional[str]
                 ) -> List[Tuple[str, Claim, str]]:
    """``(verdict, claim, measured)`` for each claim on artifact ``name``.

    ``rendered`` maps each artifact built in this run to its data.  The
    verdict is ``pass``, ``FAIL``, ``not checked at this scale``, or
    ``not checked: needs <artifacts>`` when a claim reads an artifact
    this run did not build.
    """
    verdicts = []
    for claim in CLAIMS:
        if claim.artifact != name:
            continue
        missing = [need for need in claim.needs if need not in rendered]
        if missing:
            verdicts.append((f"not checked: needs {', '.join(missing)}",
                             claim, ""))
            continue
        holds, measured = claim.check(*(
            _restrict(rendered[artifact], claim.benchmarks)
            for artifact in (name,) + claim.needs))
        if scale not in claim.scales:
            verdict = "not checked at this scale"
        else:
            verdict = "pass" if holds else "FAIL"
        verdicts.append((verdict, claim, measured))
    return verdicts
