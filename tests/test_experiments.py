"""Experiment definitions and reporting (run on a reduced benchmark set)."""

import pytest

from repro.experiments import (
    clear_caches,
    paper,
    fetch_breakdown,
    figure9_rows,
    figure10_rows,
    figure11_rows,
    figure12_rows,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.frontend.stats import CycleCategory, FetchReason
from repro.report import format_bar_chart, format_histogram, format_table

SMALL = ["compress", "m88ksim"]
N = 30_000
CLAIM = {claim.id: claim for claim in paper.CLAIMS}


@pytest.fixture(autouse=True, scope="module")
def _short_runs(request):
    # Keep experiment tests fast: short runs via the runner's n argument is
    # not exposed here, so monkeypatch default lengths.
    import repro.experiments.runner as runner
    original_default = runner.default_length
    original_machine = runner.machine_length
    runner.default_length = lambda b: N
    runner.machine_length = lambda b: N // 3
    clear_caches()
    yield
    runner.default_length = original_default
    runner.machine_length = original_machine
    clear_caches()


def test_table1_covers_all_benchmarks():
    rows = table1_rows()
    assert len(rows) == 15
    assert {row["benchmark"] for row in rows} == {
        "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex",
        "gnuchess", "gs", "pgp", "python", "plot", "ss", "tex"}
    for row in rows:
        assert row["static_instructions"] > 500


def test_fetch_breakdown_structure():
    data = fetch_breakdown("compress")
    assert 0 < data["avg"] <= 16
    assert abs(sum(data["reasons"].values()) - 1.0) < 1e-6
    assert abs(sum(data["histogram"].values()) - 1.0) < 1e-6
    assert all(isinstance(reason, FetchReason) for _s, reason in data["histogram"])


def test_table2_shape():
    rows = table2_rows(benchmarks=SMALL, thresholds=(16, 64))
    labels = [row["configuration"] for row in rows]
    assert labels == ["icache", "baseline", "threshold = 16", "threshold = 64"]
    efr = {row["configuration"]: row["efr"] for row in rows}
    assert efr["baseline"] > efr["icache"]


def test_table3_promotion_reduces_prediction_demand():
    rows = table3_rows(benchmarks=SMALL)
    base, promo = rows
    assert promo["0 or 1"] > base["0 or 1"]
    for row in rows:
        assert row["0 or 1"] + row["2"] + row["3"] == pytest.approx(1.0)


def test_figure9_rows():
    rows = figure9_rows(benchmarks=SMALL)
    assert {row["benchmark"] for row in rows} == set(SMALL)
    for row in rows:
        assert row["pct_increase"] == pytest.approx(
            100 * (row["packing"] / row["baseline"] - 1), abs=0.01)


def test_figure10_has_five_configs():
    rows = figure10_rows(benchmarks=["compress", "gcc", "go"])
    for row in rows:
        for key in ("icache", "baseline", "packing", "promotion", "promotion,packing"):
            assert key in row
    # Fig 10's ordering: both techniques beat the trace-cache baseline,
    # which beats the icache front end.
    holds, measured = CLAIM["F10.row_order"].check(rows)
    assert holds, measured


def test_table4_structure():
    data = table4_rows(benchmarks=["compress", "gcc", "go"])
    for row in data["rows"]:
        for key in ("unreg", "cost-reg", "n=2", "n=4"):
            assert key in row
            assert key in data["avg_efr"]
    # Table 4's claim: regulating packing (cost-regulated or chunked to
    # n=2/n=4) inflates trace-cache misses over promotion less than
    # unregulated packing does.
    for claim_id in ("T4.costreg_cuts", "T4.chunking_cuts"):
        holds, measured = CLAIM[claim_id].check(data)
        assert holds, measured


def test_figure11_ipc_rows():
    rows = figure11_rows(benchmarks=["compress"])
    row = rows[0]
    assert 0 < row["icache"] < 16
    assert 0 < row["baseline"] < 16
    assert "pct_new_over_baseline" in row


def test_figure12_fractions_sum_to_100():
    rows = figure12_rows(benchmarks=["compress"])
    total = sum(v for k, v in rows[0].items() if k != "benchmark")
    assert total == pytest.approx(100.0, abs=1.0)


# --- report formatting -----------------------------------------------------------

def test_format_table():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", 3]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.50" in text


def test_format_bar_chart():
    text = format_bar_chart({"x": 2.0, "y": -1.0}, width=10)
    assert "##########" in text
    assert "-#####" in text


def test_format_histogram():
    text = format_histogram({1: 0.5, 2: 0.25})
    assert "size  1" in text and "size  2" in text


def test_format_bar_chart_empty():
    assert format_bar_chart({}, title="empty") == "empty"
