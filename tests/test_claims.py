"""The paper's claims as data: the CLAIMS table and the check that every
``repro experiment`` run makes after rendering."""

import pytest

from repro.__main__ import main
from repro.experiments import paper
from repro.workloads.profiles import BENCHMARK_NAMES


def test_claims_table_is_well_formed():
    ids = [claim.id for claim in paper.CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in paper.CLAIMS:
        assert claim.artifact in paper.ARTIFACTS, claim.id
        assert claim.scales and set(claim.scales) <= set(paper.SCALES), claim.id
        assert set(claim.needs) <= set(paper.ARTIFACTS), claim.id
        assert claim.benchmarks and set(claim.benchmarks) <= set(BENCHMARK_NAMES)
        assert claim.paper, claim.id


@pytest.fixture
def named_scale(monkeypatch):
    """Run lengths from the environment alone (no length overrides)."""
    for knob in ("REPRO_QUICK", "REPRO_SCALE"):
        monkeypatch.delenv(knob, raising=False)
    return monkeypatch


def test_run_scale_reads_the_lengths_run(named_scale):
    import repro.experiments.runner as runner

    assert paper.run_scale() == "full"
    named_scale.setenv("REPRO_QUICK", "1")
    assert paper.run_scale() == "quick"
    named_scale.setenv("REPRO_SCALE", "0.1")
    assert paper.run_scale() == "smoke"
    named_scale.setenv("REPRO_SCALE", "0.5")
    assert paper.run_scale() is None
    named_scale.delenv("REPRO_SCALE")
    # Lengths set any other way name no scale, whatever the environment.
    named_scale.setattr(runner, "default_length", lambda b: 5000)
    named_scale.setattr(runner, "machine_length", lambda b: 2000)
    assert paper.run_scale() is None


def _fake_table1(monkeypatch, check):
    """table1 rendered from one stub row, with one claim on it."""
    monkeypatch.setitem(paper.ARTIFACTS, "table1",
                        lambda: [{"benchmark": "compress", "size": 1}])
    monkeypatch.setattr(paper, "CLAIMS", (paper.Claim(
        "table1", "T1.injected", "the paper's number", check,
        ("compress",), tuple(paper.SCALES)),))


def test_failing_claim_fails_the_run(named_scale, capsys):
    _fake_table1(named_scale, lambda rows: (False, "measured 1 > 2"))
    assert main(["experiment", "table1"]) == 1
    out = capsys.readouterr().out
    assert "claims (full scale):" in out
    line = next(line for line in out.splitlines() if "T1.injected" in line)
    assert line.split()[0] == "FAIL"
    assert "measured 1 > 2" in line and "[paper: the paper's number]" in line


def test_passing_claim_passes_the_run(named_scale, capsys):
    _fake_table1(named_scale, lambda rows: (len(rows) == 1, "1 row"))
    assert main(["experiment", "table1"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "T1.injected" in line)
    assert line.split()[0] == "pass"


def test_claims_at_shrunken_lengths_are_not_checked(named_scale, capsys):
    import repro.experiments.runner as runner

    _fake_table1(named_scale, lambda rows: (False, "would fail"))
    named_scale.setattr(runner, "default_length", lambda b: 5000)
    named_scale.setattr(runner, "machine_length", lambda b: 2000)
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "claims (unnamed scale):" in out
    assert "  not checked at this scale  T1.injected: would fail" in out


def test_cross_artifact_claim_needs_its_source(named_scale, capsys):
    import repro.experiments.runner as runner

    named_scale.setattr(runner, "default_length", lambda b: 5000)
    named_scale.setattr(runner, "machine_length", lambda b: 2000)
    runner.clear_caches()
    try:
        assert main(["experiment", "fig6"]) == 0
    finally:
        runner.clear_caches()
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "F6." in line]
    assert lines and all(
        line.strip().startswith("not checked: needs fig4") for line in lines)


def test_every_smoke_scale_claim_passes(named_scale, tmp_path, capsys):
    """`experiment all` cold at the CI smoke scale: every claim measured
    to hold there passes, and the rest are not checked."""
    import repro.experiments.runner as runner

    named_scale.setenv("REPRO_CACHE_DIR", str(tmp_path))
    named_scale.setenv("REPRO_QUICK", "1")
    named_scale.setenv("REPRO_SCALE", "0.1")
    named_scale.setenv("REPRO_JOBS", "1")
    runner.clear_caches()
    try:
        assert main(["experiment", "all"]) == 0
    finally:
        runner.clear_caches()
    out = capsys.readouterr().out
    assert out.count("claims (smoke scale):") == len(
        {claim.artifact for claim in paper.CLAIMS})
    verdicts = {}
    for line in out.splitlines():
        for claim in paper.CLAIMS:
            if f" {claim.id}: " in line:
                verdicts[claim.id] = line.split(claim.id)[0].strip()
    assert verdicts == {
        claim.id: "pass" if "smoke" in claim.scales
        else "not checked at this scale" for claim in paper.CLAIMS}
