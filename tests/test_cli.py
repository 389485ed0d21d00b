"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import CONFIGS, EXPERIMENTS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "compress" in out and "tex" in out
    assert "promotion_packing" in out


def test_run_frontend(capsys):
    assert main(["run", "compress", "--config", "baseline",
                 "--instructions", "5000"]) == 0
    out = capsys.readouterr().out
    assert "effective fetch rate" in out
    assert "5000" in out


def test_run_with_promotion_flags(capsys):
    assert main(["run", "compress", "--instructions", "5000",
                 "--threshold", "16"]) == 0
    out = capsys.readouterr().out
    assert "promo16" in out


def test_run_machine(capsys):
    assert main(["run", "compress", "--machine", "--instructions", "3000"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out
    assert "Cycle accounting" in out


def test_run_machine_perfect_memory(capsys):
    assert main(["run", "compress", "--machine", "--perfect-memory",
                 "--instructions", "3000"]) == 0
    assert "perfmem" in capsys.readouterr().out


def test_run_extension_flags(capsys):
    assert main(["run", "compress", "--instructions", "5000",
                 "--static-promotion", "--path-assoc",
                 "--no-inactive-issue", "--packing-policy",
                 "cost_regulated"]) == 0
    assert "effective fetch rate" in capsys.readouterr().out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["run", "spice"])


def test_parser_covers_all_experiments():
    parser = build_parser()
    for name in EXPERIMENTS:
        args = parser.parse_args(["experiment", name])
        assert args.name == name


def test_experiment_command_runs(capsys, monkeypatch):
    # Shrink run lengths so the experiment is quick.
    import repro.experiments.runner as runner
    monkeypatch.setattr(runner, "default_length", lambda b: 5000)
    monkeypatch.setattr(runner, "machine_length", lambda b: 2000)
    runner.clear_caches()
    try:
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "0 or 1" in out
    finally:
        runner.clear_caches()


@pytest.mark.parametrize("name", ["fig4", "fig6"])
def test_fetch_breakdown_figures_render(capsys, monkeypatch, name):
    """Figures 4 and 6: the per-size histogram plus every termination reason."""
    import repro.experiments.runner as runner
    from repro.frontend.stats import FetchReason

    monkeypatch.setattr(runner, "default_length", lambda b: 5000)
    monkeypatch.setattr(runner, "machine_length", lambda b: 2000)
    runner.clear_caches()
    try:
        assert main(["experiment", name]) == 0
        out = capsys.readouterr().out
        assert "gcc fetch sizes" in out
        for reason in FetchReason:
            assert reason.value in out
    finally:
        runner.clear_caches()


def test_config_names_resolve():
    for name, config in CONFIGS.items():
        assert config.kind in ("tc", "icache"), name


def test_experiment_supervision_flags_set_env(monkeypatch):
    import os

    import repro.__main__ as cli

    # setenv registers restoration, so the values main() writes directly
    # into os.environ are rolled back after the test.
    for knob in ("REPRO_JOBS", "REPRO_RETRIES", "REPRO_KEEP_GOING",
                 "REPRO_RESUME"):
        monkeypatch.setenv(knob, "")
    monkeypatch.setattr(cli, "_render_experiment", lambda name: 0)
    assert main(["experiment", "table3", "--jobs", "3", "--max-retries", "7",
                 "--keep-going", "--no-resume"]) == 0
    assert os.environ["REPRO_JOBS"] == "3"
    assert os.environ["REPRO_RETRIES"] == "7"
    assert os.environ["REPRO_KEEP_GOING"] == "1"
    assert os.environ["REPRO_RESUME"] == "0"
    assert main(["experiment", "table3", "--fail-fast", "--resume"]) == 0
    assert os.environ["REPRO_KEEP_GOING"] == "0"
    assert os.environ["REPRO_RESUME"] == "1"


def test_experiment_exclusive_flag_pairs_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "table3", "--fail-fast", "--keep-going"])
    with pytest.raises(SystemExit):
        main(["experiment", "table3", "--resume", "--no-resume"])


def test_experiment_failure_report(monkeypatch, capsys):
    import repro.__main__ as cli
    from repro.config import BASELINE
    from repro.experiments.faults import GridFailures, PointFailure
    from repro.experiments.scheduler import GridPoint

    failure = PointFailure(
        point=GridPoint("frontend", "compress", BASELINE, 5_000),
        kind="deterministic", attempts=1, error="ValueError: injected")

    def exploding(name):
        raise GridFailures([failure], {})

    monkeypatch.setattr(cli, "_render_experiment", exploding)
    assert main(["experiment", "table3", "--keep-going"]) == 1
    out = capsys.readouterr().out
    assert "Failed grid points" in out
    assert "compress" in out and "ValueError: injected" in out
    assert "resumes from the journal" in out


def test_experiment_all_renders_in_paper_order(monkeypatch, capsys):
    """``experiment all`` renders every artifact in paper order in one
    process, carries on past a failing one and then exits nonzero."""
    import repro.__main__ as cli

    rendered = []

    def render(name):
        rendered.append(name)
        if name == "fig4":
            raise RuntimeError("injected")
        print(name)
        return 0

    monkeypatch.setattr(cli, "_render_experiment", render)
    assert main(["experiment", "all"]) == 1
    assert rendered == list(EXPERIMENTS)
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if line] == [
        name for name in EXPERIMENTS if name != "fig4"]
    assert "RuntimeError: injected" in captured.err
    assert "1 of 15 artifacts failed: fig4" in captured.err

    rendered.clear()
    monkeypatch.setattr(cli, "_render_experiment",
                        lambda name: rendered.append(name) or 0)
    assert main(["experiment", "all"]) == 0
    assert rendered == list(EXPERIMENTS)


@pytest.fixture(scope="module")
def shrunken_runs():
    """Shrink run lengths; the tests that use this share one result memo."""
    import repro.experiments.runner as runner

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "default_length", lambda b: 5000)
        mp.setattr(runner, "machine_length", lambda b: 2000)
        runner.clear_caches()
        try:
            yield
        finally:
            runner.clear_caches()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_artifact_renders(capsys, shrunken_runs, name):
    """Every table and figure the CLI offers exits 0 and prints a table."""
    assert main(["experiment", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == name or lines[0].startswith(f"{name}:")
    # Past the title: a header (or section title) plus at least one data
    # row; separator lines of dashes do not count.
    rows = [line for line in lines[1:] if set(line) - {"-", " "}]
    assert len(rows) >= 2, lines
