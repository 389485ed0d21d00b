"""The divergence guard: lockstep validation, invariants, graceful fallback.

The acceptance bar has three parts.  *Soundness*: lockstep validation
over real configurations reports zero divergences (the fast stack really
does match the frozen reference), including through mid-stream
snapshot/restore round trips.  *Sensitivity*: an artificially perturbed
fast engine yields a divergence report on disk, replayable via the CLI.
*Graceful fallback*: a grid containing a diverging point completes with
the point recomputed on the reference engine, surfacing the divergence
in the end-of-run table instead of raising.
"""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import pytest

from repro import config as cfg
from repro import validate
from repro.config import BASELINE, PROMOTION
from repro.experiments import env, runner, scheduler, warnonce
from repro.experiments.cachekey import canonical_json
from repro.experiments.checkpoint import Journal
from repro.experiments.scheduler import GridPoint, run_grid
from repro.experiments.serialize import frontend_result_to_dict
from repro.frontend.build import build_engine, reset_compiled_state
from repro.frontend.simulator import FrontEndSimulator
from repro.validate import errors
from repro.validate.lockstep import lockstep
from repro.validate.report import load_report, replay_report

N = 6_000

_KNOBS = ("REPRO_VALIDATE", "REPRO_FAULTS", "REPRO_JOBS", "REPRO_RETRIES",
          "REPRO_KEEP_GOING", "REPRO_RESUME", "REPRO_ENGINE")


@pytest.fixture(autouse=True)
def fresh_state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for knob in _KNOBS:
        monkeypatch.delenv(knob, raising=False)
    monkeypatch.setenv("REPRO_BACKOFF", "0.01")
    errors.arm_forced_divergence(0)
    runner.clear_caches()
    scheduler.take_divergences()
    yield
    errors.arm_forced_divergence(0)
    runner.clear_caches()
    scheduler.take_divergences()


# --- env knob parsing --------------------------------------------------------


def test_env_getters(monkeypatch):
    monkeypatch.setenv("X_STR", "abc")
    assert env.get_str("X_STR", "d") == "abc"
    assert env.get_str("X_UNSET", "d") == "d"
    assert env.get_raw("X_UNSET") is None
    monkeypatch.setenv("X_FLAG", "0")
    assert env.get_flag("X_FLAG", True) is False
    monkeypatch.setenv("X_FLAG", "")
    assert env.get_flag("X_FLAG", True) is False
    monkeypatch.setenv("X_FLAG", "1")
    assert env.get_flag("X_FLAG", False) is True
    assert env.get_flag("X_UNSET", True) is True
    monkeypatch.setenv("X_INT", "7")
    assert env.get_int("X_INT", 1) == 7
    monkeypatch.setenv("X_FLOAT", "2.5")
    assert env.get_float("X_FLOAT", 1.0) == 2.5
    assert env.get_int("X_UNSET", 3) == 3


def test_env_invalid_warns_once(monkeypatch):
    warnonce.reset()
    monkeypatch.setenv("X_BAD_INT", "nope")
    with pytest.warns(RuntimeWarning, match="X_BAD_INT"):
        assert env.get_int("X_BAD_INT", 5) == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert env.get_int("X_BAD_INT", 5) == 5  # second read: silent


def test_parse_mode():
    assert validate.parse_mode(None) == ("off", 1)
    assert validate.parse_mode("0") == ("off", 1)
    assert validate.parse_mode("off") == ("off", 1)
    assert validate.parse_mode("lockstep") == ("lockstep", 1)
    assert validate.parse_mode("1") == ("lockstep", 1)
    assert validate.parse_mode("sample") == \
        ("sample", validate.DEFAULT_SAMPLE_STRIDE)
    assert validate.parse_mode("sample:10") == ("sample", 10)
    warnonce.reset()
    with pytest.warns(RuntimeWarning, match="REPRO_VALIDATE"):
        assert validate.parse_mode("bogus") == ("off", 1)


def test_armed_follows_env(monkeypatch):
    assert not validate.armed()
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    assert validate.armed()
    monkeypatch.setenv("REPRO_VALIDATE", "sample:8")
    assert validate.sample_stride() == 8


# --- lockstep soundness ------------------------------------------------------


def test_frontend_lockstep_clean(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    result = lockstep("frontend", "compress", cfg.PROMOTION_PACKING, N)
    assert result.instructions_retired > 0


def test_lockstep_sample_mode_clean(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "sample:16")
    result = lockstep("frontend", "compress", BASELINE, N, stride=16,
                      offset=3)
    assert result.instructions_retired > 0


def test_machine_lockstep_clean(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    result = lockstep("machine", "compress", cfg.MachineConfig(), 3_000,
                      warmup=False)
    assert result.retired == 3_000


# --- sensitivity: injected divergences --------------------------------------


def _injected_divergence(kind: str) -> errors.DivergenceError:
    """An injected divergence on one compress point of ``kind``; a
    machine point is warmed over ``N`` instructions."""
    errors.arm_forced_divergence()
    config = BASELINE if kind == "frontend" else cfg.MachineConfig()
    with pytest.raises(errors.DivergenceError) as excinfo:
        lockstep(kind, "compress", config, N, warmup_n=N)
    return excinfo.value


@pytest.mark.parametrize("kind", ["frontend", "machine"])
def test_injected_divergence_writes_replayable_report(kind):
    exc = _injected_divergence(kind)
    assert exc.injected
    assert exc.report_path is not None
    report = load_report(exc.report_path)
    assert report["benchmark"] == "compress"
    assert report["kind"] == kind
    assert report["repro_n"] <= N
    if kind == "machine":
        assert (report["warmup"], report["warmup_n"]) == (True, N)
    else:
        assert (report["warmup"], report["warmup_n"]) == (None, None)
    # The perturbation was transient, so the replay comes back clean.
    assert replay_report(exc.report_path) is None


def test_divergence_error_survives_pickling():
    import pickle
    exc = errors.DivergenceError("boom", 17, "/tmp/r.json", True)
    clone = pickle.loads(pickle.dumps(exc))
    assert clone.message == "boom"
    assert clone.fetch_index == 17
    assert clone.report_path == "/tmp/r.json"
    assert clone.injected


# --- graceful fallback: grids complete on the reference engine ---------------


def _grid():
    return [GridPoint("frontend", b, c, N)
            for b in ("compress", "m88ksim")
            for c in (BASELINE, cfg.PROMOTION_PACKING)]


def _dicts(results):
    return {point: canonical_json(frontend_result_to_dict(result))
            for point, result in results.items()}


def test_grid_diverted_point_completes_serial(monkeypatch):
    """A divergence in a serial grid requeues the point on the reference
    engine and the grid completes; the divergence shows up in the
    drainable log, not as a raised failure."""
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    errors.arm_forced_divergence()
    with pytest.warns(RuntimeWarning, match="diverged from the reference"):
        results = run_grid(_grid(), jobs=1)
    assert len(results) == len(_grid())
    divergences = scheduler.take_divergences()
    assert [f.kind for f in divergences] == ["divergence"]
    assert divergences[0].point.benchmark == "compress"
    assert scheduler.take_divergences() == []  # drained
    report_dir = Path(env.get_str("REPRO_CACHE_DIR")) / "divergences"
    assert list(report_dir.glob("div-*.json"))


def test_grid_divergence_matches_clean_reference_run(tmp_path, monkeypatch):
    """Acceptance: a perturbed grid is byte-identical to a clean
    reference-engine run of the same grid."""
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    monkeypatch.setenv("REPRO_FAULTS", "diverge:p0")
    with pytest.warns(RuntimeWarning, match="diverged from the reference"):
        perturbed = _dicts(run_grid(_grid(), jobs=2))
    assert len(scheduler.take_divergences()) == 1

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clean"))
    monkeypatch.delenv("REPRO_VALIDATE")
    monkeypatch.delenv("REPRO_FAULTS")
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    runner.clear_caches()
    clean = _dicts(run_grid(_grid(), jobs=1))
    assert perturbed == clean


def test_pinned_rerun_discards_stale_latch(monkeypatch):
    """A pinned reference re-run must drop a leftover forced latch so it
    cannot leak into a later validated point."""
    errors.arm_forced_divergence()
    result = runner.frontend_result("compress", BASELINE, N,
                                    engine="reference")
    assert result.instructions_retired > 0
    assert not errors.forced_pending()


# --- checkpoint journal: torn trailing line ----------------------------------


def test_journal_tolerates_torn_final_line(tmp_path):
    keys = ("k1", "k2")
    journal = Journal(keys)
    journal.record("k1", "frontend", {"x": 1})
    journal.record("k2", "frontend", {"x": 2})
    journal.close()
    # Simulate a SIGKILL mid-write: append a partial, non-JSON fragment.
    with open(journal.path, "a") as handle:
        handle.write('{"v": 3, "key": "k2", "pay')
    warnonce.reset()
    with pytest.warns(RuntimeWarning, match="torn partial line"):
        entries = Journal(keys).load()
    assert set(entries) == {"k1", "k2"}
    assert entries["k1"] == ("frontend", {"x": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Journal(keys).load()  # warned once, second load silent


def test_journal_complete_final_line_loads_silently(tmp_path):
    journal = Journal(("k1",))
    journal.record("k1", "frontend", {"x": 1})
    journal.close()
    # Strip the trailing newline: the last line is complete JSON but
    # unterminated — it must load, without a torn-line warning.
    text = journal.path.read_text().rstrip("\n")
    journal.path.write_text(text)
    warnonce.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries = Journal(("k1",)).load()
    assert entries["k1"] == ("frontend", {"x": 1})


# --- clear_caches drops compiled state ---------------------------------------


def test_clear_caches_resets_compiled_engine_state():
    program = runner.get_program("compress")
    engine = build_engine(program, PROMOTION, fast=True)
    FrontEndSimulator(program, PROMOTION,
                      oracle=runner.get_oracle("compress", N),
                      engine=engine).run()
    warmed = [segment for row in engine.trace_cache._sets for segment in row
              if segment._variants is not None or segment._fetch_plan is not None]
    assert warmed, "run should have compiled at least one segment plan"
    assert engine.fill_unit._segment_memo or engine._block_cache

    runner.clear_caches()  # lazily calls reset_compiled_state()

    for row in engine.trace_cache._sets:
        for segment in row:
            assert segment._variants is None
            assert segment._fetch_plan is None
            assert segment._fetch_slots is None
    assert not engine.fill_unit._segment_memo
    assert not engine._block_cache
    assert not engine._cand_cache


def test_reset_compiled_state_keeps_results_identical():
    """Dropping compiled caches is purely an eviction: a rerun after the
    reset must reproduce the exact same serialized result."""
    first = runner.frontend_result("compress", PROMOTION, N)
    first_bytes = canonical_json(frontend_result_to_dict(first))
    runner.clear_caches()
    reset_compiled_state()
    second = runner.frontend_result("compress", PROMOTION, N)
    assert canonical_json(frontend_result_to_dict(second)) == first_bytes


# --- structural invariants ---------------------------------------------------


def test_bias_table_invariant_armed_and_fires(monkeypatch):
    from repro.trace.bias_table import BranchBiasTable
    table = BranchBiasTable(entries=16, threshold=2)
    assert "update_fast" not in table.__dict__  # off: bare class method

    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    armed = BranchBiasTable(entries=16, threshold=2)
    assert "update_fast" in armed.__dict__
    for _ in range(3):
        armed.update_fast(0x40, True)  # promotes cleanly, no raise
    assert armed.is_promoted(0x40)
    # Force an inconsistent True return: the invariant must fire.
    monkeypatch.setattr(BranchBiasTable, "update_fast",
                        lambda self, pc, taken: True)
    with pytest.raises(errors.InvariantError, match="promoted branch"):
        armed.update_fast(0x999, True)


def test_ras_snapshot_invariant_armed_and_fires(monkeypatch):
    from repro.branch.ras import IdealReturnAddressStack
    ras = IdealReturnAddressStack()
    assert "snapshot" not in ras.__dict__

    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    armed = IdealReturnAddressStack()
    armed.push(100)
    assert armed.snapshot() == (100,)
    armed.push(200)
    assert armed.snapshot() == (100, 200)  # clean use never raises
    # Corrupt the copy-on-write contract behind the API's back.
    armed._stack.append(300)
    with pytest.raises(errors.InvariantError, match="stale"):
        armed.snapshot()


def test_fill_unit_segment_validation_follows_mode(monkeypatch):
    from repro.trace.fill_unit import FillUnit, TraceCache
    from repro.mem.hierarchy import MemoryHierarchy

    def build():
        tc = TraceCache(n_lines=64, assoc=2)
        return FillUnit(tc)

    assert not build()._validate_segments
    monkeypatch.setenv("REPRO_VALIDATE", "sample")
    assert build()._validate_segments


def test_machine_core_invariants_clean(monkeypatch):
    """An armed machine run exercises checkpoint/store-queue invariants
    on every restore without tripping them."""
    monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
    from repro.core.machine import Machine
    program = runner.get_program("compress")
    machine = Machine(program, cfg.MachineConfig(), max_instructions=2_000)
    assert machine._validate_state
    result = machine.run()
    assert result.retired == 2_000


# --- fuzzer smoke ------------------------------------------------------------


def _load_fuzzer():
    path = Path(__file__).parent.parent / "benchmarks" / "fuzz_frontend.py"
    spec = importlib.util.spec_from_file_location("fuzz_frontend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fuzzer_smoke():
    fuzz = _load_fuzzer()
    for seed in (0, 1, 2):
        fuzz.run_case("frontend", seed, length=2_500)


def test_fuzzer_main_reports_divergence(capsys):
    fuzz = _load_fuzzer()
    errors.arm_forced_divergence()
    # The latch makes the first case "diverge"; main must print the
    # reproducing seed and exit nonzero.
    assert fuzz.main(["--runs", "1", "--seed-base", "3",
                      "--length", "2500"]) == 1
    assert "seed 3" in capsys.readouterr().out


# --- CLI ---------------------------------------------------------------------


def test_cli_validate_replay_unreadable_report(tmp_path, capsys):
    from repro.__main__ import main
    missing = tmp_path / "nope.json"
    assert main(["validate-replay", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 999}))
    assert main(["validate-replay", str(bad)]) == 2


@pytest.mark.parametrize("kind", ["frontend", "machine"])
def test_cli_validate_replay_roundtrip(kind, capsys):
    exc = _injected_divergence(kind)
    from repro.__main__ import main
    assert main(["validate-replay", exc.report_path]) == 0
    assert "does not reproduce" in capsys.readouterr().out
