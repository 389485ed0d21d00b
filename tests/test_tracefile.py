"""Binary oracle trace files: round-trip fidelity and failure recovery."""

import json
import struct
import zlib

import pytest

from repro.config import BASELINE, PROMOTION_PACKING, MachineConfig
from repro.experiments import runner, tracefile
from repro.experiments.scheduler import GridPoint, run_grid
from repro.experiments.serialize import machine_result_to_dict
from repro.frontend.simulator import compute_oracle

N = 6_000


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """Each test gets an empty cache dir (results and trace files)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_FILES", raising=False)
    # Keep the grid test's machine warmups (which run at the benchmark's
    # default length) short.
    monkeypatch.setenv("REPRO_SCALE", "0.1")
    runner.clear_caches()
    yield
    runner.clear_caches()


# --- round trip --------------------------------------------------------------


def test_round_trip_identical_stream():
    program = runner.get_program("compress")
    oracle = compute_oracle(program, N)
    assert tracefile.store_oracle("compress", N, oracle) is not None

    loaded = tracefile.load_oracle("compress", N, program)
    assert loaded is not None
    assert len(loaded) == len(oracle)
    for (inst_a, taken_a, next_a), (inst_b, taken_b, next_b) in zip(oracle, loaded):
        assert inst_a is inst_b  # same Instruction object from the code image
        assert taken_a == taken_b and type(taken_a) is type(taken_b)
        assert next_a == next_b


def test_get_oracle_uses_trace_file_across_processes(monkeypatch):
    """A second process (simulated by clearing memos) must not re-execute."""
    first = runner.get_oracle("compress", N)
    assert tracefile.stats()["entries"] == 1
    runner.clear_caches()  # memos only; the trace file survives

    def boom(*args, **kwargs):
        raise AssertionError("functional re-execution despite a stored trace")

    monkeypatch.setattr(runner, "compute_oracle", boom)
    second = runner.get_oracle("compress", N)
    assert [(i.addr, t, p) for i, t, p in first] == \
        [(i.addr, t, p) for i, t, p in second]


def test_trace_files_can_be_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_FILES", "0")
    runner.get_oracle("compress", N)
    assert tracefile.stats()["entries"] == 0


def test_lengths_do_not_collide():
    runner.get_oracle("compress", N)
    runner.get_oracle("compress", N // 2)
    assert tracefile.stats()["entries"] == 2
    program = runner.get_program("compress")
    assert len(tracefile.load_oracle("compress", N // 2, program)) == N // 2


def test_as_columns_memoizes_plain_lists(loop_program):
    rows = list(compute_oracle(loop_program, 500))
    assert type(rows) is list
    first = tracefile.as_columns(rows)
    assert tracefile.as_columns(rows) is first  # cached build
    tracefile.clear_column_memo()
    rebuilt = tracefile.as_columns(rows)
    assert rebuilt is not first
    assert bytes(rebuilt.dirs) == bytes(first.dirs)
    # An OracleTrace passes through untouched.
    assert tracefile.as_columns(first) is first


# --- corruption and version recovery (mirrors the result cache's rules) ------


def _stored_path():
    runner.get_oracle("compress", N)
    path = tracefile.trace_path("compress", N)
    assert path.exists()
    return path


def test_wrong_version_is_discarded():
    path = _stored_path()
    raw = bytearray(path.read_bytes())
    # Overwrite the version field (bytes 4:8 of the header).
    raw[4:8] = struct.pack("<I", tracefile.TRACE_FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))

    program = runner.get_program("compress")
    assert tracefile.load_oracle("compress", N, program) is None
    assert not path.exists()  # deleted, not left to shadow future writes


def test_truncated_file_is_discarded():
    path = _stored_path()
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    assert tracefile.load_oracle("compress", N, runner.get_program("compress")) is None
    assert not path.exists()


def test_bit_flip_fails_checksum_and_recovers():
    path = _stored_path()
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF  # corrupt the payload, keep the header plausible
    path.write_bytes(bytes(raw))

    runner.clear_caches()
    # The corrupt file is a miss: get_oracle recomputes and re-stores.
    oracle = runner.get_oracle("compress", N)
    assert len(oracle) == N
    assert tracefile.load_oracle("compress", N, runner.get_program("compress")) is not None


def test_garbage_file_is_discarded():
    path = _stored_path()
    path.write_bytes(b"definitely not a trace file")
    assert tracefile.load_oracle("compress", N, runner.get_program("compress")) is None
    assert not path.exists()


@pytest.mark.parametrize("column", ["address", "direction"])
def test_checksummed_payload_off_the_image_is_discarded(column):
    """A payload that passes the CRC but names an address past the code
    image, or a direction byte other than 0/1/2, is still a miss."""
    path = _stored_path()
    raw = bytearray(path.read_bytes())
    header = struct.calcsize("<4sIQII")
    if column == "address":
        raw[header:header + 4] = struct.pack("<I", 0xFFFFFFFF)
    else:
        raw[header + 4 * N] = 7
    raw[header - 4:header] = struct.pack("<I", zlib.crc32(raw[header:]))
    path.write_bytes(bytes(raw))
    assert tracefile.load_oracle("compress", N, runner.get_program("compress")) is None
    assert not path.exists()


# --- end-to-end equality: serial == parallel == trace-replayed ---------------


def _machine_grid():
    return [GridPoint("machine", b, MachineConfig(frontend=c), 2_000, warmup)
            for b in ("compress", "m88ksim")
            for c, warmup in ((BASELINE, True), (PROMOTION_PACKING, False))]


def test_serial_parallel_and_trace_replayed_results_are_equal(monkeypatch):
    serial = run_grid(_machine_grid(), jobs=1)

    runner.clear_caches(disk=True)
    parallel = run_grid(_machine_grid(), jobs=2)

    # Third pass: memos cleared but trace files kept, so every warmup
    # oracle is replayed from the binary trace instead of re-executed.
    runner.clear_caches()
    for path in tracefile.trace_dir().glob("*.trace"):
        assert path.exists()
    monkeypatch.setattr(runner, "compute_oracle",
                        lambda *a, **k: pytest.fail("oracle re-executed"))
    import repro.experiments.diskcache as diskcache
    diskcache.purge()  # force real re-simulation, not a cached result load
    replayed = run_grid(_machine_grid(), jobs=1)

    serial_json = sorted(json.dumps(machine_result_to_dict(r), sort_keys=True)
                         for r in serial.values())
    parallel_json = sorted(json.dumps(machine_result_to_dict(r), sort_keys=True)
                           for r in parallel.values())
    replayed_json = sorted(json.dumps(machine_result_to_dict(r), sort_keys=True)
                           for r in replayed.values())
    assert serial_json == parallel_json == replayed_json
