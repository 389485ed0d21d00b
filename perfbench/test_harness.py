"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import multiprocessing
import threading
import time

import pytest

import harness
from tracing import Tracer, self_times


def test_self_times_subtract_children():
    spans = [
        ["root", 0, 100, -1, 1],
        ["a", 10, 50, 0, 1],
        ["b", 20, 30, 1, 1],
        ["b", 60, 90, 0, 1],
    ]
    got = {name: round(s * 1e9) for name, s in self_times(spans).items()}
    assert got == {"root": 100 - 40 - 30, "a": 40 - 10, "b": 10 + 30}
    assert sum(got.values()) == 100


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def outer():
        inner()
        time.sleep(0.001)
        inner()

    with tracer.span("root"):
        tracer.wrap("outer", outer)()
    root = tracer.spans[0]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    total = sum(self_times(tracer.spans).values())
    assert total == pytest.approx((root[2] - root[1]) / 1e9, abs=1e-9)


def test_tracer_restore_puts_originals_back():
    class Target:
        def value(self):
            return 7

    original = Target.__dict__["value"]
    tracer = Tracer()
    tracer.patch(Target, "value", "target",
                 lambda t, result, _args: t.count("seen", result))
    assert Target().value() == 7
    assert tracer.counts["seen"] == 7 and tracer.spans[0][0] == "target"
    tracer.restore()
    assert Target.__dict__["value"] is original


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = harness.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = harness.tail([5.0] * 3 + list(range(11)))
    assert n == 14 and value == 3 and pct == pytest.approx(100 * 4 / 14)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_scaled_clock_weights_readings_by_lap_length(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
    readings = iter([0.008, 0.008, 0.024, 0.024])

    def loop():
        now[0] += 0.5  # the loop's own time is in no lap
        return next(readings)

    clock = harness.ScaledClock(loop=loop)
    clock.start()
    now[0] += 3.0
    clock.lap()  # 3 s read at 0.008 on both ends
    now[0] += 1.0
    assert clock.split() == pytest.approx(4.0)  # 1 s read at 0.016
    mean = (3 * 0.008 + 1 * 0.016) / 4
    assert clock.factor() == pytest.approx(harness.REFERENCE_LOOP_S / mean)
    now[0] += 2.0
    assert clock.split() == pytest.approx(2.0)  # 2 s read at 0.024
    mean = (3 * 0.008 + 1 * 0.016 + 2 * 0.024) / 6
    assert clock.raw == pytest.approx(6.0)
    assert clock.factor() == pytest.approx(harness.REFERENCE_LOOP_S / mean)


def test_digest_check_fails_on_a_perturbed_result(tmp_path):
    payload = {"benchmark": "compress", "cycles": 1234,
               "stats": {"fetches": 10, "histogram": {"4": 2}}}
    book_path = tmp_path / "reference.json"
    book_path.write_text(json.dumps({
        "scale": 0.25, "points": {
            "frontend/compress/icache": {
                "n": 100, "digest": harness.digest(payload)}}}))
    book = harness.DigestBook(book_path)
    assert book.matches("frontend/compress/icache", payload)
    # Key order does not matter; any value change does.
    assert book.matches("frontend/compress/icache",
                        dict(reversed(list(payload.items()))))
    perturbed = json.loads(json.dumps(payload))
    perturbed["stats"]["histogram"]["4"] = 3
    assert not book.matches("frontend/compress/icache", perturbed)
    assert not book.matches("frontend/gcc/icache", payload)


def test_leftover_check_fails_while_a_child_process_lives():
    before = harness.thread_snapshot()
    assert harness.leftovers(before) == []
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,))
    child.start()
    try:
        assert any(item.startswith("process")
                   for item in harness.leftovers(before))
    finally:
        child.terminate()
        child.join(timeout=30)
    assert not child.is_alive()
    assert harness.leftovers(before) == []


def test_leftover_check_fails_while_a_started_thread_lives():
    before = harness.thread_snapshot()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, name="lingering")
    worker.start()
    try:
        assert harness.leftovers(before) == ["thread lingering"]
    finally:
        stop.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert harness.leftovers(before) == []


def test_unit_clock_shares_a_batch_among_its_members():
    import run

    class Batch:
        points = ("a", "b", "c")

    latencies = []
    clock = harness.ScaledClock(loop=lambda: harness.REFERENCE_LOOP_S)
    clock.start()
    timed = run.unit_clock(latencies, clock)(lambda unit: time.sleep(0.003))
    timed("point")
    timed(Batch())
    assert len(latencies) == 4
    assert latencies[1] == latencies[2] == latencies[3]
    assert latencies[0] >= 0.003 and latencies[1] * 3 >= 0.003
    assert sum(latencies) == pytest.approx(clock.raw)


def test_paper_sessions_record_requests_without_simulating():
    import run
    from repro.experiments import paper

    points = run.grid_points("frontend") + run.grid_points("machine")
    originals = {name: vars(paper)[name] for name in (
        "prefetch_frontend", "prefetch_machine", "frontend_result",
        "machine_result")}
    sessions = dict(run.paper_sessions(points))
    assert {name: vars(paper)[name] for name in originals} == originals
    assert len(sessions["fig10"]) == 15 and len(sessions["fig11"]) == 9
    assert sessions["fig4"] == [("frontend/gcc/baseline",
                                 dict(points)["frontend/gcc/baseline"])]
    assert "fig16" not in sessions  # perfect disambiguation: not pre-filled
    requested = [point_id for kept in sessions.values()
                 for point_id, _point in kept]
    assert set(requested) == {point_id for point_id, _point in points}
    assert requested.count("frontend/gcc/baseline") == 6
