"""The simulators' object graphs are acyclic, and the GC pause is sound.

A dropped engine, a dropped program store — compiled fetch variants,
trace segments, the fill unit's interned state graphs — and a dropped
machine core must die by refcount alone.  Cyclic garbage here would
wait for the cyclic collector, whose generation-0 passes then re-walk
everything long-lived; the scheduler pauses the GC once per unit of
work (``scheduler._run_point``) on the strength of this invariant, and
the workload generator once per program.
"""

import collections
import gc
import sys
import threading

import pytest

from repro.experiments import runner
from repro.experiments.paper import FIG10_CONFIGS, _machine_configs
from repro.frontend import store
from repro.gcpause import gc_paused

#: Long enough for every config to intern hundreds of fill-unit states
#: and compile thousands of fetch variants.
FRONTEND_N = 20_000
MACHINE_N = 1_000


def _cyclic_garbage(work):
    """Run ``work`` with the GC paused; return what a collection then finds.

    Collects first so that only objects ``work`` left behind are counted;
    ``gc.DEBUG_SAVEALL`` keeps them in ``gc.garbage`` for inspection.
    """
    gc.collect()
    with gc_paused():
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return found, garbage


@pytest.mark.parametrize("name,config", FIG10_CONFIGS,
                         ids=[name for name, _ in FIG10_CONFIGS])
def test_dropped_frontend_run_leaves_no_cyclic_garbage(name, config):
    program = runner.get_program("gcc")
    oracle = runner.get_oracle("gcc", FRONTEND_N)

    def work():
        runner.run_frontend(program, config, FRONTEND_N, oracle, fast=True)

    found, garbage = _cyclic_garbage(work)
    kinds = collections.Counter(type(o).__name__ for o in garbage)
    assert found == 0, kinds.most_common(8)


@pytest.mark.parametrize("name,config", _machine_configs(False),
                         ids=[name for name, _ in _machine_configs(False)])
def test_dropped_machine_run_leaves_no_fetch_side_garbage(name, config):
    """Warm-up plus machine window leave no cyclic garbage at all: no
    fetch-side object, and no in-flight record (the core releases the
    window's producer/consumer and checkpoint links at halt)."""
    program = runner.get_program("gcc")
    oracle = runner.get_oracle("gcc")

    def work():
        runner.run_machine(program, config, MACHINE_N, oracle, fast=True)

    found, garbage = _cyclic_garbage(work)
    kinds = collections.Counter(type(o).__name__ for o in garbage)
    assert found == 0, kinds.most_common(8)


def test_dropped_program_store_leaves_no_cyclic_garbage():
    """A program's store, filled by all five Fig 10 front ends, is
    acyclic too: dropping it leaves nothing for the cyclic GC."""
    program = runner.get_program("gcc")
    oracle = runner.get_oracle("gcc", FRONTEND_N)

    def work():
        for _name, config in FIG10_CONFIGS:
            runner.run_frontend(program, config, FRONTEND_N, oracle,
                                fast=True)
        held = store.program_store(program)
        assert held.blocks and held.fill and held.slots
        store.drop_program_store()

    found, garbage = _cyclic_garbage(work)
    kinds = collections.Counter(type(o).__name__ for o in garbage)
    assert found == 0, kinds.most_common(8)


def test_program_generation_leaves_no_cyclic_garbage():
    """The workload generator pauses the GC while it builds a program
    (``WorkloadGenerator.generate``), on the strength of building no
    reference cycles: the generator, its builders and the ``Draws``
    stream die by refcount alone."""
    from repro.workloads.generator import generate_program

    found, garbage = _cyclic_garbage(lambda: generate_program("compress"))
    kinds = collections.Counter(type(o).__name__ for o in garbage)
    assert found == 0, kinds.most_common(8)


def test_gc_paused_restores_when_nested():
    assert gc.isenabled()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_paused_keeps_a_disabled_gc_disabled():
    gc.disable()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_gc_paused_restores_on_exception():
    with pytest.raises(RuntimeError):
        with gc_paused():
            with gc_paused():
                raise RuntimeError("boom")
    assert gc.isenabled()


def test_gc_paused_overlapping_threads():
    """Two threads whose pauses overlap: the GC comes back only when the
    last one leaves, whichever entered first."""
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    seen = {}

    def first():
        with gc_paused():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with gc_paused():
            second_in.set()
            first_out.wait(5)
            seen["after_first_left"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen == {"after_first_left": False}
    assert gc.isenabled()


def test_gc_paused_stress():
    """Many threads entering and leaving nested pauses with a tiny switch
    interval: a lost depth update would re-enable the GC inside some
    thread's pause, or leave it off at the end."""
    reenabled = []

    def worker():
        for _ in range(500):
            with gc_paused():
                with gc_paused():
                    if gc.isenabled():
                        reenabled.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not reenabled
    assert gc.isenabled()
