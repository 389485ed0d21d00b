"""The program store: one program's compiled front-end state, shared by
every fast engine built for it on one thread (``repro.frontend.store``)."""

import threading
from dataclasses import replace

from repro.config import BASELINE, ICACHE, PROMOTION_PACKING
from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.paper import FIG10_CONFIGS
from repro.experiments.serialize import frontend_result_to_dict
from repro.frontend import store
from repro.frontend.build import build_engine, reset_compiled_state
from repro.frontend.fetch import ICacheFetchEngine, TraceFetchEngine
from repro.frontend.simulator import FrontEndSimulator
from repro.mem.hierarchy import MemoryConfig
from repro.trace.fill_unit import PackingPolicy

N = 12_000
#: A line size other than the default 64 bytes.
LINE_32 = MemoryConfig(l1i_line_bytes=32)

#: Fig 10's five front ends, then configs that must not be served what
#: the first five compiled: no inactive issue (other segment variants)
#: and 32-byte icache lines (other block walks and block variants).
POINTS = [(config, None) for _name, config in FIG10_CONFIGS] + [
    (replace(PROMOTION_PACKING, inactive_issue=False), None),
    (BASELINE, LINE_32),
    (ICACHE, LINE_32),
]


def _run(program, oracle, config, memory=None) -> str:
    engine = build_engine(program, config, memory_config=memory, fast=True)
    result = FrontEndSimulator(program, config, oracle=oracle,
                               max_instructions=N, engine=engine).run()
    return canonical_json(frontend_result_to_dict(result))


def test_shared_store_matches_cold_runs():
    """One process running every point on one program's store serializes
    exactly as each point run from an emptied store."""
    program = runner.get_program("gcc")
    oracle = runner.get_oracle("gcc", N)
    reset_compiled_state()
    shared = [_run(program, oracle, config, memory)
              for config, memory in POINTS]

    held = store.program_store(program)
    assert set(held.walks) == {64, 32}
    assert set(held.blocks) == {(ICacheFetchEngine, 64),
                                (TraceFetchEngine, 64),
                                (ICacheFetchEngine, 32),
                                (TraceFetchEngine, 32)}
    assert set(held.fill) == {(True, False), (False, False)}
    assert set(held.fill[True, False][1]) == {PackingPolicy.ATOMIC,
                                              PackingPolicy.UNREGULATED}

    cold = []
    for config, memory in POINTS:
        reset_compiled_state()
        cold.append(_run(program, oracle, config, memory))
    assert shared == cold


def test_threads_running_one_program_match_isolated_runs():
    """Each thread compiles into its own store, so two threads running
    one program at once get the isolated runs' results."""
    program = runner.get_program("compress")
    oracle = runner.get_oracle("compress", N)
    configs = [PROMOTION_PACKING, BASELINE]
    isolated = []
    for config in configs:
        reset_compiled_state()
        isolated.append(_run(program, oracle, config))

    results = [None, None]
    stores = [None, None]
    barrier = threading.Barrier(2)

    def work(index):
        barrier.wait()
        results[index] = [_run(program, oracle, configs[index])
                          for _ in range(2)]
        stores[index] = store.program_store(program)

    threads = [threading.Thread(target=work, args=(index,))
               for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert stores[0] is not stores[1]
    assert results == [[isolated[0]] * 2, [isolated[1]] * 2]


def test_store_follows_the_thread_program():
    """Another program replaces the thread's store; dropping it lets go."""
    first = runner.get_program("compress")
    held = store.program_store(first)
    assert store.program_store(first) is held
    assert held in store.live_stores()
    other = store.program_store(runner.get_program("m88ksim"))
    assert other is not held and other.program is not first
    store.drop_program_store()
    assert store.program_store(first) is not held
