"""Byte-level parity between the fast front end and the frozen reference.

The fast stack (array-backed predictors in :mod:`repro.branch`, compiled
segment and icache-block fetch variants in :mod:`repro.frontend.fetch`,
the state-machine fill unit in :mod:`repro.trace.fill_unit`) is a pure
performance change.
These tests pin the contract that makes it trustworthy: on identical
inputs its serialized :class:`FrontEndResult` — every counter in
``FetchStats``, every histogram bucket, every derived rate — must be
**byte-identical** to the frozen seed copies
(:mod:`repro.branch.reference`, :mod:`repro.frontend.fetch_reference`,
:mod:`repro.trace.fill_unit_reference`), and the two stacks must stay in
lockstep fetch-by-fetch through randomized probe streams and mid-stream
snapshot/restore round trips.  With snapshot capture on, as under the
machine core, the fast engines' compiled fetches must deliver the
reference walks' checkpoint snapshots and prediction records, fetch by
fetch.
"""

import random
from dataclasses import replace

import pytest

from repro import config as cfg
from repro.experiments import runner
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import frontend_result_to_dict
from repro.frontend.build import build_engine, build_predictor
from repro.frontend.fetch import FETCH_WIDTH
from repro.frontend.simulator import FrontEndSimulator, compute_oracle
from repro.frontend.stats import FetchReason
from repro.isa import assemble
from repro.isa.opcodes import Opcode
from repro.validate.digests import engine_digest

N = 12_000

CASES = [
    pytest.param("compress", cfg.BASELINE, id="compress-baseline"),
    pytest.param("compress", cfg.PROMOTION_PACKING, id="compress-packing"),
    pytest.param("gcc", cfg.PROMOTION, id="gcc-promotion"),
    pytest.param("gcc", cfg.PROMOTION_PACKING, id="gcc-packing"),
    pytest.param("go", cfg.PROMOTION_COST_REG, id="go-cost-regulated"),
    pytest.param("perl", cfg.ICACHE, id="perl-icache"),
]


def _run(benchmark: str, config, fast: bool):
    program = runner.get_program(benchmark)
    engine = build_engine(program, config, fast=fast)
    return FrontEndSimulator(program, config,
                             oracle=runner.get_oracle(benchmark, N),
                             engine=engine).run()


@pytest.mark.parametrize("bench, config", CASES)
def test_fast_frontend_matches_reference(bench, config):
    reference = _run(bench, config, fast=False)
    optimized = _run(bench, config, fast=True)
    assert canonical_json(frontend_result_to_dict(optimized)) == \
        canonical_json(frontend_result_to_dict(reference))


def test_parity_covers_fetch_stats_exactly():
    """Stats equality is exact: same fetch counts, same histogram buckets."""
    reference = _run("compress", cfg.PROMOTION_PACKING, fast=False)
    optimized = _run("compress", cfg.PROMOTION_PACKING, fast=True)
    assert optimized.stats.fetches == reference.stats.fetches
    assert optimized.stats.cond_mispredicts == reference.stats.cond_mispredicts
    assert optimized.stats.promoted_branches == reference.stats.promoted_branches
    assert dict(optimized.stats.size_reason_histogram) == \
        dict(reference.stats.size_reason_histogram)
    assert dict(optimized.stats.predictions_histogram) == \
        dict(reference.stats.predictions_histogram)
    assert optimized.cycles == reference.cycles


@pytest.mark.parametrize("kind", ["tree", "split"])
def test_randomized_predictor_training_parity(kind):
    """The array-backed predictors train identically to the reference.

    Drives both organizations through the same randomized
    predict/update stream — random fetch addresses and histories,
    training each supplied slot with a random mix of agreeing and
    disagreeing outcomes — and requires identical patterns and counter
    tokens at every step.
    """
    config = cfg.BASELINE
    if kind == "split":
        config = replace(config, predictor="split")
    fast = build_predictor(config, fast=True)
    ref = build_predictor(config, fast=False)
    rng = random.Random(0xC0FFEE)
    for _ in range(3_000):
        pc = rng.randrange(1 << 20)
        history = rng.getrandbits(14)
        got_fast = fast.predict(pc, history)
        got_ref = ref.predict(pc, history)
        # The two stacks' MultiPrediction types are distinct classes;
        # compare the fields.
        assert tuple(got_fast.taken) == tuple(got_ref.taken)
        assert tuple(got_fast.indices) == tuple(got_ref.indices)
        # The fast stack's packed-pattern entry point is the same table
        # walk as predict(): identical bits, identical update tokens.
        pattern, t0, t1, t2 = fast.predict_pattern(pc, history)
        assert (t0, t1, t2) == got_fast.indices
        assert tuple(bool((pattern >> k) & 1) for k in range(3)) == \
            got_fast.taken
        path = ()
        for k in range(rng.randrange(4)):
            predicted = got_fast.taken[k]
            taken = predicted if rng.random() < 0.7 else not predicted
            fast.update(got_fast.indices[k], k, path, taken)
            ref.update(got_ref.indices[k], k, path, taken)
            path = path + (taken,)


def test_snapshot_restore_roundtrip_midstream():
    """Fast and reference engines stay in lockstep through randomized
    probes with snapshot/restore round trips interleaved mid-stream."""
    program = runner.get_program("compress")
    oracle = runner.get_oracle("compress", N)
    config = cfg.PROMOTION
    fast = build_engine(program, config, fast=True)
    ref = build_engine(program, config, fast=False)
    # Warm both stacks identically so the probes hit real segments.
    FrontEndSimulator(program, config, oracle=oracle, engine=fast).run()
    FrontEndSimulator(program, config, oracle=oracle, engine=ref).run()

    def sig(result):
        return (
            result.pc,
            result.source,
            result.next_pc,
            tuple(inst.addr for inst in result.active),
            tuple(result.active_dirs),
            tuple(result.active_promoted),
            result.predictions_used,
            result.raw_reason,
            result.divergence,
        )

    rng = random.Random(1998)
    snap_fast = snap_ref = None
    for i in range(400):
        pc = oracle[rng.randrange(len(oracle))][0].addr
        if i % 29 == 0:
            snap_fast, snap_ref = fast.snapshot(), ref.snapshot()
            assert snap_fast == snap_ref
        assert sig(fast.fetch(pc)) == sig(ref.fetch(pc))
        if i % 29 == 17:
            fast.restore(snap_fast)
            ref.restore(snap_ref)
            assert fast.snapshot() == snap_fast
            assert ref.snapshot() == snap_ref


def _fetch_kinds(result) -> set:
    """What one capture-on fetch exercised (for coverage)."""
    if not result.active:
        return {"empty"}
    kinds = set()
    if result.stall_cycles:
        kinds.add("stall")
    if result.source == "icache":
        last = result.active[-1].op
        kinds.add(last.mnemonic if last.ends_fetch_block else "plain")
        if last.is_cond_branch:
            kinds.add("taken" if result.active_dirs[-1] else "not-taken")
        if not last.ends_fetch_block and len(result.active) < FETCH_WIDTH:
            kinds.add("split-line")
        if result.raw_reason is FetchReason.MAX_SIZE:
            kinds.add("max-size")
    if result.divergence and result.inactive:
        kinds.add("inactive-remainder")
    if any(result.active_promoted[pos] for pos in result.control_snapshots):
        kinds.add("promoted")
    calls = [pos for pos, inst in enumerate(result.active)
             if inst.op is Opcode.CALL]
    for pos in result.control_snapshots:
        before = sum(1 for call in calls if call < pos)
        if before:
            kinds.add("call-before-branch")
            if before < len(calls):
                kinds.add("calls-around-branch")
    if result.variant is None:
        kinds.add("fault-override-walk")
    return kinds


def _capture_signature(result) -> tuple:
    """Everything the machine core reads from a capture-on fetch."""
    return (
        result.source,
        result.next_pc,
        tuple(inst.addr for inst in result.active),
        tuple(result.active_dirs),
        tuple(bool(p) for p in result.active_promoted),
        tuple(inst.addr for inst in result.inactive),
        tuple(result.inactive_dirs),
        tuple(bool(p) for p in result.inactive_promoted),
        result.stall_cycles,
        result.ends_with_trap,
        sorted(result.control_snapshots.items()),
        [(r.addr, r.position, r.predicted) for r in result.pred_records],
    )


_BLOCK_KINDS = {"empty", "plain", "split-line", "max-size", "stall", "taken",
                "not-taken", "CALL", "RET", "JR", "TRAP", "HALT", "JMP"}


@pytest.mark.parametrize("config, expected", [
    pytest.param(cfg.ICACHE, _BLOCK_KINDS, id="icache-engine"),
    pytest.param(cfg.PROMOTION_PACKING,
                 {"split-line", "max-size", "inactive-remainder", "promoted",
                  "call-before-branch", "fault-override-walk"},
                 id="trace-engine"),
])
def test_capture_fetches_match_reference(config, expected):
    """With snapshot capture on (as under the machine core), compiled
    fetches deliver exactly what the reference engine's walks do.

    A fast and a reference engine are trained by the same front-end run,
    then take the same probe stream: every pc of gcc in random order,
    plus pcs drawn from the correct-path stream (segment starts), plus
    pcs off the code image.  Every few probes both engines get the same
    promoted-fault override, so the fast engine's one remaining walk runs
    too.  Instructions, directions, inactive remainders, successors,
    checkpoint snapshots and prediction records must agree fetch by
    fetch, and so must the speculative state after each fetch and the
    engines' digests at the end.
    """
    program = runner.get_program("gcc")
    oracle = runner.get_oracle("gcc", N)
    fast = build_engine(program, config, fast=True)
    ref = build_engine(program, config, fast=False)
    for engine in (fast, ref):
        FrontEndSimulator(program, config, oracle=oracle, engine=engine).run()
        engine.capture_snapshots = True
    rng = random.Random(20)
    probes = list(range(len(program))) + [len(program) + 7, len(program) + 99]
    probes += [oracle[rng.randrange(len(oracle))][0].addr for _ in range(4000)]
    rng.shuffle(probes)
    seen = set()
    for i, pc in enumerate(probes):
        got = fast.fetch(pc)
        want = ref.fetch(pc)
        assert _capture_signature(got) == _capture_signature(want), pc
        assert fast.snapshot() == ref.snapshot()
        seen |= _fetch_kinds(got)
        promoted = [inst.addr for inst, p in zip(got.active, got.active_promoted)
                    if p]
        if promoted and i % 7 == 0:
            addr = promoted[0]
            direction = not got.active_dirs[got.active_promoted.index(True)]
            fast.add_fault_override(addr, direction)
            ref.add_fault_override(addr, direction)
            got = fast.fetch(pc)
            assert _capture_signature(got) == _capture_signature(ref.fetch(pc))
            assert fast.snapshot() == ref.snapshot()
            seen |= _fetch_kinds(got)
    assert engine_digest(fast) == engine_digest(ref)
    assert seen >= expected


NESTED_CALLS_SOURCE = """
        .text
main:   ADDI r10, r0, 300
loop:   CALL f
        ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
f:      ADD r5, r31, r0
        ANDI r1, r10, 3
        BEQ r1, r0, fskip
        ADDI r2, r2, 1
fskip:  CALL g
        ADD r31, r5, r0
        RET
g:      ADDI r3, r3, 1
        RET
"""


def test_capture_snapshot_between_calls():
    """A trace segment holding CALL, branch, CALL: the branch's RAS
    snapshot takes the first push only.  Rare in the paper workloads
    (none in gcc at this length), so a small program forces it."""
    program = assemble(NESTED_CALLS_SOURCE, name="nested-calls")
    oracle = compute_oracle(program, 4000)
    config = cfg.BASELINE
    fast = build_engine(program, config, fast=True)
    ref = build_engine(program, config, fast=False)
    for engine in (fast, ref):
        FrontEndSimulator(program, config, oracle=oracle, engine=engine).run()
        engine.capture_snapshots = True
    seen = set()
    for pc in [row[0].addr for row in oracle[:600]]:
        got = fast.fetch(pc)
        assert _capture_signature(got) == _capture_signature(ref.fetch(pc)), pc
        assert fast.snapshot() == ref.snapshot()
        seen |= _fetch_kinds(got)
    assert "calls-around-branch" in seen
