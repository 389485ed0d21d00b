"""Targeted micro-tests of the machine's recovery machinery: inactive
issue, dormant activation, promoted-fault rollback, misfetch stalls."""

from dataclasses import replace

import pytest

from repro import BASELINE, PROMOTION, PROMOTION_COST_REG, generate_program
from repro.config import MachineConfig
from repro.core.machine import Machine
from repro.core.machine_reference import Machine as ReferenceMachine
from repro.experiments.cachekey import canonical_json
from repro.experiments.serialize import machine_result_to_dict
from repro.frontend.stats import CycleCategory
from repro.isa import FunctionalExecutor, assemble


def run_machine(program, frontend=BASELINE, n=None):
    machine = Machine(program, MachineConfig(frontend=frontend), max_instructions=n)
    result = machine.run()
    return machine, result


def check_arch(program, machine, n=None):
    reference = FunctionalExecutor(program, max_instructions=n)
    reference.run_to_completion()
    assert machine.arch_regs == reference.state.regs


def test_inactive_issue_happens_and_pays_off():
    """A benchmark with mispredictions must issue dormant instructions and
    activate some of them (the trace path was right, the prediction wrong)."""
    program = generate_program("compress")
    _machine, result = run_machine(program, n=20_000)
    assert result.inactive_issued > 100
    assert 0 < result.dormant_activations <= result.inactive_issued


def test_disabling_inactive_issue_zeroes_the_counters():
    program = generate_program("compress")
    frontend = replace(BASELINE, inactive_issue=False)
    machine, result = run_machine(program, frontend=frontend, n=20_000)
    assert result.inactive_issued == 0
    assert result.dormant_activations == 0
    check_arch(program, machine, n=20_000)


def test_alternating_branch_forces_activations():
    """A strictly alternating branch guarantees trace/prediction clashes:
    whichever direction the trace embeds is wrong half the time."""
    source = """
        .data
flags:  .words 1 0 1 0 1 0 1 0
        .text
main:   ADDI r10, r0, 300
loop:   ANDI r1, r10, 7
        LD r2, flags(r1)
        BEQ r2, r0, skip
        ADD r20, r20, r2
        ADD r21, r21, r2
skip:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
"""
    program = assemble(source)
    machine, result = run_machine(program, n=None)
    assert result.inactive_issued > 0
    check_arch(program, machine)
    assert machine.arch_regs[20] == 150  # every other of 300 iterations


def test_promoted_fault_recovery_is_architecturally_clean():
    """A branch that is strongly biased then flips direction forces a
    promoted-branch fault; the machine must recover exactly."""
    source = """
        .data
bias:   .words 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1
        .text
main:   ADDI r10, r0, 640
loop:   ANDI r1, r10, 15
        LD r2, bias(r1)
        BNE r2, r0, rare
        ADDI r20, r20, 1
        JMP next
rare:   ADDI r21, r21, 1
next:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
"""
    program = assemble(source)
    frontend = replace(PROMOTION, promote_threshold=8)
    machine, result = run_machine(program, frontend=frontend, n=None)
    assert result.promotions > 0
    assert result.promoted_faults > 0
    check_arch(program, machine)
    assert machine.arch_regs[20] == 600
    assert machine.arch_regs[21] == 40


def test_fault_override_prevents_livelock():
    """After a promoted fault, refetching the same trace line must not
    fault forever: the one-shot override executes the branch correctly."""
    source = """
        .data
bias:   .words 0 0 0 0 0 0 0 1
        .text
main:   ADDI r10, r0, 320
loop:   ANDI r1, r10, 7
        LD r2, bias(r1)
        BNE r2, r0, rare
        ADDI r20, r20, 1
        JMP next
rare:   ADDI r21, r21, 1
next:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
"""
    program = assemble(source)
    frontend = replace(PROMOTION, promote_threshold=4)
    machine, result = run_machine(program, frontend=frontend, n=None)
    # Completion within the cycle cap proves no livelock; fault count is
    # bounded by the number of rare outcomes.
    assert result.promoted_faults <= 80
    check_arch(program, machine)


def test_dormant_buffer_squashed_by_an_older_fault_reactivates(monkeypatch):
    """A promoted fault rolls back to a still-unresolved branch's own
    checkpoint, squashing that branch's dormant buffer; the branch then
    resolves against its prediction and activates the squashed buffer.

    B (the ``BEQ``) waits on a load and two multiplies, while the
    promoted ``BNE`` on its predicted path waits on the load alone and,
    on that wrong path, faults first.  The squash pops the buffer off the
    ROB, so the activation must put it back at the young end, in order.
    """
    source = """
        .data
vals:   .words 0 0 0 0 0 5 5 0 0 5 0 5 0 5 5 0 0 5 0 5 5 0 5 0 5 0 0 0 0 0 0 0
        .words 0 5 0 5 0 0 0 0 0 0 0 0 5 5 0 5 5 5 0 0 0 5 5 0 5 0 0 0 0 0 5 5
        .text
main:   ADDI r10, r0, 2000
        ADDI r7, r0, 3
loop:   ANDI r3, r10, 63
        LD r1, vals(r3)
        MUL r2, r1, r7
        MUL r2, r2, r7
        BEQ r2, r0, ltaken
        ADD r20, r20, r1
        ADD r21, r21, r1
        JMP join
ltaken: ADD r22, r22, r1
        BNE r1, r0, never
        ADDI r23, r23, 1
join:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
never:  ADDI r24, r24, 1
        HALT
"""
    program = assemble(source)
    reactivated = []
    activate = Machine._activate_dormant

    def spy(self, buffer):
        reactivated.extend(rec for rec in buffer
                           if rec.squashed and rec.dispatch_cycle >= 0)
        return activate(self, buffer)

    monkeypatch.setattr(Machine, "_activate_dormant", spy)
    frontend = replace(PROMOTION, promote_threshold=8)
    machine, result = run_machine(program, frontend=frontend, n=None)
    assert reactivated
    check_arch(program, machine)
    reference = ReferenceMachine(program, MachineConfig(frontend=frontend),
                                 max_instructions=None).run()
    assert canonical_json(machine_result_to_dict(result)) == \
        canonical_json(machine_result_to_dict(reference))


def test_misfetch_stalls_then_redirects(switch_program):
    machine, result = run_machine(switch_program, n=None)
    assert result.cycle_accounting[CycleCategory.MISFETCHES] > 0
    check_arch(switch_program, machine)


def test_resolution_time_grows_with_data_chained_branches():
    """A branch waiting on a cache-missing load resolves much later than
    one testing an immediately ready register."""
    fast_src = """
main:   ADDI r10, r0, 400
loop:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
"""
    slow_src = """
        .data
work:   .space 4096
        .text
main:   ADDI r10, r0, 400
loop:   MUL r1, r10, r10
        ANDI r1, r1, 4095
        LD r2, work(r1)
        ADD r3, r2, r10
        BNE r10, r3, cont
        ADDI r20, r20, 1
cont:   ADDI r10, r10, -1
        BNE r10, r0, loop
        HALT
"""
    fast = run_machine(assemble(fast_src), n=None)[1]
    slow = run_machine(assemble(slow_src), n=None)[1]
    # Both resolve within pipeline-scale bounds; data-chained code pays in
    # cycles per instruction even when its branches stay predictable.
    for result in (fast, slow):
        if result.resolution_count:
            assert 2.0 <= result.avg_resolution_time <= 80.0


def test_warmed_engine_reuse():
    """A machine run on an engine warmed by the front-end simulator is
    still architecturally exact and sees a warmer trace cache."""
    from repro.frontend.build import build_engine
    from repro.frontend.simulator import FrontEndSimulator

    program = generate_program("compress")
    n = 15_000
    cold_machine, cold = run_machine(program, n=n)

    engine = build_engine(program, BASELINE)
    FrontEndSimulator(program, BASELINE, max_instructions=40_000,
                      engine=engine).run()
    tc_hits_before = engine.trace_cache.stats.hits
    warm_machine = Machine(program, MachineConfig(frontend=BASELINE),
                           max_instructions=n, engine=engine)
    warm = warm_machine.run()
    check_arch(program, warm_machine, n=n)
    warm_hits = warm.tc_hits - tc_hits_before
    assert warm_hits / max(1, warm.fetches) >= \
        0.9 * (cold.tc_hits / max(1, cold.fetches))


def test_promotion_costreg_machine_counters():
    program = generate_program("plot")
    _machine, result = run_machine(program, frontend=PROMOTION_COST_REG, n=30_000)
    assert result.promoted_branches > 0
    assert result.fill_reasons  # fill unit produced segments
    assert result.retired == 30_000
