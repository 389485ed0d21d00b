"""repro — a reproduction of Patel, Evers & Patt (ISCA 1998):
*Improving Trace Cache Effectiveness with Branch Promotion and Trace
Packing*.

The package implements the paper's complete system stack in Python:

* a small RISC ISA with an assembler and functional executor
  (:mod:`repro.isa`);
* synthetic workloads standing in for SPECint95 + UNIX applications
  (:mod:`repro.workloads`);
* branch predictors — the multiple branch predictor, its split-table
  variant, and the icache configuration's hybrid (:mod:`repro.branch`);
* the memory hierarchy (:mod:`repro.mem`);
* the trace cache, fill unit, branch bias table, branch promotion, and
  every trace-packing policy (:mod:`repro.trace`) — the paper's primary
  contribution;
* trace-cache and icache fetch engines with partial matching and inactive
  issue, plus a fast oracle-driven front-end simulator
  (:mod:`repro.frontend`);
* a cycle-level out-of-order machine with checkpoint repair, wrong-path
  execution, and conservative/perfect memory disambiguation
  (:mod:`repro.core`);
* experiment definitions regenerating every table and figure in the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import simulate_frontend, BASELINE, PROMOTION_PACKING
    from repro.workloads import generate_program

    program = generate_program("gcc")
    base = simulate_frontend(program, BASELINE, max_instructions=100_000)
    both = simulate_frontend(program, PROMOTION_PACKING, max_instructions=100_000)
    print(base.effective_fetch_rate, both.effective_fetch_rate)
"""

from repro.config import (
    BASELINE,
    ICACHE,
    PACKING,
    PROMOTION,
    PROMOTION_COST_REG,
    PROMOTION_PACKING,
    CoreConfig,
    FrontEndConfig,
    MachineConfig,
    promotion_with_packing,
    promotion_with_threshold,
)
from repro.core.machine import Machine, MachineResult, simulate as _simulate_machine
from repro.frontend.simulator import FrontEndResult, FrontEndSimulator, compute_oracle
from repro.isa import assemble, FunctionalExecutor, Program

__version__ = "1.0.0"


def __getattr__(name):
    # ``generate_program`` is one of ``repro.workloads``' lazy names
    # (PEP 562): it loads the generator, and numpy with it, on first use.
    if name == "generate_program":
        from repro import workloads
        return getattr(workloads, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def simulate_frontend(program, config: FrontEndConfig = BASELINE,
                      max_instructions: int = 100_000) -> FrontEndResult:
    """Run the oracle-driven front-end simulator on ``program``."""
    return FrontEndSimulator(program, config, max_instructions=max_instructions).run()


def simulate_machine(program, config: MachineConfig = None,
                     max_instructions: int = 50_000) -> MachineResult:
    """Run the full cycle-level machine on ``program``."""
    return _simulate_machine(program, config or MachineConfig(),
                             max_instructions=max_instructions)


__all__ = [
    "__version__",
    # configs
    "FrontEndConfig", "MachineConfig", "CoreConfig",
    "ICACHE", "BASELINE", "PACKING", "PROMOTION",
    "PROMOTION_PACKING", "PROMOTION_COST_REG",
    "promotion_with_threshold", "promotion_with_packing",
    # simulation entry points
    "simulate_frontend", "simulate_machine",
    "FrontEndSimulator", "FrontEndResult",
    "Machine", "MachineResult",
    "compute_oracle",
    # program construction
    "assemble", "Program", "FunctionalExecutor", "generate_program",
]
