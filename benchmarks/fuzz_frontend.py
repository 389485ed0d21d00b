"""Differential fuzzer: random programs x random configs, both stacks.

Every iteration samples a synthetic workload profile (a randomized
variant of one of the paper benchmarks' generation profiles) and a
random front-end configuration, generates the program, and drives it
through the differential harness, :func:`repro.validate.lockstep.lockstep`
(one case function, :func:`run_case`, for both kinds).  In the default
``--mode frontend`` the fast array-backed stack is checked
fetch-by-fetch against the frozen reference stack over the identical
oracle stream.  Any disagreement (delivered fetch slots, predictor
digests, end-of-run engine state, serialized result) raises, printing
the seed so the case replays exactly:

    python benchmarks/fuzz_frontend.py --runs 1 --seed-base <seed>

``--mode machine`` fuzzes the cycle-level core instead: the same random
program, a random machine configuration (random front end, randomly
perfect memory disambiguation, randomly warmed), run through both the
machine core + fast front end and the frozen seed core + reference
front end (cold runs included), asserting the serialized
``MachineResult``s are byte-identical.  ``--mode both`` alternates.

The CI validation job runs a fixed-seed smoke sweep (the harness is
fully deterministic per seed); longer local sweeps just raise
``--runs``.  Exit status is nonzero on the first divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

#: Profiles whose randomized variants the fuzzer samples — tight loops,
#: interpreter-like call density, big-footprint code, and phase flips.
BASE_PROFILES = ("compress", "li", "go", "gcc", "plot")

#: Default dynamic-instruction budget per fuzz case.  Long enough for
#: promotion (threshold can be as low as 4 here) and trace-cache
#: replacement to kick in, short enough for hundreds of cases in CI.
DEFAULT_LENGTH = 5000


def random_profile(rng: np.random.Generator):
    """A randomized variant of one paper benchmark's generation profile."""
    from repro.workloads.behaviors import BranchKind
    from repro.workloads.profiles import get_profile

    base = get_profile(str(rng.choice(BASE_PROFILES)))
    weights = {kind: float(rng.random()) + 0.05 for kind in BranchKind}
    total = sum(weights.values())
    bias_mix = {kind: w / total for kind, w in weights.items()}
    lo = int(rng.integers(1, 6))
    return dataclasses.replace(
        base,
        name=f"fuzz-{base.name}",
        n_phases=int(rng.integers(1, 5)),
        stmts_per_phase=(lo, lo + int(rng.integers(1, 8))),
        outer_iters=int(rng.integers(1, 4)),
        p_if=float(rng.uniform(0.1, 0.5)),
        p_call=float(rng.uniform(0.0, 0.3)),
        p_switch=float(rng.uniform(0.0, 0.15)),
        block_len=(1, int(rng.integers(2, 12))),
        bias_mix=bias_mix,
    )


def random_config(rng: np.random.Generator):
    """A random front-end configuration, biased toward the trace cache."""
    from repro.config import FrontEndConfig
    from repro.trace.fill_unit import PackingPolicy

    if rng.random() < 0.15:
        return FrontEndConfig(kind="icache")
    assoc = int(rng.choice([1, 2, 4]))
    # n_lines must stay a power-of-two multiple of the associativity.
    lines = assoc * (1 << int(rng.integers(3, 8)))
    return FrontEndConfig(
        kind="tc",
        tc_lines=lines,
        tc_assoc=assoc,
        packing=PackingPolicy(str(rng.choice([p.value for p in PackingPolicy]))),
        promote=bool(rng.random() < 0.6),
        promote_threshold=int(rng.choice([4, 16, 64])),
        bias_entries=int(rng.choice([64, 1024, 8192])),
        predictor=str(rng.choice(["tree", "split"])),
        inactive_issue=bool(rng.random() < 0.8),
        path_associativity=bool(rng.random() < 0.3),
    )


def random_machine_config(rng: np.random.Generator):
    """A random complete machine: random front end, random core mode."""
    from repro.config import CoreConfig, MachineConfig

    return MachineConfig(
        frontend=random_config(rng),
        core=CoreConfig(perfect_disambiguation=bool(rng.random() < 0.3)))


def run_case(kind: str, seed: int, length: int = DEFAULT_LENGTH) -> str:
    """One fuzz case of ``kind``; returns a short label, raises on divergence.

    Runs through :func:`repro.validate.lockstep.lockstep`.  A machine
    case pairs the machine core with the fast front end and the frozen
    seed core with the reference front end, so a serialized-result
    mismatch flags a divergence in either layer; its window is a
    quarter of the front-end budget (cycle-level runs are the slow part
    of a sweep), and half the cases first warm the front end over
    ``length`` instructions.
    """
    from repro.frontend.simulator import compute_oracle
    from repro.validate.lockstep import lockstep
    from repro.workloads.generator import generate_program

    rng = np.random.default_rng(seed)
    profile = random_profile(rng)
    if kind == "machine":
        config = random_machine_config(rng)
        warmup = bool(rng.random() < 0.5)
        n = max(500, length // 4)
        label = f"{profile.name}/{config.describe()}/"
        label += "warm" if warmup else "cold"
    else:
        config = random_config(rng)
        warmup, n = True, length
        label = f"{profile.name}/{config.describe()}"
    program = generate_program(profile, seed=seed)
    # report=False: fuzz programs are reproduced from the seed, not from
    # a benchmark name, so a disk report could not be replayed.
    lockstep(kind, profile.name, config, n, warmup=warmup, report=False,
             program=program,
             oracle=compute_oracle(program, length) if warmup else None)
    return label


def main(argv=None) -> int:
    from repro.validate.errors import DivergenceError

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200,
                        help="number of fuzz cases (default 200)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed; case i uses seed-base + i")
    parser.add_argument("--length", type=int, default=DEFAULT_LENGTH,
                        help=f"instructions per case (default {DEFAULT_LENGTH})")
    parser.add_argument("--mode",
                        choices=("frontend", "machine", "both"),
                        default="frontend",
                        help="which differential harness to drive: the "
                             "front-end lockstep, the machine-core parity "
                             "check, or alternating frontend/machine "
                             "(default frontend)")
    args = parser.parse_args(argv)

    for i in range(args.runs):
        seed = args.seed_base + i
        if args.mode == "machine" or (args.mode == "both" and i % 2):
            kind = "machine"
        else:
            kind = "frontend"
        try:
            label = run_case(kind, seed, args.length)
        except DivergenceError as exc:
            print(f"\nDIVERGENCE at seed {seed}: {exc.message}")
            print(f"replay: python {sys.argv[0]} --mode {kind} "
                  f"--runs 1 --seed-base {seed} --length {args.length}")
            return 1
        if (i + 1) % 20 == 0 or i + 1 == args.runs:
            print(f"{i + 1}/{args.runs} ok (last: seed {seed}, {label})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
