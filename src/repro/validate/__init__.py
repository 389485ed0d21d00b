"""Online divergence guard: lockstep fast/reference validation.

Every hot front-end component and the machine core have a fast version
and a frozen reference copy.  One differential harness,
:func:`repro.validate.lockstep.lockstep`, runs a point of either kind
(front end or machine) through both stacks with the runner's one-stack
runs and compares them; the parity suites, the differential fuzzer,
divergence-report replay and this online guard all go through it:

* **Lockstep differential mode** (``REPRO_VALIDATE=lockstep``, or the
  ``--validate`` CLI flag): every simulation drives the fast and the
  reference stacks over the same input.  Front-end points cross-check
  delivered fetch slots, predictor-state digests, fill-unit
  finalizations and the final serialized result; machine points the
  final serialized result.
* **Sample mode** (``REPRO_VALIDATE=sample`` or ``sample:N``): front-end
  points run the same dual run, but the per-fetch observer checks a
  deterministic 1-in-N slice of fetches (offset seeded from the grid
  point's content hash); machine points are sampled whole, 1 in N
  (the rest run plain on the fast stack).  Cheap enough for CI grids;
  the end-of-run full-result comparison is always kept.
* **Structural invariants**: when any mode is armed (:func:`armed`),
  the fill unit, bias table, RAS and machine core run extra
  self-checks, bound per instance at construction; they cost nothing
  when validation is off.
* **Divergence handling**: the first mismatch raises
  :class:`~repro.validate.errors.DivergenceError` after writing a
  self-contained report under ``$REPRO_CACHE_DIR/divergences/``
  (:mod:`repro.validate.report`), replayable with
  ``python -m repro validate-replay <report.json>``.  The experiment
  scheduler requeues the point pinned to the reference engine so grids
  complete with trustworthy numbers.

Legacy compatibility: ``REPRO_VALIDATE=1`` historically enabled only
the fill unit's per-segment checks; it now means ``lockstep``, a strict
superset.

This ``__init__`` stays import-light (mode parsing only); import the
submodules by name (``from repro.validate import errors``).
"""

from __future__ import annotations

import os

#: Recognized REPRO_VALIDATE modes.
OFF = "off"
LOCKSTEP = "lockstep"
SAMPLE = "sample"

#: Default 1-in-N slice for ``sample`` mode with no explicit stride.
DEFAULT_SAMPLE_STRIDE = 64

_OFF_VALUES = ("", "0", "off", "none")
_LOCKSTEP_VALUES = ("1", "lockstep", "on", "full")


def parse_mode(raw) -> tuple:
    """Parse a ``REPRO_VALIDATE`` value into ``(mode, stride)``.

    Returns one of ``("off", 1)``, ``("lockstep", 1)`` or
    ``("sample", N)``.  Unrecognized values warn once and mean off — a
    typo must look like a typo, not silently validate nothing while the
    user believes the guard is armed.
    """
    if raw is None:
        return (OFF, 1)
    value = raw.strip().lower()
    if value in _OFF_VALUES:
        return (OFF, 1)
    if value in _LOCKSTEP_VALUES:
        return (LOCKSTEP, 1)
    if value == SAMPLE:
        return (SAMPLE, DEFAULT_SAMPLE_STRIDE)
    if value.startswith("sample:"):
        try:
            stride = int(value.split(":", 1)[1])
        except ValueError:
            stride = 0
        if stride >= 1:
            return (SAMPLE, stride)
    from repro.experiments import warnonce
    warnonce.warn_once(
        "repro-validate",
        f"ignoring invalid REPRO_VALIDATE={raw!r} "
        "(expected off, lockstep, sample, or sample:N); validation off")
    return (OFF, 1)


def mode() -> str:
    """The armed validation mode: ``off``, ``lockstep`` or ``sample``."""
    return parse_mode(os.environ.get("REPRO_VALIDATE"))[0]


def sample_stride() -> int:
    """The 1-in-N fetch-check stride (1 outside sample mode)."""
    return parse_mode(os.environ.get("REPRO_VALIDATE"))[1]


def armed() -> bool:
    """Whether any validation mode is on."""
    return mode() != OFF
