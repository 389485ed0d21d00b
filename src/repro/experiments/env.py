"""Centralized, typed ``REPRO_*`` environment-knob parsing.

Every layer of the experiment engine is tuned through environment
variables so one setting covers every grid a script touches.  Before
this module each consumer parsed its own ``os.environ`` reads, which
meant subtly different invalid-value behavior (some raised, some
silently ignored) and duplicated warn-once bookkeeping.  All knobs now
go through these typed getters:

* :func:`get_str` — raw string with a default;
* :func:`get_flag` — tri-state boolean: unset means the default, and a
  set-but-empty or ``"0"`` value means off (the historical contract of
  ``REPRO_DISK_CACHE`` / ``REPRO_KEEP_GOING`` and friends);
* :func:`get_choice` — one of a fixed set of names, where an unknown
  value warns once and falls back to the default;
* :func:`get_int` / :func:`get_float` — numeric knobs where an unset or
  empty variable yields the default and an unparseable value warns once
  (via :mod:`repro.experiments.warnonce`) and falls back to the default,
  so a typo can never be mistaken for a real run.

The module is a leaf — it imports only :mod:`os` and the warn-once
registry — so every other layer (scheduler, faults, disk cache, trace
files, checkpoints, the front-end builder, the validation guard) can
import it without cycles.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from repro.experiments import warnonce


def get_str(name: str, default: str = "") -> str:
    """The raw value of ``name``, or ``default`` when unset."""
    return os.environ.get(name, default)


def get_raw(name: str) -> Optional[str]:
    """The raw value of ``name``, or None when unset."""
    return os.environ.get(name)


def get_flag(name: str, default: bool) -> bool:
    """Boolean knob: unset -> ``default``; ``"0"`` or empty -> False.

    This preserves the historical semantics of every on/off knob
    (``REPRO_DISK_CACHE=0`` disables, ``REPRO_KEEP_GOING=1`` enables,
    an explicitly empty value always means off).
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw not in ("0", "")


def _warn_invalid(name: str, raw: str, default) -> None:
    warnonce.warn_once(
        name.lower().replace("_", "-"),
        f"ignoring invalid {name}={raw!r}; using {default!r}")


def get_choice(name: str, choices: Tuple[str, ...], default: str) -> str:
    """Enumerated knob: unset/empty -> ``default``; a value outside
    ``choices`` warns once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if raw not in choices:
        _warn_invalid(name, raw, default)
        return default
    return raw


def get_int(name: str, default: Optional[int]) -> Optional[int]:
    """Integer knob: unset/empty -> ``default``; unparseable warns once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        _warn_invalid(name, raw, default)
        return default


def get_float(name: str, default: Optional[float]) -> Optional[float]:
    """Float knob: unset/empty -> ``default``; unparseable warns once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        _warn_invalid(name, raw, default)
        return default


def parse_hostport(raw: str, default: Tuple[str, int]) -> Tuple[str, int]:
    """Parse a service address; raises ValueError on a bad port.

    Accepts ``host:port``, a bare ``:port`` (uses the default host) and
    a bare ``port``.  Port 0 is legal — it asks the OS for an ephemeral
    port, which the service reports after binding (test harnesses rely
    on this).  Shared by the ``REPRO_SERVICE_ADDR`` knob and the
    positional address argument of ``repro worker``.
    """
    host, _, port_text = raw.rpartition(":")
    if not host:
        host = default[0]
    port = int(port_text)
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range: {port}")
    return host, port


def get_hostport(name: str, default: Tuple[str, int]) -> Tuple[str, int]:
    """``host:port`` knob (``REPRO_SERVICE_ADDR``): unparseable warns once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return parse_hostport(raw, default)
    except ValueError:
        _warn_invalid(name, raw, default)
        return default
