"""Stable content-hash cache keys for simulation results.

The on-disk result cache (:mod:`repro.experiments.diskcache`) must key
results by *what was simulated*, not by Python object identity:

* the benchmark's generation profile (two benchmarks with the same name
  but different profile parameters must not collide),
* the full configuration, serialized field by field (enums by value so
  renaming an enum member invalidates, reordering does not),
* the run length, and
* a fingerprint of the simulator's own source code, so results
  self-invalidate whenever any file in the ``repro`` package changes.

Everything here is deterministic across processes and interpreter runs:
dictionaries are dumped with sorted keys and hashing is SHA-256, never
``hash()`` (which is salted per process for strings).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional

from repro.config import CoreConfig, FrontEndConfig, MachineConfig
from repro.mem.hierarchy import MemoryConfig
from repro.trace.fill_unit import PackingPolicy
from repro.workloads.profiles import get_profile

#: Bump when the serialized payload layout changes; stored inside every
#: cache file and also folded into the key so stale layouts never load.
CACHE_SCHEMA_VERSION = 1


# --------------------------------------------------------------- configs

def frontend_config_to_dict(config: FrontEndConfig) -> Dict[str, Any]:
    """Flat, JSON-able dict of every FrontEndConfig field (enums by value)."""
    out: Dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, PackingPolicy):
            value = value.value
        out[f.name] = value
    return out


def frontend_config_from_dict(data: Dict[str, Any]) -> FrontEndConfig:
    """Rebuild a FrontEndConfig from its flat dict (enums by value)."""
    kwargs = dict(data)
    kwargs["packing"] = PackingPolicy(kwargs["packing"])
    return FrontEndConfig(**kwargs)


def machine_config_to_dict(config: MachineConfig) -> Dict[str, Any]:
    """Nested dict covering frontend, memory, and core sub-configs."""
    return {
        "frontend": frontend_config_to_dict(config.frontend),
        "memory": {f.name: getattr(config.memory, f.name)
                   for f in fields(config.memory)},
        "core": {f.name: getattr(config.core, f.name)
                 for f in fields(config.core)},
    }


def machine_config_from_dict(data: Dict[str, Any]) -> MachineConfig:
    """Rebuild a MachineConfig from its nested dict form."""
    return MachineConfig(
        frontend=frontend_config_from_dict(data["frontend"]),
        memory=MemoryConfig(**data["memory"]),
        core=CoreConfig(**data["core"]),
    )


def config_to_dict(config) -> Dict[str, Any]:
    """Serialize either config flavour, tagged so round-trips are unambiguous."""
    if isinstance(config, MachineConfig):
        return {"type": "machine", **machine_config_to_dict(config)}
    if isinstance(config, FrontEndConfig):
        return {"type": "frontend", **frontend_config_to_dict(config)}
    raise TypeError(f"not a config: {config!r}")


#: Configs :func:`config_from_dict` has built, by :func:`_identity` of
#: their dict.  Configs are frozen, so every result and grid point
#: decoded from an equal dict can share one.  Dicts arrive from service
#: clients too, so it stops growing at ``_BUILT_MAX`` entries.
_built: Dict[Any, Any] = {}
_BUILT_MAX = 4096


def _identity(data: Dict[str, Any]) -> Any:
    """A hashable stand-in for a config dict, exact down to value types
    (``1``, ``1.0`` and ``True`` are equal in Python but not in a cache
    key).  Raises TypeError or AttributeError for a malformed dict."""
    def flat(part):
        return tuple(part.items()), tuple(map(type, part.values()))

    if data.get("type") == "machine":
        return (flat(data["frontend"]), flat(data["memory"]),
                flat(data["core"]))
    return flat(data)


def config_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`config_to_dict` (dispatches on the type tag).

    A dict equal to one already seen returns the config built then.
    """
    try:
        identity = _identity(data)
        config = _built.get(identity)
    except (AttributeError, KeyError, TypeError):
        identity = config = None
    if config is not None:
        return config
    kind = data.get("type")
    body = {k: v for k, v in data.items() if k != "type"}
    if kind == "machine":
        config = machine_config_from_dict(body)
    elif kind == "frontend":
        config = frontend_config_from_dict(body)
    else:
        raise ValueError(f"unknown config type tag: {kind!r}")
    if identity is not None and len(_built) < _BUILT_MAX:
        _built[identity] = config
    return config


# -------------------------------------------------------------- profiles

def profile_to_dict(benchmark: str) -> Dict[str, Any]:
    """The benchmark's generation profile as a JSON-able dict.

    Enum-keyed mappings (the branch bias mix) become name-keyed so the
    dump is stable; tuples become lists under ``json.dumps`` anyway.
    """
    profile = get_profile(benchmark)
    out: Dict[str, Any] = {}
    for f in fields(profile):
        value = getattr(profile, f.name)
        if isinstance(value, dict):
            value = {getattr(k, "name", str(k)): v for k, v in value.items()}
        out[f.name] = value
    return out


# ----------------------------------------------------------- fingerprint

@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    Any edit to the simulator invalidates every cached result; this is
    deliberately coarse — a wrong cache hit silently corrupts paper
    figures, a spurious miss merely costs one re-run.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------- keys

def canonical_json(obj: Any) -> str:
    """The one true JSON form: sorted keys, no whitespace surprises."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(kind: str, benchmark: str, config, n: int,
              extra: Optional[Dict[str, Any]] = None) -> str:
    """Stable hex key for one (kind, benchmark, config, length) result."""
    material = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": kind,
        "benchmark": benchmark,
        "profile": profile_to_dict(benchmark),
        "config": config_to_dict(config),
        "n": n,
        "code": code_fingerprint(),
    }
    if extra:
        material["extra"] = extra
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()
