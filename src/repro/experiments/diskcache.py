"""Persistent on-disk result cache, safe to share between many processes.

Simulation results survive process exit as versioned JSON files under a
cache directory (``$REPRO_CACHE_DIR``, else ``~/.cache/repro``).  Files
are named by the content-hash key from :mod:`repro.experiments.cachekey`,
which folds in a fingerprint of the simulator source — editing any
``repro`` module silently invalidates every stored result, so the cache
never needs manual flushing after code changes.

Robustness rules:

* writes are atomic (temp file + ``os.replace``) so a killed process
  never leaves a half-written entry;
* unreadable, truncated, or wrong-version entries are treated as misses
  and **quarantined** (moved aside under ``quarantine/``, never silently
  destroyed — the corrupt bytes are evidence, and an unlink could lose a
  race against a concurrent good rewrite of the same key);
* ``REPRO_DISK_CACHE=0`` disables the layer entirely (the in-process
  memo caches in :mod:`repro.experiments.runner` keep working).

Multi-tenancy (the experiment service shares one cache between many
clients, workers, and server restarts) adds three mechanisms:

* **Advisory file locks** (:class:`FileLock`) — pid-stamped lock files
  under ``locks/`` claimed with an exclusive create.  A lock whose owner
  pid is dead is *stale* and is broken by the next contender, so a
  SIGKILLed writer can never wedge the cache.  Locks only serialize
  *accounting* (the size index, quota eviction); entry reads and writes
  stay lock-free and atomic, so a lost or broken lock can degrade
  bookkeeping but never corrupt a result.
* **A size-index sidecar** (``index.json``) — per-key on-disk byte
  counts maintained under the index lock, so :func:`cache_stats` answers
  without walking a huge directory; it self-heals from a filesystem scan
  whenever it is missing or disagrees with reality.
* **A disk quota** (``REPRO_CACHE_MAX_MB``) — after each store the
  writer evicts least-recently-used entries (file mtime is refreshed on
  every cache hit) until the total fits.  Keys *pinned* by in-flight
  service points (per-``(key, pid)`` pin files under ``pins/``, so
  services sharing one cache directory protect their flights
  independently; dead pids are ignored) are never evicted, so a
  computation can never have its own inputs or freshly shared outputs
  deleted out from under it.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.experiments import env
from repro.experiments.cachekey import CACHE_SCHEMA_VERSION

_SUFFIX = ".json"
_INDEX_NAME = "index.json"
_INDEX_LOCK = "cache-index"
_LOCK_SUFFIX = ".lock"
_PIN_SUFFIX = ".pin"

#: A lock file whose content cannot be parsed is broken anyway after
#: this many seconds (covers writers killed before the pid hit disk).
STALE_LOCK_SECONDS = 30.0

#: Quarantined files kept for post-mortem before the oldest are pruned.
_QUARANTINE_KEEP = 16

#: Disambiguates repeat quarantines of the same entry name by one process.
_quarantine_seq = itertools.count()


def enabled() -> bool:
    """Is the disk layer on?  (``REPRO_DISK_CACHE=0`` turns it off.)"""
    return env.get_flag("REPRO_DISK_CACHE", True)


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = env.get_str("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = env.get_str("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def entry_path(key: str) -> Path:
    """Where the entry for ``key`` lives (whether or not it exists yet)."""
    return cache_dir() / f"{key}{_SUFFIX}"


_path_for = entry_path


def quota_bytes() -> Optional[int]:
    """The ``REPRO_CACHE_MAX_MB`` disk quota in bytes, or None (no quota)."""
    quota_mb = env.get_float("REPRO_CACHE_MAX_MB", 0.0)
    if quota_mb and quota_mb > 0:
        return int(quota_mb * 1024 * 1024)
    return None


# ------------------------------------------------------------ file locks

def lock_dir() -> Path:
    """Advisory lock files live under ``locks/`` beside the entries."""
    return cache_dir() / "locks"


class LockTimeout(OSError):
    """A :class:`FileLock` could not be acquired within its timeout."""


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lock owner's pid."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: some process owns the pid — assume alive.
        return True
    return True


class FileLock:
    """Pid-stamped advisory lock with stale-owner takeover.

    The lock is a file created with ``O_CREAT | O_EXCL`` containing the
    owner's pid.  Contenders poll; when they find the current owner pid
    dead (or the file unparseable and older than
    :data:`STALE_LOCK_SECONDS` — a writer killed mid-create), they break
    the lock and race to retake it, so a SIGKILLed holder stalls the
    next writer for at most one poll interval, never forever.

    The lock is *advisory over accounting only*: entry data is protected
    by atomic replaces, not by this lock, so the class degrades rather
    than fails — an unwritable lock directory means "proceed lockless"
    (``acquire`` succeeds without holding anything) because skipping
    bookkeeping is strictly better than failing an experiment.
    """

    def __init__(self, name: str, directory: Optional[Path] = None,
                 timeout: float = 10.0, poll: float = 0.02):
        self.path = (directory or lock_dir()) / f"{name}{_LOCK_SUFFIX}"
        self.timeout = timeout
        self.poll = poll
        self._held = False
        self._lockless = False

    def _owner(self) -> Optional[int]:
        """The current owner pid, or None when unreadable/unparseable."""
        try:
            return int(self.path.read_text().strip())
        except (OSError, ValueError):
            return None

    def _is_stale(self) -> bool:
        owner = self._owner()
        if owner is not None:
            return not _pid_alive(owner)
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return False  # gone already: just retry the create
        return age > STALE_LOCK_SECONDS

    def _break_stale(self) -> None:
        """Remove a stale lock; double-check first to shrink the window
        where a fresh lock from a new contender could be swept away."""
        if not self._is_stale():
            return
        try:
            self.path.unlink()
        except OSError:
            pass  # a sibling broke it first; the create below decides

    def acquire(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._is_stale():
                    self._break_stale()
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(f"lock {self.path} held by live "
                                      f"pid {self._owner()}")
                time.sleep(self.poll)
                continue
            except OSError:
                # Unwritable lock directory: degrade to lockless mode.
                self._lockless = True
                return self
            try:
                os.write(fd, str(os.getpid()).encode())
            finally:
                os.close(fd)
            self._held = True
            return self

    def release(self) -> None:
        if self._held:
            self._held = False
            try:
                self.path.unlink()
            except OSError:
                pass
        self._lockless = False

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


# ------------------------------------------------------------ quarantine

def quarantine_dir() -> Path:
    """Corrupt files are moved here instead of being destroyed."""
    return cache_dir() / "quarantine"


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt file aside; returns its new home, or None.

    Quarantining (an atomic rename) replaces deletion for two reasons:
    the corrupt bytes are post-mortem evidence, and an ``unlink`` that
    loses the race against a concurrent *good* rewrite of the same key
    would destroy the fresh entry — a rename loses the same race
    harmlessly (``FileNotFoundError`` means a sibling already healed or
    quarantined it, which is a win, not an error).  At most
    :data:`_QUARANTINE_KEEP` files are kept; the oldest are pruned.
    """
    path = Path(path)
    directory = quarantine_dir()
    # pid + per-process sequence number: a process that quarantines the
    # same entry name twice must not overwrite its earlier evidence.
    seq = next(_quarantine_seq)
    target = directory / f"{path.name}.{os.getpid()}.{seq}.quarantined"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, target)
    except FileNotFoundError:
        return None  # a concurrent process already moved or replaced it
    except OSError:
        try:  # quarantine unavailable (read-only dir): fall back to unlink
            path.unlink()
        except OSError:
            pass
        return None
    try:
        kept = sorted(directory.glob("*.quarantined"),
                      key=lambda p: p.stat().st_mtime)
        for stale in kept[:-_QUARANTINE_KEEP]:
            stale.unlink()
    except OSError:
        pass
    return target


# ----------------------------------------------------------- size index

def _index_path() -> Path:
    return cache_dir() / _INDEX_NAME


def _read_index() -> Dict[str, int]:
    """The ``{key: bytes}`` sidecar, or {} when missing/corrupt."""
    try:
        data = json.loads(_index_path().read_text())
        entries = data["entries"]
        if data.get("version") != 1 or not isinstance(entries, dict):
            raise ValueError("bad index shape")
        return {str(k): int(v) for k, v in entries.items()}
    except (OSError, ValueError, KeyError, TypeError):
        return _scan_entries()


def _write_index(entries: Dict[str, int]) -> None:
    """Atomically persist the sidecar; failures are silent (it is a
    cache of the directory listing, rebuilt from a scan on demand)."""
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump({"version": 1, "entries": entries}, handle,
                          sort_keys=True, separators=(",", ":"))
            os.replace(tmp_name, _index_path())
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except OSError:
        pass


def _scan_entries() -> Dict[str, int]:
    """Ground truth: every entry file on disk with its size."""
    entries: Dict[str, int] = {}
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.glob(f"*{_SUFFIX}"):
            if path.name == _INDEX_NAME:
                continue
            try:
                entries[path.stem] = path.stat().st_size
            except OSError:
                pass
    return entries


def _reconcile_index() -> Dict[str, int]:
    """Index entries that still exist, plus any files the index missed.

    Cheap self-healing: the index can drift (lockless writers, killed
    evictors), and eviction decisions must never trust a ghost entry.
    """
    index = _read_index()
    truth = _scan_entries()
    return {key: truth[key] for key in truth}


# ----------------------------------------------------------------- pins

def pin_dir() -> Path:
    """Pid-stamped pin files protecting keys from quota eviction."""
    return cache_dir() / "pins"


def pin(key: str) -> None:
    """Shield ``key`` from quota eviction while a point is in flight.

    Pins are per-``(key, pid)`` files: two services sharing one cache
    directory can pin the same key independently, so one process
    dropping its pin never strips the other's still-in-flight
    protection (a shared single file would let whichever flight
    finished first expose the slower one to eviction mid-read-back).
    """
    directory = pin_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{key}.{os.getpid()}{_PIN_SUFFIX}").write_text(
            str(os.getpid()))
    except OSError:
        pass


def unpin(key: str) -> None:
    """Drop *this process's* pin for ``key`` (missing pins are fine)."""
    try:
        (pin_dir() / f"{key}.{os.getpid()}{_PIN_SUFFIX}").unlink()
    except OSError:
        pass


def _pin_owner(path: Path) -> Tuple[str, int]:
    """A pin file's ``(key, owner pid)``; pid is -1 when unparseable."""
    name = path.name[:-len(_PIN_SUFFIX)]
    key, dot, pid_text = name.rpartition(".")
    if dot and pid_text.isdigit():
        return key, int(pid_text)
    # Legacy one-file-per-key pin (pre per-pid): pid in the content.
    try:
        return name, int(path.read_text().strip())
    except (OSError, ValueError):
        return name, -1


def pinned_keys() -> set:
    """Keys pinned by at least one *live* process.

    A pin whose owner pid is dead is ignored (and removed) — a crashed
    service must not permanently exempt its in-flight keys from the
    quota.
    """
    pins = set()
    directory = pin_dir()
    if not directory.is_dir():
        return pins
    for path in directory.glob(f"*{_PIN_SUFFIX}"):
        key, owner = _pin_owner(path)
        if _pid_alive(owner):
            pins.add(key)
        else:
            try:
                path.unlink()
            except OSError:
                pass
    return pins


# -------------------------------------------------------------- entries

#: What :func:`store` writes around a payload, keys sorted and no
#: whitespace: ``{"kind":"<kind>","payload":<payload>,"version":1}``.
_KIND_AT = '{"kind":"'
_PAYLOAD_AT = '","payload":'
_TAIL = ',"version":%d}' % CACHE_SCHEMA_VERSION


class StoredPayload(dict):
    """A payload :func:`load` parsed, with ``text``: its JSON as stored.

    :func:`store` writes sorted keys with compact separators, the form
    :func:`repro.service.protocol.encode` emits, so a reply can carry
    ``text`` as it is instead of encoding the dict again.
    """

    __slots__ = ("text",)


def _stored_payload(text: str) -> Optional[StoredPayload]:
    """The payload of an entry in :func:`store`'s exact layout, else None.

    Only the payload's own text is parsed, so a match is one JSON value
    framed exactly as :func:`store` frames it, in ASCII with no
    whitespace.  An entry in any other layout gets None and is parsed
    whole by the caller.
    """
    if not (text.startswith(_KIND_AT) and text.endswith(_TAIL)):
        return None
    at = text.find(_PAYLOAD_AT, len(_KIND_AT))
    if at < 0 or not text[len(_KIND_AT):at].isidentifier():
        return None
    body = text[at + len(_PAYLOAD_AT):-len(_TAIL)]
    if not body.isascii() or " " in body or "\n" in body \
            or "\t" in body or "\r" in body:
        return None
    try:
        value = json.loads(body)
    except ValueError:
        return None
    if not isinstance(value, dict):
        return None
    payload = StoredPayload(value)
    payload.text = body
    return payload


def load(key: str) -> Optional[Dict[str, Any]]:
    """Payload stored under ``key``, or None on miss/corruption.

    A file that cannot be parsed, or whose version tag does not match,
    is quarantined so it cannot shadow a future write under the same
    key.  A successful load refreshes the entry's mtime — the recency
    signal the quota evictor orders by.  An entry in the layout
    :func:`store` writes loads as a :class:`StoredPayload`.
    """
    if not enabled():
        return None
    path = _path_for(key)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        # Decode inside the corruption handler: stamped-over entries can
        # hold non-UTF-8 bytes (UnicodeDecodeError is a ValueError).
        text = raw.decode("utf-8")
        payload = _stored_payload(text)
        if payload is None:
            envelope = json.loads(text)
            if not isinstance(envelope, dict):
                raise ValueError("not an object")
            if envelope.get("version") != CACHE_SCHEMA_VERSION:
                raise ValueError("version mismatch")
            payload = envelope["payload"]
    except (ValueError, KeyError):
        quarantine(path)
        return None
    try:
        os.utime(path)  # LRU touch; losing a race to eviction is fine
    except OSError:
        pass
    return payload


def store(key: str, kind: str, payload: Dict[str, Any]) -> None:
    """Atomically persist ``payload`` under ``key``; failures are silent.

    The cache is an accelerator: a full disk or read-only home directory
    must not break an experiment run.  Control-flow exceptions
    (``KeyboardInterrupt``, ``SystemExit``) are re-raised after the temp
    file is cleaned up — a Ctrl-C mid-write must stop the run, never be
    swallowed into the silent-OSError path.

    After the atomic replace the writer updates the size index and
    enforces the ``REPRO_CACHE_MAX_MB`` quota (both under the index
    lock, both best-effort).
    """
    if not enabled():
        return
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        envelope = {
            "version": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "payload": payload,
        }
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle, sort_keys=True,
                          separators=(",", ":"))
            os.replace(tmp_name, entry_path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except (KeyboardInterrupt, SystemExit):
        raise
    except OSError:
        return
    _account_store(key)


def _account_store(key: str) -> None:
    """Post-store bookkeeping: index update + quota enforcement."""
    try:
        with FileLock(_INDEX_LOCK):
            index = _read_index()
            try:
                index[key] = entry_path(key).stat().st_size
            except OSError:
                index.pop(key, None)
            _write_index(index)
            _enforce_quota_locked(index, protect={key})
    except (KeyboardInterrupt, SystemExit):
        raise
    except (LockTimeout, OSError):
        pass  # accounting is best-effort; the entry itself is safe


def _enforce_quota_locked(index: Dict[str, int],
                          protect: Iterable[str] = ()) -> int:
    """Evict LRU entries until the total fits the quota; returns count.

    Caller holds the index lock.  Entries pinned by live processes and
    entries in ``protect`` (the key just written) are never evicted —
    over-quota-with-everything-pinned means the quota is simply exceeded
    until pins drop, never that in-flight work loses its results.
    """
    quota = quota_bytes()
    if quota is None:
        return 0
    total = sum(index.values())
    if total <= quota:
        return 0
    exempt = set(protect) | pinned_keys()
    candidates = []
    for key in index:
        if key in exempt:
            continue
        try:
            candidates.append((entry_path(key).stat().st_mtime, key))
        except OSError:
            candidates.append((0.0, key))  # already gone: drop first
    candidates.sort()
    evicted = 0
    for _, key in candidates:
        if total <= quota:
            break
        try:
            entry_path(key).unlink()
        except FileNotFoundError:
            pass
        except OSError:
            continue
        total -= index.pop(key, 0)
        evicted += 1
    if evicted:
        _write_index(index)
    return evicted


def enforce_quota(protect: Iterable[str] = ()) -> int:
    """Re-check the quota now (the service calls this after unpinning)."""
    try:
        with FileLock(_INDEX_LOCK):
            index = _reconcile_index()
            _write_index(index)
            return _enforce_quota_locked(index, protect)
    except (LockTimeout, OSError):
        return 0


def purge() -> int:
    """Delete every cache entry; returns the number of files removed.

    Also drops the size index (now empty by definition) plus any
    quarantined files, temp files, pins and lock remnants, so a purged
    cache directory holds no orphaned bookkeeping.
    """
    directory = cache_dir()
    removed = 0
    if not directory.is_dir():
        return removed
    for path in directory.glob(f"*{_SUFFIX}"):
        if path.name == _INDEX_NAME:
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    for pattern in (_INDEX_NAME, "*.tmp"):
        for path in directory.glob(pattern):
            try:
                path.unlink()
            except OSError:
                pass
    for subdir, pattern in ((quarantine_dir(), "*.quarantined"),
                            (pin_dir(), f"*{_PIN_SUFFIX}"),
                            (lock_dir(), f"*{_LOCK_SUFFIX}")):
        if subdir.is_dir():
            for path in subdir.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
    return removed


def stats() -> Dict[str, int]:
    """Entry count and total bytes currently on disk (for reporting)."""
    directory = cache_dir()
    entries = 0
    size = 0
    if directory.is_dir():
        for path in directory.glob(f"*{_SUFFIX}"):
            if path.name == _INDEX_NAME:
                continue
            try:
                size += path.stat().st_size
                entries += 1
            except OSError:
                pass
    return {"entries": entries, "bytes": size}


def cache_stats() -> Dict[str, Any]:
    """Rich cache introspection for the service ``status`` endpoint.

    Served from the size-index sidecar reconciled against the directory
    (self-healing: a missing or drifted index is rebuilt from a scan),
    plus the quota, pin and quarantine state.
    """
    index = _reconcile_index()
    quota = quota_bytes()
    quarantined = 0
    if quarantine_dir().is_dir():
        quarantined = sum(1 for _ in quarantine_dir().glob("*.quarantined"))
    return {
        "entries": len(index),
        "bytes": sum(index.values()),
        "quota_bytes": quota,
        "pinned": len(pinned_keys()),
        "quarantined": quarantined,
    }
