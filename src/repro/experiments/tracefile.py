"""Compact binary oracle-trace files shared across processes.

The oracle (correct-path) instruction stream is a pure function of the
benchmark program and the run length, yet it is the single most expensive
shared computation in a cold experiment grid: every worker process used
to re-execute the program functionally before it could simulate anything.
This module persists the stream as a versioned binary file so the oracle
is computed **once per (benchmark, length) machine-wide**; every other
process memory-maps the file read-only and rebuilds the in-memory stream
with three C-level array copies instead of a functional re-execution.

File layout (little-endian, word-addressed ISA), format version 2:

* 28-byte header: magic ``b"RPTR"``, format version (u32), record count
  (u64), payload column count (u32 — self-describing so future formats
  can append columns without a magic change), and a CRC32 of the payload
  arrays (u32, for corruption detection — a truncated or bit-flipped
  file must degrade to a cold recompute, never to a wrong figure);
* ``count`` u32 instruction addresses (``program.instructions[a].addr
  == a``, so an address is also an index into the code image);
* ``count`` direction bytes (0 = not taken, 1 = taken, 2 = not a
  conditional branch);
* ``count`` u32 correct-path successor addresses.

Version 2 also changed the in-memory contract: :func:`load_oracle`
returns an :class:`OracleTrace` — a list of row tuples (drop-in for
every existing consumer) that *also* carries the three column-major
payload arrays, so bulk consumers (re-stores, machine-side replay
scans, benchmarks) read arrays instead of a million tuples, and
:func:`store_oracle` serializes a column-carrying stream with three
C-level copies instead of a per-record packing loop.

Robustness mirrors :mod:`repro.experiments.diskcache`: writes are atomic
(temp file + ``os.replace``) and serialized per key through an advisory
file lock with dead-owner takeover, and unreadable, truncated,
wrong-version or checksum-failing files are quarantined (moved aside,
never destroyed) and treated as misses.  Files live
under ``<cache_dir>/traces`` (``$REPRO_CACHE_DIR`` aware) and their names
fold in the benchmark profile and the simulator source fingerprint, so
stale traces self-invalidate exactly like cached results.

``REPRO_TRACE_FILES=0`` disables the layer (the in-process oracle memo
in :mod:`repro.experiments.runner` keeps working).
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import List, Optional

from repro.experiments import diskcache, env, warnonce
from repro.experiments.cachekey import canonical_json, code_fingerprint, profile_to_dict
from repro.isa.program import Program

_MAGIC = b"RPTR"
#: Bump when the record layout changes; old files then fail the header
#: check and are deleted rather than misread.  v1 -> v2: the header
#: gained the payload column count and the loader started returning the
#: column-carrying :class:`OracleTrace` view.
TRACE_FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sIQII")  # magic, version, count, ncols, crc32
_NCOLS = 3  # addresses, directions, successors
_SUFFIX = ".trace"

#: Direction byte for "not a conditional branch" (oracle ``taken is None``).
_NOT_BRANCH = 2
#: Direction byte -> oracle ``taken`` value, and the set of legal bytes.
_TAKEN = (False, True, None)
_DIR_BYTES = bytes((0, 1, _NOT_BRANCH))

#: array typecode with a 4-byte item ("I" on every mainstream platform).
_U32 = next(tc for tc in ("I", "L") if array(tc).itemsize == 4)


class OracleTrace(list):
    """Row-major oracle stream carrying its column-major backing arrays.

    A drop-in ``list`` of ``(instruction, taken, next_pc)`` records —
    every existing consumer keeps indexing rows — plus the three bulk
    columns the trace file stores:

    * ``addrs`` — u32 :class:`array.array` of instruction addresses
      (indices into the code image);
    * ``dirs`` — ``bytes`` of direction codes (0/1/2, see module doc);
    * ``next_pcs`` — u32 :class:`array.array` of correct-path successors.

    Bulk walks (branch-density scans, machine-side replay statistics,
    benchmark loaders) should read the columns; :func:`store_oracle`
    recognizes the class and serializes the columns directly instead of
    re-packing record by record.
    """

    __slots__ = ("addrs", "dirs", "next_pcs")

    def __init__(self, rows, addrs, dirs, next_pcs):
        super().__init__(rows)
        self.addrs = addrs
        self.dirs = dirs
        self.next_pcs = next_pcs


#: Bounded identity memo for :func:`as_columns` over *plain* row lists:
#: a freshly executed (or v1-era) oracle used to rebuild its columns on
#: every store/scan.  Keyed by ``id`` with a strong reference to the
#: list itself, so a recycled id can never alias a dead oracle.
_column_memo: "OrderedDict[int, tuple]" = OrderedDict()
_COLUMN_MEMO_MAX = 8


def clear_column_memo() -> None:
    """Drop the plain-list column memo (``runner.clear_caches`` calls this)."""
    _column_memo.clear()


def as_columns(oracle: List[tuple]) -> "OracleTrace":
    """The column-carrying view of any oracle stream.

    An :class:`OracleTrace` passes through unchanged; a plain row list
    gets its columns built once and memoized by identity, so repeated
    stores/scans of the same stream stop re-paying the packing loop.
    """
    if isinstance(oracle, OracleTrace):
        return oracle
    key = id(oracle)
    hit = _column_memo.get(key)
    if hit is not None and hit[0] is oracle:
        _column_memo.move_to_end(key)
        return hit[1]
    count = len(oracle)
    addrs = array(_U32)
    next_pcs = array(_U32)
    dirs = bytearray(count)
    addr_append = addrs.append
    next_append = next_pcs.append
    for i, (inst, taken, next_pc) in enumerate(oracle):
        addr_append(inst.addr)
        if taken is not None:
            dirs[i] = 1 if taken else 0
        else:
            dirs[i] = _NOT_BRANCH
        next_append(next_pc)
    trace = OracleTrace(oracle, addrs, bytes(dirs), next_pcs)
    _column_memo[key] = (oracle, trace)
    while len(_column_memo) > _COLUMN_MEMO_MAX:
        _column_memo.popitem(last=False)
    return trace


def enabled() -> bool:
    """Is the trace-file layer on?  (``REPRO_TRACE_FILES=0`` turns it off.)"""
    return env.get_flag("REPRO_TRACE_FILES", True)


def trace_dir() -> Path:
    """Trace files live beside the result cache, under ``traces/``."""
    return diskcache.cache_dir() / "traces"


def trace_key(benchmark: str, n: int) -> str:
    """Stable hex key for one benchmark's oracle at one run length.

    Folds in the generation profile (same name, different parameters must
    not collide) and the package source fingerprint (an ISA or workload
    generator edit invalidates every stored trace).
    """
    material = {
        "kind": "oracle-trace",
        "format": TRACE_FORMAT_VERSION,
        "benchmark": benchmark,
        "profile": profile_to_dict(benchmark),
        "n": n,
        "code": code_fingerprint(),
    }
    return hashlib.sha256(canonical_json(material).encode()).hexdigest()


def trace_path(benchmark: str, n: int) -> Path:
    """Where this (benchmark, length) oracle's trace file lives."""
    return trace_dir() / f"{trace_key(benchmark, n)}{_SUFFIX}"


# ------------------------------------------------------------------ write

def store_oracle(benchmark: str, n: int, oracle: List[tuple]) -> Optional[Path]:
    """Persist one oracle stream; returns the path, or None when disabled.

    Atomic and failure-silent like the result cache: trace files are an
    accelerator, so a full disk must not break an experiment run.

    Concurrent writers of the same key are serialized through an
    advisory :class:`~repro.experiments.diskcache.FileLock` (pid-stamped,
    with dead-owner takeover, so a SIGKILLed writer never wedges the
    next one).  The loser of the race finds the file already present
    when it gets the lock and skips the redundant multi-megabyte write;
    a lock timeout degrades to the plain lock-free atomic write, which
    is always safe.
    """
    if not enabled():
        return None
    path = trace_path(benchmark, n)
    try:
        lock = diskcache.FileLock(f"trace-{path.stem[:32]}", timeout=30.0)
        with lock:
            if path.exists():
                return path  # a concurrent writer won; its file is ours
            return _store_oracle_unlocked(benchmark, n, oracle)
    except (KeyboardInterrupt, SystemExit):
        raise
    except (diskcache.LockTimeout, OSError):
        return _store_oracle_unlocked(benchmark, n, oracle)


def _store_oracle_unlocked(benchmark: str, n: int,
                           oracle: List[tuple]) -> Optional[Path]:
    """The atomic temp-file + replace write itself (lock-free core)."""
    columns = as_columns(oracle)
    count = len(columns)
    addrs = columns.addrs
    next_pcs = columns.next_pcs
    if sys.byteorder != "little":  # pragma: no cover - x86/arm are LE
        addrs = array(_U32, addrs)
        next_pcs = array(_U32, next_pcs)
        addrs.byteswap()
        next_pcs.byteswap()
    a_bytes = addrs.tobytes()
    d_bytes = bytes(columns.dirs)
    p_bytes = next_pcs.tobytes()
    crc = zlib.crc32(a_bytes)
    crc = zlib.crc32(d_bytes, crc)
    crc = zlib.crc32(p_bytes, crc)
    directory = trace_dir()
    path = trace_path(benchmark, n)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_HEADER.pack(_MAGIC, TRACE_FORMAT_VERSION,
                                          count, _NCOLS, crc))
                handle.write(a_bytes)
                handle.write(d_bytes)
                handle.write(p_bytes)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except (KeyboardInterrupt, SystemExit):
        raise  # control flow escapes the silent-failure contract
    except OSError:
        return None
    return path


# ------------------------------------------------------------------- read

def load_oracle(benchmark: str, n: int,
                program: Program) -> Optional[OracleTrace]:
    """Rebuild an oracle stream from its trace file, or None on miss.

    The file is memory-mapped read-only, the arrays are materialized
    with C-level ``array.frombytes`` copies and the stream's
    ``(instruction, taken, next_pc)`` tuples are rebuilt eagerly by
    indexing the shared code image (``instructions[a].addr == a``).
    Any structural problem — bad magic, version or checksum mismatch,
    truncation, an address off the code image — quarantines the file and
    returns None so a corrupt trace can never shadow a future write.
    """
    if not enabled():
        return None
    path = trace_path(benchmark, n)
    try:
        with open(path, "rb") as handle:
            mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return None
    try:
        try:
            header = mm[:_HEADER.size]
            magic, version, count, ncols, crc = _HEADER.unpack(header)
            if magic != _MAGIC or version != TRACE_FORMAT_VERSION:
                raise ValueError("bad magic or version")
            if ncols != _NCOLS:
                raise ValueError("unexpected column count")
            a_off = _HEADER.size
            d_off = a_off + 4 * count
            p_off = d_off + count
            end = p_off + 4 * count
            if len(mm) != end:
                raise ValueError("truncated or oversized payload")
            if zlib.crc32(mm[a_off:end]) != crc:
                raise ValueError("checksum mismatch")
            instructions = program.instructions
            addrs = array(_U32)
            next_pcs = array(_U32)
            addrs.frombytes(mm[a_off:d_off])
            dirs = mm[d_off:p_off]
            next_pcs.frombytes(mm[p_off:end])
            if sys.byteorder != "little":  # pragma: no cover
                addrs.byteswap()
                next_pcs.byteswap()
            if count and (max(addrs) >= len(instructions)
                          or dirs.translate(None, _DIR_BYTES)):
                raise ValueError("address or direction off the image")
            # All-C reconstruction: three mapped columns zipped into the
            # stream's (instruction, taken, next_pc) tuples, returned
            # with the columns attached for bulk consumers.
            return OracleTrace(zip(map(instructions.__getitem__, addrs),
                                   map(_TAKEN.__getitem__, dirs),
                                   next_pcs),
                               addrs, dirs, next_pcs)
        finally:
            mm.close()
    except (ValueError, struct.error) as problem:
        # One warning machine-wide (shared latch): in a worker pool every
        # process can trip over the same bad file at once, and N copies
        # of the same diagnostic would bury real output.
        warnonce.warn_once(
            f"trace-corrupt:{path.name}",
            f"discarding corrupt oracle trace for {benchmark!r} "
            f"({problem}); the stream will be recomputed",
            shared=True)
        # Quarantine, don't delete: the move preserves the evidence, and
        # if a concurrent worker already healed the key (rewrote a good
        # file) or quarantined it first, losing that race is harmless —
        # an unlink here could have destroyed the fresh rewrite.
        diskcache.quarantine(path)
        return None


# ------------------------------------------------------------------ admin

def purge() -> int:
    """Delete every trace file; returns the number removed."""
    directory = trace_dir()
    removed = 0
    if not directory.is_dir():
        return removed
    for path in directory.glob(f"*{_SUFFIX}"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def stats() -> dict:
    """Trace-file count and total bytes on disk (for reporting)."""
    directory = trace_dir()
    entries = 0
    size = 0
    if directory.is_dir():
        for path in directory.glob(f"*{_SUFFIX}"):
            try:
                size += path.stat().st_size
                entries += 1
            except OSError:
                pass
    return {"entries": entries, "bytes": size}
