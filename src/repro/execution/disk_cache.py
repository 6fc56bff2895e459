"""Persistent on-disk expectation cache (the L2 under the in-memory LRU).

The in-memory :class:`~repro.execution.cache.ExpectationCache` dies with the
process; this module adds a content-addressed store under a directory so a
repeated paper-figure reproduction — or a fleet of worker processes sharing a
volume — serves previously computed expectation values from disk instead of
re-evolving circuits.

Layout and guarantees:

* **Content addressing** — a cache key (the same nested tuple the in-memory
  cache uses: circuit fingerprint, term/observable identity, noise-model
  *content* fingerprint, backend token, options) is canonically serialized
  and hashed; the entry lives at ``<dir>/<hh>/<digest>`` where ``hh`` is the
  first hex byte of the digest (keeps directories small).  Keys are stable
  across processes and runs because every component is itself content-derived
  (see :func:`repro.execution.task.noise_token`).
* **Plain binary entries** — an entry file is a magic tag, the canonical
  key encoding (verified on read, so a digest collision degrades to a miss,
  never a wrong value) and one packed double.  Deliberately **not** pickle:
  a cache directory shared between workers/users must never be a code
  path — reading an entry can execute nothing.
* **Atomic writes** — entries are written to a temporary file in the same
  directory and ``os.replace``\\ d into place, so readers never observe a
  torn entry and concurrent writers of the same key settle on one winner.
* **Corrupt-entry recovery** — an unreadable or mismatched entry (truncated
  file, hash collision, foreign bytes) counts as a miss, is **quarantined**
  (renamed to a ``.corrupt-`` dot-file, invisible to later reads and reaped
  by the next eviction scan) and bumps the ``corrupt`` counter; the cache
  never raises on bad disk state, and the quarantined bytes stay around
  briefly for post-mortems instead of being destroyed mid-run.
* **Size-bounded LRU eviction** — entry files are touched on read; when the
  store grows past ``max_bytes``, the oldest-``mtime`` entries are removed
  until it fits again.  Eviction scans are amortized (every
  ``_EVICTION_CHECK_INTERVAL`` writes), so the bound is approximate by
  design.

``REPRO_CACHE_DIR`` opts a process in globally: when it is set,
:class:`~repro.execution.executor.Executor` instances built without an
explicit cache compose this store with their in-memory cache as an L2 (see
:class:`TieredExpectationCache`).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cache import CacheStats, ExpectationCache
from .faults import consult as _consult_faults

#: Environment variable naming the directory of the process-wide L2 cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default size bound: plenty for every figure/table suite in the repo.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: How many writes may elapse between eviction scans (amortizes the
#: directory walk; the size bound is approximate between scans).
_EVICTION_CHECK_INTERVAL = 256

_ENTRY_SUFFIX = ".expv"


def _encode_key(key: Any, out: bytearray) -> None:
    """Canonical, collision-free binary encoding of a cache-key tree.

    Supports exactly the types task/term/sweep keys are built from: tuples,
    ``str``, ``bytes``, ``bool``, ``int``, ``float`` and ``None`` — plus
    their NumPy scalar equivalents (``np.int64`` counts from an
    ``np.arange`` sweep config, ``np.float32`` parameter values), which
    encode exactly like the matching Python scalar so the key means the
    same thing however it was built.  Every atom is length- and type-tagged
    so distinct trees never share an encoding.
    """
    if isinstance(key, np.generic):  # numpy scalars → Python scalars
        key = key.item()
    if key is None:
        out += b"N"
    elif key is True:
        out += b"T"
    elif key is False:
        out += b"F"
    elif isinstance(key, tuple):
        out += b"(" + struct.pack("<I", len(key))
        for item in key:
            _encode_key(item, out)
    elif isinstance(key, bytes):
        out += b"b" + struct.pack("<I", len(key)) + key
    elif isinstance(key, str):
        raw = key.encode("utf-8")
        out += b"s" + struct.pack("<I", len(raw)) + raw
    elif isinstance(key, int):
        raw = str(key).encode("ascii")
        out += b"i" + struct.pack("<I", len(raw)) + raw
    elif isinstance(key, float):
        out += b"f" + struct.pack("<d", key)
    else:
        raise TypeError(
            f"cache keys may only contain tuples, str, bytes, bool, int, "
            f"float and None; got {type(key).__name__}")


def encode_key(key: Tuple) -> bytes:
    """The canonical binary encoding of ``key`` (see :func:`_encode_key`)."""
    buffer = bytearray()
    _encode_key(key, buffer)
    return bytes(buffer)


def key_digest(key: Tuple) -> str:
    """Hex digest addressing ``key`` on disk (stable across processes)."""
    return hashlib.blake2b(encode_key(key), digest_size=16).hexdigest()


#: Entry-file layout: magic, u32 length of the encoded key, the encoded key
#: bytes, one little-endian double.  No pickle — reading an entry from a
#: shared volume must never be able to execute code.
_ENTRY_MAGIC = b"EXPV1\x00"


@dataclass
class DiskCacheStats:
    """Running counters for one :class:`DiskExpectationCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_errors: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self):
        return (f"DiskCacheStats(hits={self.hits}, misses={self.misses}, "
                f"hit_rate={self.hit_rate:.1%}, writes={self.writes}, "
                f"write_errors={self.write_errors}, "
                f"evictions={self.evictions}, corrupt={self.corrupt})")


class DiskExpectationCache:
    """Content-addressed, size-bounded store of expectation values on disk.

    Mirrors the in-memory cache's ``get``/``put``/``get_many``/``put_many``
    surface so :class:`TieredExpectationCache` can compose the two.  Example::

        cache = DiskExpectationCache("/tmp/repro-cache")
        cache.put(key, 0.25)
        assert cache.get(key) == 0.25        # also true in a later process
    """

    def __init__(self, directory: Union[str, Path],
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 1:
            raise ValueError("cache max_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._stats = DiskCacheStats()
        self._writes_since_check = 0

    # -- addressing ----------------------------------------------------------
    def _path_for(self, key: Tuple) -> Path:
        digest = key_digest(key)
        return self.directory / digest[:2] / (digest + _ENTRY_SUFFIX)

    # -- lookup --------------------------------------------------------------
    def get(self, key: Tuple) -> Optional[float]:
        """The stored value for ``key``, or None; refreshes the LRU clock."""
        try:
            path = self._path_for(key)
        except TypeError:  # key content the canonical encoder doesn't cover
            with self._lock:
                self._stats.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except OSError:
            # Missing entry or a *transient* read failure (EMFILE, NFS
            # hiccup): a plain miss.  Never delete on open() errors — the
            # entry on disk may be perfectly valid.
            with self._lock:
                self._stats.misses += 1
            return None
        value = self._decode_entry(payload, key)
        if value is None:
            # Truncated, foreign, or digest-collision content.
            self._discard_corrupt(path)
            return None
        try:
            os.utime(path)  # LRU clock for eviction
        except OSError:
            pass
        with self._lock:
            self._stats.hits += 1
        return value

    @staticmethod
    def _decode_entry(payload: bytes, key: Tuple) -> Optional[float]:
        """The value held by an entry file, or None when it is not a valid
        entry for ``key`` (wrong magic, wrong length, mismatched key)."""
        header = len(_ENTRY_MAGIC) + 4
        if len(payload) < header + 8 \
                or payload[:len(_ENTRY_MAGIC)] != _ENTRY_MAGIC:
            return None
        (key_length,) = struct.unpack_from("<I", payload, len(_ENTRY_MAGIC))
        if len(payload) != header + key_length + 8:
            return None
        if payload[header:header + key_length] != encode_key(key):
            return None
        (value,) = struct.unpack_from("<d", payload, header + key_length)
        return value

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[float]]:
        """Stored values for ``keys`` (None per miss)."""
        return [self.get(key) for key in keys]

    def _discard_corrupt(self, path: Path) -> None:
        """Quarantine a bad entry out of the read path.

        The ``.corrupt-`` rename (same directory, so it is atomic) makes
        the entry invisible to reads — dot-names are skipped by
        :meth:`_entries` and never match a key digest — while preserving
        the bytes for inspection; the stale-file reaper deletes quarantined
        files on a later eviction scan.  Unlinking is the fallback when the
        rename itself fails.
        """
        try:
            path.rename(path.with_name(".corrupt-" + path.name))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            self._stats.misses += 1
            self._stats.corrupt += 1

    # -- storage -------------------------------------------------------------
    def put(self, key: Tuple, value: float) -> None:
        """Persist ``value`` under ``key`` atomically.

        Write failures (full or read-only volume) are swallowed and counted
        in ``stats.write_errors`` — a broken cache disk must never crash a
        run whose simulation already succeeded; the value simply is not
        persisted.
        """
        self._write(key, float(value))
        self._maybe_evict()

    def put_many(self, items: Iterable[Tuple[Tuple, float]]) -> None:
        for key, value in items:
            self._write(key, float(value))
        self._maybe_evict()

    def _write(self, key: Tuple, value: float) -> None:
        try:
            path = self._path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            encoded = encode_key(key)
            payload = (_ENTRY_MAGIC + struct.pack("<I", len(encoded))
                       + encoded + struct.pack("<d", value))
            descriptor, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=_ENTRY_SUFFIX)
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(payload)
                os.replace(temp_name, path)
                directive = _consult_faults("disk-cache")
                if directive is not None and directive.kind == "corrupt":
                    # Chaos harness: truncate the entry just written, as a
                    # crashed writer or torn volume would.  The next read
                    # must detect it, quarantine it and recompute.
                    with open(path, "r+b") as handle:
                        handle.truncate(max(1, len(payload) // 2))
            except OSError:
                try:
                    os.unlink(temp_name)
                except OSError:
                    pass
                raise
        except (OSError, TypeError):
            # TypeError: a key carries content the canonical encoder does
            # not cover — the value simply is not persisted (the in-memory
            # tier still serves it).
            with self._lock:
                self._stats.write_errors += 1
            return
        with self._lock:
            self._stats.writes += 1
            self._writes_since_check += 1

    # -- eviction ------------------------------------------------------------

    #: A dot-file (``.tmp-*`` writer orphan, ``.corrupt-*`` quarantined
    #: entry) older than this has no live owner and gets reaped by the
    #: next eviction scan.
    _STALE_TEMP_SECONDS = 600.0

    def _entries(self, reap_stale_temps: bool = False
                 ) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every entry file currently on disk.

        With ``reap_stale_temps`` (eviction scans and :meth:`clear`), also
        deletes stale dot-files — temp files orphaned by writers killed
        between ``mkstemp`` and ``os.replace``, and ``.corrupt-``
        quarantined entries — which are invisible to reads and would
        otherwise accumulate unboundedly on a long-lived volume.
        """
        import time as _time
        now = _time.time()
        found: List[Tuple[float, int, Path]] = []
        for bucket in self.directory.iterdir() if self.directory.exists() \
                else ():
            if not bucket.is_dir():
                continue
            try:
                with os.scandir(bucket) as it:
                    for entry in it:
                        if not entry.name.endswith(_ENTRY_SUFFIX):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        if entry.name.startswith("."):
                            if reap_stale_temps and \
                                    now - stat.st_mtime \
                                    > self._STALE_TEMP_SECONDS:
                                try:
                                    os.unlink(entry.path)
                                except OSError:
                                    pass
                            continue
                        found.append((stat.st_mtime, stat.st_size,
                                      Path(entry.path)))
            except OSError:
                continue
        return found

    def _maybe_evict(self) -> None:
        with self._lock:
            if self._writes_since_check < _EVICTION_CHECK_INTERVAL:
                return
            self._writes_since_check = 0
        self.evict_to_size()

    def evict_to_size(self, max_bytes: Optional[int] = None) -> int:
        """Delete oldest entries until the store fits; returns the count."""
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        entries = self._entries(reap_stale_temps=True)
        total = sum(size for _, size, _ in entries)
        if total <= budget:
            return 0
        evicted = 0
        for _, size, path in sorted(entries):  # oldest mtime first
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        with self._lock:
            self._stats.evictions += evicted
        return evicted

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, key: Tuple) -> bool:
        try:
            return self._path_for(key).exists()
        except TypeError:
            return False

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def clear(self) -> None:
        for bucket in (b for b in self.directory.iterdir() if b.is_dir()) \
                if self.directory.exists() else ():
            for path in bucket.glob("*" + _ENTRY_SUFFIX):
                try:
                    path.unlink()
                except OSError:
                    pass
            for pattern in (".tmp-*", ".corrupt-*"):
                for path in bucket.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
        with self._lock:
            self._stats = DiskCacheStats()
            self._writes_since_check = 0

    @property
    def stats(self) -> DiskCacheStats:
        with self._lock:
            return DiskCacheStats(hits=self._stats.hits,
                                  misses=self._stats.misses,
                                  writes=self._stats.writes,
                                  write_errors=self._stats.write_errors,
                                  evictions=self._stats.evictions,
                                  corrupt=self._stats.corrupt)

    def __repr__(self):
        return (f"DiskExpectationCache(dir={str(self.directory)!r}, "
                f"max_bytes={self.max_bytes})")


class TieredExpectationCache:
    """L1 in-memory LRU over an L2 on-disk store, one ``get``/``put`` surface.

    Lookups probe memory first; a disk hit is promoted into memory so the
    term's next lookup is a dictionary access.  Writes go to both tiers.
    The executor builds one of these automatically when ``REPRO_CACHE_DIR``
    is set (or when constructed with ``cache_dir=``), so every consumer of
    :func:`repro.execution.execute` transparently gains persistence.
    Example::

        cache = TieredExpectationCache(disk=DiskExpectationCache(path))
        executor = Executor(cache=cache)
    """

    def __init__(self, memory: Optional[ExpectationCache] = None,
                 disk: Optional[DiskExpectationCache] = None,
                 memory_size: int = 4096):
        self.memory = memory or ExpectationCache(max_size=memory_size)
        self.disk = disk

    def get(self, key: Tuple) -> Optional[float]:
        value = self.memory.get(key)
        if value is not None or self.disk is None:
            return value
        value = self.disk.get(key)
        if value is not None:
            self.memory.put(key, value)  # promote to L1
        return value

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[float]]:
        values = self.memory.get_many(keys)
        if self.disk is None:
            return values
        promoted = []
        for index, (key, value) in enumerate(zip(keys, values)):
            if value is None:
                from_disk = self.disk.get(key)
                if from_disk is not None:
                    values[index] = from_disk
                    promoted.append((key, from_disk))
        if promoted:
            self.memory.put_many(promoted)
        return values

    def put(self, key: Tuple, value: float) -> None:
        self.memory.put(key, value)
        if self.disk is not None:
            self.disk.put(key, value)

    def put_many(self, items: Iterable[Tuple[Tuple, float]]) -> None:
        items = list(items)
        self.memory.put_many(items)
        if self.disk is not None:
            self.disk.put_many(items)

    def __len__(self) -> int:
        return len(self.memory)

    def __contains__(self, key: Tuple) -> bool:
        return key in self.memory or (self.disk is not None
                                      and key in self.disk)

    def clear(self) -> None:
        """Drop the in-memory tier and reset its counters.

        The disk tier is deliberately left intact — it is the persistent
        layer; call ``cache.disk.clear()`` to wipe it explicitly.
        """
        self.memory.clear()

    @property
    def stats(self) -> CacheStats:
        return self.memory.stats

    @property
    def disk_stats(self) -> Optional[DiskCacheStats]:
        return self.disk.stats if self.disk is not None else None

    def __repr__(self):
        return (f"TieredExpectationCache(memory={self.memory.stats!r}, "
                f"disk={self.disk!r})")


def disk_cache_from_env() -> Optional[DiskExpectationCache]:
    """A :class:`DiskExpectationCache` at ``$REPRO_CACHE_DIR``, or None.

    Read at :class:`~repro.execution.executor.Executor` construction time —
    set the variable before building executors (or pass ``cache_dir=``
    explicitly) to opt a process into persistent caching.
    """
    directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    if not directory:
        return None
    max_bytes = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if max_bytes:
        return DiskExpectationCache(directory, max_bytes=int(max_bytes))
    return DiskExpectationCache(directory)
