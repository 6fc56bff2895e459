"""LRU cache for deterministic expectation values.

Keys come in three shapes: whole-observable task keys
(:meth:`repro.execution.task.ExecutionTask.cache_key` — the circuit
fingerprint, observable fingerprint, noise-model **content** fingerprint and
backend options), per-(circuit, Pauli term) keys from the grouped-observable
engine, and one ``("sweep", template fingerprint, parameter tuple,
observable fingerprint, engine)`` key per compiled-sweep point holding that
point's energy.  Every component is content-derived (see
:func:`repro.execution.task.noise_token`), so equal keys mean equal values
no matter which objects — or which process — produced them.

The cache is what makes optimizer-driven workloads cheap: COBYLA and SPSA
re-evaluate repeated parameter vectors, and VarSaw evaluates the same circuit against many observables —
all of which collapse onto prior entries here.

:func:`cache_tally` counts the lookups made in one context (thread or
task) apart from the cache-wide counters, so a caller that shares one cache
with concurrent work — a job server's runner threads — can tell its own
hits and misses from its neighbours'.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class CacheStats:
    """Running counters for one :class:`ExpectationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self):
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"hit_rate={self.hit_rate:.1%}, size={self.size}/"
                f"{self.max_size}, evictions={self.evictions})")


_TALLY: "contextvars.ContextVar[Optional[CacheStats]]" = \
    contextvars.ContextVar("repro_cache_tally", default=None)


@contextlib.contextmanager
def cache_tally() -> Iterator[CacheStats]:
    """Count the hits and misses of the lookups made in this context.

    Yields a :class:`CacheStats` whose ``hits``/``misses`` grow with every
    :meth:`ExpectationCache.get`/:meth:`~ExpectationCache.get_many` the
    current context makes inside the block, on any cache; lookups made by
    other threads are not counted.
    """
    tally = CacheStats()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def _count(hits: int, misses: int) -> None:
    tally = _TALLY.get()
    if tally is not None:
        tally.hits += hits
        tally.misses += misses


class ExpectationCache:
    """Thread-safe LRU mapping of task cache keys to expectation values."""

    def __init__(self, max_size: int = 4096):
        if max_size < 1:
            raise ValueError("cache max_size must be positive")
        self._max_size = int(max_size)
        self._entries: "OrderedDict[Tuple, float]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Tuple) -> Optional[float]:
        """The cached value for ``key``, or None; refreshes LRU order."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        _count(int(value is not None), int(value is None))
        return value

    def put(self, key: Tuple, value: float) -> None:
        """Store ``value`` under ``key``; refreshes LRU order, may evict."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_many(self, keys: Sequence[Tuple]) -> List[Optional[float]]:
        """Cached values for ``keys`` (None per miss), one lock acquisition.

        The grouped-observable engine asks one key per (circuit, Pauli
        term) pair, so a Hamiltonian that merely overlaps a previously
        evaluated one hits term-by-term; a compiled sweep asks one key per
        point.
        """
        values: List[Optional[float]] = []
        hits = 0
        with self._lock:
            for key in keys:
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    hits += 1
                values.append(value)
            self._hits += hits
            self._misses += len(values) - hits
        _count(hits, len(values) - hits)
        return values

    def put_many(self, items: Iterable[Tuple[Tuple, float]]) -> None:
        """Store many ``(key, value)`` pairs under one lock acquisition."""
        with self._lock:
            for key, value in items:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              evictions=self._evictions,
                              size=len(self._entries),
                              max_size=self._max_size)
