"""The byte-bounded LRU memo shared by the simulators' caches.

Compiled programs and gather tables (:mod:`repro.simulators.program`) and
Pauli readout plans (:mod:`repro.simulators.kernels`) are read-only values
worth building once per process and sharing between programs and calls.
Each cache is a :class:`ByteMemo`: least recently used first out once the
entries' bytes pass the ceiling, and a value larger than the whole ceiling
is never kept (its caller builds it, uses it and drops it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional


class ByteMemo:
    """A thread-safe LRU mapping bounded by the byte sizes of its values.

    Example::

        memo = ByteMemo(64 * 1024 * 1024)
        table = memo.get(key)
        if table is None:
            table = build(key)
            memo.put(key, table, table.nbytes)
    """

    def __init__(self, max_bytes: int, max_entries: Optional[int] = None):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        """The value kept under ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: object, nbytes: int) -> None:
        """Keep ``value`` unless it alone passes the byte ceiling; evict
        the least recently used entries until the rest fit both ceilings.
        A key another thread put first keeps its value."""
        if nbytes > self.max_bytes:
            return
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (value, nbytes)
                self.nbytes += nbytes
            while self.nbytes > self.max_bytes or (
                    self.max_entries is not None
                    and len(self._entries) > self.max_entries):
                _, (_, evicted) = self._entries.popitem(last=False)
                self.nbytes -= evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)
