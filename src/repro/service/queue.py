"""The bounded FIFO between the front door and the worker threads.

Workers pull jobs in submission order with :meth:`JobQueue.next_job`.
Backpressure is the bound: once ``max_pending`` jobs wait,
:meth:`JobQueue.submit` raises :class:`QueueFullError` — surfaced to
clients as a 429 ``queue-full`` error — instead of buffering unboundedly.
Callers are expected to retry with backoff; jobs already accepted are never
dropped.
"""

from __future__ import annotations

import collections
import threading
from typing import List, Optional


class QueueFullError(Exception):
    """The pending-job bound is reached, or the queue is closed (retry
    later)."""


class JobQueue:
    """A bounded, thread-safe FIFO of job ids."""

    def __init__(self, max_pending: int = 256):
        self.max_pending = int(max_pending)
        self._jobs: collections.deque = collections.deque()
        self._condition = threading.Condition()
        self._closed = False

    def submit(self, job_id: str) -> int:
        """Enqueue a job and return its 0-based position; raises
        :class:`QueueFullError` at ``max_pending`` or once closed."""
        with self._condition:
            if self._closed:
                raise QueueFullError("the queue is closed")
            if len(self._jobs) >= self.max_pending:
                raise QueueFullError(
                    f"queue full ({self.max_pending} jobs pending)")
            self._jobs.append(job_id)
            self._condition.notify()
            return len(self._jobs) - 1

    def next_job(self) -> Optional[str]:
        """Block until a job is queued; None once the queue is closed and
        empty."""
        with self._condition:
            while not self._jobs:
                if self._closed:
                    return None
                self._condition.wait()
            return self._jobs.popleft()

    def remove(self, job_id: str) -> bool:
        """Drop a queued job (cancellation); False if it was not queued."""
        with self._condition:
            try:
                self._jobs.remove(job_id)
            except ValueError:
                return False
            return True

    def drain(self) -> List[str]:
        """Close the queue and return every still-pending job id."""
        with self._condition:
            self._closed = True
            drained = list(self._jobs)
            self._jobs.clear()
            self._condition.notify_all()
            return drained

    def close(self) -> None:
        """Close the queue: pending jobs stay poppable, waiters wake."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def pending(self) -> int:
        with self._condition:
            return len(self._jobs)
