"""The asyncio front door of the execution job server.

One :class:`ServiceServer` owns the whole service stack: the SQLite
:class:`~repro.service.registry.RunRegistry`, the bounded
:class:`~repro.service.queue.JobQueue`, a single shared
:class:`~repro.execution.Executor` (opened with the configured cache
directory, so every job rides one warm expectation cache) and the
:class:`~repro.service.runner.JobRunner` worker threads.

The transport is NDJSON over a unix socket: one
:mod:`repro.service.protocol` message per line in both directions.
Streaming responses (``submit(stream=True)``, ``attach``) are a run of
``event`` lines terminated by a ``result-data`` line.  ``status``,
``result``, ``attach`` and ``jobs`` answers carry the registry's stored
payload and result text as is (:class:`~repro.service.protocol.RawJSON`),
with no decode and re-encode.

The asyncio loop never runs engine code: submissions, blocking waits and
event-feed reads hop onto threads (``asyncio.to_thread``), while worker
threads push events back through thread-safe queues.  Graceful shutdown
(a ``shutdown`` message) stops intake, drains running jobs into the
registry, retires the executor's process pool, then closes the listener.

:func:`start_in_thread` runs a server on a background thread for tests,
notebooks and the README quickstart.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import queue as queue_module
import socket
import threading
from typing import Any, Dict, Optional

from ..execution.executor import Executor
from .config import ServiceConfig
from .protocol import (MAX_LINE_BYTES, TERMINAL_STATES, AttachRequest,
                       CancelRequest, ErrorResponse, EventResponse,
                       JobListResponse, JobResponse, ListJobsRequest,
                       OkResponse, PingRequest, PongResponse, ProtocolError,
                       ResultRequest, ResultResponse, ShutdownRequest,
                       StatsRequest, StatsResponse, StatusRequest,
                       SubmitRequest, SubmittedResponse, decode_line,
                       encode_line)
from .queue import JobQueue, QueueFullError
from .registry import CommitError, RunRegistry
from .runner import RESULT_COLUMNS, STREAM_END, JobRunner, UnknownJobError

#: Poll interval for live event feeds — bounds how long a dead connection
#: can pin a feeder thread.
_FEED_POLL = 0.5

_FEED_IDLE = object()

#: How long a server at the socket path has to answer the start-up probe.
_PROBE_TIMEOUT = 1.0


class ServiceServer:
    """The job server: registry + queue + executor + runner + listener."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        if not self.config.socket_path:
            raise ValueError("ServiceConfig needs a socket_path")
        # Refuse a live server's socket before recovery touches a registry.
        _refuse_live_socket(self.config.socket_path)
        self.registry = RunRegistry(self.config.db_path)
        self.executor = Executor()
        try:
            self.runner = JobRunner(
                self.executor, self.registry,
                JobQueue(max_pending=self.config.max_pending),
                workers=self.config.workers,
                max_attempts=self.config.max_attempts,
                retry_backoff=self.config.retry_backoff)
        except BaseException:  # another server owns the registry file
            self.registry.close()
            raise
        self._stop: Optional[asyncio.Event] = None
        self._drain = True
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket listener (call from the serving loop); asyncio
        replaces the stale socket file the constructor's probe found."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._handle_socket, path=self.config.socket_path,
            limit=MAX_LINE_BYTES)

    async def serve_until_shutdown(self) -> None:
        """Serve until a shutdown request arrives, then close gracefully."""
        await self._stop.wait()
        await self.aclose()

    def request_shutdown(self, drain: bool = True) -> None:
        """Signal the serving loop to stop (thread-unsafe: loop-side only;
        cross-thread callers go through ``loop.call_soon_threadsafe``)."""
        self._drain = drain
        if self._stop is not None:
            self._stop.set()

    async def aclose(self) -> None:
        """Close the listener, drain the runner, release every resource."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
        await asyncio.to_thread(self.runner.shutdown, self._drain)
        self.registry.close()

    # -- the NDJSON transport -----------------------------------------------
    async def _handle_socket(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while self._stop is not None and not self._stop.is_set():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Past the line limit the stream cannot be re-framed:
                    # answer, then close.
                    await self._write(writer, ErrorResponse(
                        "too-large", f"request line exceeds "
                        f"{MAX_LINE_BYTES} bytes", 413))
                    break
                if not line:
                    break
                try:
                    request = decode_line(line.decode("utf-8"))
                except (ProtocolError, UnicodeDecodeError) as error:
                    await self._write(writer, ErrorResponse(
                        "bad-request", str(error), 400))
                    continue
                await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write(self, writer: asyncio.StreamWriter, response) -> None:
        writer.write(encode_line(response).encode("utf-8"))
        await writer.drain()

    async def _dispatch(self, request,
                        writer: asyncio.StreamWriter) -> None:
        if isinstance(request, SubmitRequest):
            await self._dispatch_submit(request, writer)
            return
        if isinstance(request, ShutdownRequest):
            await self._write(writer, OkResponse(detail="shutting down"))
            self.request_shutdown(drain=request.drain)
            return
        try:
            if isinstance(request, PingRequest):
                response = PongResponse()
            elif isinstance(request, StatsRequest):
                response = StatsResponse(self.runner.stats())
            elif isinstance(request, StatusRequest):
                response = JobResponse(
                    self.runner.job(request.job_id, decode=False))
            elif isinstance(request, ResultRequest):
                response = _result_response(
                    await asyncio.to_thread(self.runner.wait_result,
                                            request.job_id, decode=False)
                    if request.wait else
                    self.runner.job(request.job_id, RESULT_COLUMNS,
                                    decode=False))
            elif isinstance(request, AttachRequest):
                self.runner.job(request.job_id, ("state",))
                response = _result_response(await self._pump_events(
                    request.job_id, request.after_seq, writer))
            elif isinstance(request, CancelRequest):
                response = OkResponse(
                    detail=self.runner.cancel(request.job_id))
            elif isinstance(request, ListJobsRequest):
                response = JobListResponse(self.registry.list_jobs(
                    request.validate().limit, decode=False))
            else:  # a response type sent as a request
                response = ErrorResponse(
                    "bad-request",
                    f"{type(request).__name__} is not a request", 400)
        except UnknownJobError:
            response = ErrorResponse(
                "unknown-job", f"no job {request.job_id!r}", 404)
        except ProtocolError as error:
            response = ErrorResponse("bad-request", str(error), 400)
        await self._write(writer, response)

    async def _dispatch_submit(self, request: SubmitRequest,
                               writer: asyncio.StreamWriter) -> None:
        try:
            request.validate()
            submission = await asyncio.to_thread(
                self.runner.submit, request.kind, request.payload,
                request.deadline, request.max_attempts)
        except QueueFullError as error:
            await self._write(writer, ErrorResponse(
                "queue-full", str(error), 429))
            return
        except CommitError as error:
            await self._write(writer, ErrorResponse(
                "commit-failed", str(error), 503))
            return
        except ValueError as error:  # a ProtocolError or a bad payload
            await self._write(writer, ErrorResponse(
                "bad-request", str(error), 400))
            return
        job_id, deduped, position = submission
        await self._write(writer, SubmittedResponse(
            job_id=job_id, state=submission.state, deduped=deduped,
            position=position))
        if request.stream:
            entry = await self._pump_events(job_id, 0, writer)
            await self._write(writer, _result_response(entry))

    # -- the event pump -----------------------------------------------------
    async def _pump_events(self, job_id: str, after_seq: int,
                           writer: asyncio.StreamWriter) -> Dict[str, Any]:
        """Write persisted events after ``after_seq`` as ``event`` lines,
        then follow live ones until the job is terminal; returns the job's
        :data:`~repro.service.runner.RESULT_COLUMNS`.

        Subscribes *before* replaying and drops live events at or below the
        replay horizon, so a reattaching client sees every event exactly
        once regardless of timing.  The state is read before the replay: a
        job that was terminal then has every event in the replay, and one
        that was not will still publish its terminal event to the feed.
        """
        feed = self.runner.subscribe(job_id)
        try:
            entry = self.runner.job(job_id, RESULT_COLUMNS, decode=False)
            horizon = int(after_seq)
            for event in self.registry.events_since(job_id, horizon,
                                                    decode=False):
                horizon = max(horizon, event["seq"])
                await self._write(writer, EventResponse(**event))
            if entry["state"] in TERMINAL_STATES:
                return entry
            while True:
                event = await asyncio.to_thread(_poll_feed, feed)
                if event is _FEED_IDLE:
                    if writer.is_closing():
                        break
                    continue
                if event is STREAM_END:
                    break
                if event["seq"] <= horizon:
                    continue
                await self._write(writer, EventResponse(**event))
            return self.runner.job(job_id, RESULT_COLUMNS, decode=False)
        finally:
            self.runner.unsubscribe(job_id, feed)


def _refuse_live_socket(path: str) -> None:
    """Raise ``OSError(EADDRINUSE)`` if a server answers a ping at ``path``;
    a socket that does not is stale (fork-pool workers of a killed server
    can still hold its listener open)."""
    with socket.socket(socket.AF_UNIX) as probe:
        probe.settimeout(_PROBE_TIMEOUT)
        try:
            probe.connect(path)
            probe.sendall(encode_line(PingRequest()).encode("utf-8"))
            answered = probe.recv(1)
        except OSError:  # nothing there, refused, or no answer in time
            return
    if answered:
        raise OSError(errno.EADDRINUSE,
                      f"a server is already listening on {path}")


def _poll_feed(feed: "queue_module.SimpleQueue"):
    """One bounded blocking read of a subscriber feed (runs on a thread)."""
    try:
        return feed.get(timeout=_FEED_POLL)
    except queue_module.Empty:
        return _FEED_IDLE


def _result_response(entry: Dict[str, Any]) -> ResultResponse:
    return ResultResponse(job_id=entry["id"], state=entry["state"],
                          result=entry["result"], error=entry["error"])


# ---------------------------------------------------------------------------
# In-thread embedding (tests, notebooks, the README quickstart)
# ---------------------------------------------------------------------------


class ServiceHandle:
    """A running server on a background thread; ``stop()`` shuts it down."""

    def __init__(self, server: ServiceServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self._loop = loop

    @property
    def socket_path(self) -> str:
        return self.server.config.socket_path

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Request a graceful shutdown and wait for the serving thread."""
        if self.thread.is_alive():
            with contextlib.suppress(RuntimeError):  # loop already gone
                self._loop.call_soon_threadsafe(
                    self.server.request_shutdown, drain)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()


def start_in_thread(config: ServiceConfig,
                    timeout: float = 10.0) -> ServiceHandle:
    """Start a :class:`ServiceServer` on a daemon thread and wait until its
    listener is bound; returns a :class:`ServiceHandle`."""
    started = threading.Event()
    holder: Dict[str, Any] = {}

    async def main() -> None:
        server = ServiceServer(config)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_shutdown()

    def run() -> None:
        try:
            asyncio.run(main())
        except Exception as error:  # pragma: no cover - startup diagnostics
            holder["error"] = error
            started.set()

    thread = threading.Thread(target=run, name="repro-service",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):
        raise RuntimeError("the service server did not start in time")
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["server"], thread, holder["loop"])
