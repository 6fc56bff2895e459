"""The asyncio front door of the execution job server.

One :class:`ServiceServer` owns the whole service stack: the SQLite
:class:`~repro.service.registry.RunRegistry`, the per-tenant
:class:`~repro.service.queue.TenantQueues`, a single shared
:class:`~repro.execution.Executor` (opened with the configured cache
directory, so every tenant rides one warm expectation cache) and the
:class:`~repro.service.runner.JobRunner` worker threads.

Two transports expose the same :mod:`repro.service.protocol` messages:

* **NDJSON over a unix socket** — one JSON object per line in both
  directions; streaming responses (``submit(stream=True)``, ``attach``) are
  a run of ``event`` lines terminated by a ``result-data`` line.
* **HTTP/1.1 on localhost** — ``POST /v1/jobs``, ``GET /v1/jobs/{id}``,
  ``GET /v1/jobs/{id}/result``, ``GET /v1/jobs/{id}/events``
  (server-sent events), ``POST /v1/jobs/{id}/cancel``, ``GET /v1/stats``,
  ``GET /v1/ping``, ``POST /v1/shutdown``.  Backpressure rejections map to
  real ``429`` status lines.

The asyncio loop never runs engine code: submissions, blocking waits and
event-feed reads hop onto threads (``asyncio.to_thread``), while worker
threads push events back through thread-safe queues.  Graceful shutdown
(``POST /v1/shutdown`` or a ``shutdown`` message) stops intake, drains
running jobs into the registry, retires the executor's process pool, then
closes the listeners.

:func:`start_in_thread` runs a server on a background thread for tests,
notebooks and the README quickstart.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import queue as queue_module
import threading
import urllib.parse
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..execution.executor import Executor
from ..execution.policy import ExecutionPolicy
from .config import ServiceConfig
from .protocol import (PROTOCOL_VERSION, TERMINAL_STATES, AttachRequest,
                       CancelRequest, ErrorResponse, EventResponse,
                       JobListResponse, JobResponse, ListJobsRequest,
                       OkResponse, PingRequest, PongResponse, ProtocolError,
                       ResultRequest, ResultResponse, ShutdownRequest,
                       StatsRequest, StatsResponse, StatusRequest,
                       SubmitRequest, SubmittedResponse, decode_line,
                       encode_line)
from .queue import QueueFullError, QuotaExceededError, TenantQueues
from .registry import CommitError, RunRegistry
from .runner import RESULT_COLUMNS, STREAM_END, JobRunner, UnknownJobError

_HTTP_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
                 404: "Not Found", 405: "Method Not Allowed",
                 429: "Too Many Requests", 503: "Service Unavailable"}

#: How both transports answer a failed submission: the first entry whose
#: type matches gives the error code and status.  ``ValueError`` covers
#: :class:`ProtocolError` and a malformed HTTP body.
_SUBMIT_ERRORS = (
    (QuotaExceededError, "quota-exceeded", 429),
    (QueueFullError, "queue-full", 429),
    (CommitError, "commit-failed", 503),
    (ValueError, "bad-request", 400),
)
_SUBMIT_ERROR_TYPES = tuple(kind for kind, _, _ in _SUBMIT_ERRORS)

#: Poll interval for live event feeds — bounds how long a dead connection
#: can pin a feeder thread.
_FEED_POLL = 0.5

_FEED_IDLE = object()


class ServiceServer:
    """The job server: registry + queues + executor + runner + listeners."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else \
            ServiceConfig.from_env()
        if not self.config.socket_path and not self.config.http_port:
            raise ValueError(
                "ServiceConfig needs a socket_path and/or an http_port")
        self.registry = RunRegistry(self.config.db_path)
        self.queues = TenantQueues(
            max_pending=self.config.max_pending,
            max_pending_per_tenant=self.config.max_pending_per_tenant,
            max_running_per_tenant=self.config.max_running_per_tenant)
        policy = ExecutionPolicy(broker=self.config.spool) \
            if self.config.spool else None
        self.executor = Executor(cache_dir=self.config.cache_dir,
                                 policy=policy)
        self.runner = JobRunner(self.executor, self.registry, self.queues,
                                workers=self.config.workers,
                                max_attempts=self.config.max_attempts,
                                lease_seconds=self.config.lease_seconds,
                                retry_backoff=self.config.retry_backoff)
        self.http_port: Optional[int] = None
        self._stop: Optional[asyncio.Event] = None
        self._drain = True
        self._servers: list = []
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Bind the configured listeners (call from the serving loop)."""
        self._stop = asyncio.Event()
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
            self._servers.append(await asyncio.start_unix_server(
                self._handle_socket, path=self.config.socket_path))
        if self.config.http_port is not None:
            server = await asyncio.start_server(
                self._handle_http, host=self.config.host,
                port=self.config.http_port)
            # port 0 lets the OS pick — publish the real one.
            self.http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

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
        """Close listeners, drain the runner, release every resource."""
        if self._closed:
            return
        self._closed = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        await asyncio.to_thread(self.runner.shutdown, self._drain)
        self.registry.close()
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)

    # -- NDJSON transport ---------------------------------------------------
    async def _handle_socket(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while self._stop is not None and not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_line(line.decode("utf-8"))
                except ProtocolError as error:
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
        if isinstance(request, PingRequest):
            await self._write(writer, PongResponse())
        elif isinstance(request, StatsRequest):
            await self._write(writer, StatsResponse(self.runner.stats()))
        elif isinstance(request, SubmitRequest):
            await self._dispatch_submit(request, writer)
        elif isinstance(request, StatusRequest):
            try:
                entry = self.runner.job(request.job_id)
            except UnknownJobError:
                await self._write(writer, ErrorResponse(
                    "unknown-job", f"no job {request.job_id!r}", 404))
            else:
                await self._write(writer, JobResponse(entry))
        elif isinstance(request, ResultRequest):
            try:
                if request.wait:
                    entry = await asyncio.to_thread(
                        self.runner.wait_result, request.job_id)
                else:
                    entry = self.runner.job(request.job_id, RESULT_COLUMNS)
            except UnknownJobError:
                await self._write(writer, ErrorResponse(
                    "unknown-job", f"no job {request.job_id!r}", 404))
            else:
                await self._write(writer, _result_response(entry))
        elif isinstance(request, AttachRequest):
            try:
                self.runner.job(request.job_id, ("state",))
            except UnknownJobError:
                await self._write(writer, ErrorResponse(
                    "unknown-job", f"no job {request.job_id!r}", 404))
                return
            entry = await self._pump_events(
                request.job_id, request.after_seq,
                lambda event: self._write(writer, EventResponse(**event)),
                writer)
            await self._write(writer, _result_response(entry))
        elif isinstance(request, CancelRequest):
            try:
                state = self.runner.cancel(request.job_id)
            except UnknownJobError:
                await self._write(writer, ErrorResponse(
                    "unknown-job", f"no job {request.job_id!r}", 404))
            else:
                await self._write(writer, OkResponse(detail=state))
        elif isinstance(request, ListJobsRequest):
            await self._write(writer, JobListResponse(
                self.registry.list_jobs(request.tenant, request.limit)))
        elif isinstance(request, ShutdownRequest):
            await self._write(writer, OkResponse(detail="shutting down"))
            self.request_shutdown(drain=request.drain)
        else:  # a response type sent as a request
            await self._write(writer, ErrorResponse(
                "bad-request",
                f"{type(request).__name__} is not a request", 400))

    async def _dispatch_submit(self, request: SubmitRequest,
                               writer: asyncio.StreamWriter) -> None:
        try:
            request.validate()
            submission = await asyncio.to_thread(
                self.runner.submit, request.kind, request.payload,
                request.tenant, request.priority, request.deadline,
                request.max_attempts)
        except _SUBMIT_ERROR_TYPES as error:
            code, status = _submit_error(error)
            await self._write(writer, ErrorResponse(code, str(error), status))
            return
        job_id, deduped, position = submission
        await self._write(writer, SubmittedResponse(
            job_id=job_id, state=submission.state, deduped=deduped,
            position=position))
        if request.stream:
            entry = await self._pump_events(
                job_id, 0,
                lambda event: self._write(writer, EventResponse(**event)),
                writer)
            await self._write(writer, _result_response(entry))

    # -- event pump (shared by NDJSON streaming and HTTP SSE) ---------------
    async def _pump_events(
            self, job_id: str, after_seq: int,
            send: Callable[[Dict[str, Any]], Awaitable[None]],
            writer: asyncio.StreamWriter) -> Dict[str, Any]:
        """Replay persisted events after ``after_seq``, then follow live
        ones until the job is terminal; returns the job's
        :data:`~repro.service.runner.RESULT_COLUMNS`.

        Subscribes *before* replaying and drops live events at or below the
        replay horizon, so a reattaching client sees every event exactly
        once regardless of timing.  The state is read before the replay: a
        job that was terminal then has every event in the replay, and one
        that was not will still publish its terminal event to the feed.
        """
        feed = self.runner.subscribe(job_id)
        try:
            entry = self.runner.job(job_id, RESULT_COLUMNS)
            horizon = int(after_seq)
            for event in self.registry.events_since(job_id, horizon):
                horizon = max(horizon, event["seq"])
                await send(event)
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
                await send(event)
            return self.runner.job(job_id, RESULT_COLUMNS)
        finally:
            self.runner.unsubscribe(job_id, feed)

    # -- HTTP transport -----------------------------------------------------
    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers: Dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length") or 0)
            body = await reader.readexactly(length) if length else b""
            await self._route_http(method, target, body, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _route_http(self, method: str, target: str, body: bytes,
                          writer: asyncio.StreamWriter) -> None:
        path, _, query_string = target.partition("?")
        query = urllib.parse.parse_qs(query_string)
        if path == "/v1/ping" and method == "GET":
            await self._http_json(writer, 200, {
                "server": "repro.service", "version": PROTOCOL_VERSION})
        elif path == "/v1/stats" and method == "GET":
            await self._http_json(writer, 200, self.runner.stats())
        elif path == "/v1/jobs" and method == "POST":
            await self._http_submit(body, writer)
        elif path == "/v1/shutdown" and method == "POST":
            drain = query.get("drain", ["1"])[0] not in ("0", "false")
            await self._http_json(writer, 200, {"detail": "shutting down"})
            self.request_shutdown(drain=drain)
        elif path.startswith("/v1/jobs/"):
            await self._http_job(method, path[len("/v1/jobs/"):], query,
                                 writer)
        else:
            await self._http_json(writer, 404, {
                "code": "not-found", "message": f"no route {path!r}"})

    async def _http_submit(self, body: bytes,
                           writer: asyncio.StreamWriter) -> None:
        try:
            document = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(document, dict):
                raise ProtocolError("the request body must be a JSON object")
            request = SubmitRequest(
                kind=document.get("kind", ""),
                payload=document.get("payload", {}),
                tenant=document.get("tenant",
                                    self.config.default_tenant),
                priority=int(document.get("priority", 0)),
                deadline=document.get("deadline"),
                max_attempts=document.get("max_attempts")).validate()
            submission = await asyncio.to_thread(
                self.runner.submit, request.kind, request.payload,
                request.tenant, request.priority, request.deadline,
                request.max_attempts)
        except _SUBMIT_ERROR_TYPES as error:
            code, status = _submit_error(error)
            await self._http_json(writer, status, {
                "code": code, "message": str(error)})
            return
        job_id, deduped, position = submission
        await self._http_json(writer, 202, {
            "job_id": job_id, "deduped": deduped, "position": position,
            "state": submission.state})

    async def _http_job(self, method: str, rest: str, query,
                        writer: asyncio.StreamWriter) -> None:
        segments = [segment for segment in rest.split("/") if segment]
        if not segments:
            await self._http_json(writer, 404, {
                "code": "not-found", "message": "missing job id"})
            return
        job_id = segments[0]
        action = segments[1] if len(segments) > 1 else None
        try:
            if action is None and method == "GET":
                await self._http_json(writer, 200, self.runner.job(job_id))
            elif action == "result" and method == "GET":
                wait = query.get("wait", ["1"])[0] not in ("0", "false")
                entry = await asyncio.to_thread(
                    self.runner.wait_result, job_id) if wait else \
                    self.runner.job(job_id, RESULT_COLUMNS)
                await self._http_json(writer, 200, {
                    "job_id": job_id, "state": entry["state"],
                    "result": entry["result"], "error": entry["error"]})
            elif action == "events" and method == "GET":
                after_seq = int(query.get("after", ["0"])[0])
                await self._http_events(job_id, after_seq, writer)
            elif action == "cancel" and method == "POST":
                state = self.runner.cancel(job_id)
                await self._http_json(writer, 200, {"job_id": job_id,
                                                    "state": state})
            else:
                await self._http_json(writer, 405, {
                    "code": "method-not-allowed",
                    "message": f"{method} not supported here"})
        except UnknownJobError:
            await self._http_json(writer, 404, {
                "code": "unknown-job", "message": f"no job {job_id!r}"})

    async def _http_events(self, job_id: str, after_seq: int,
                           writer: asyncio.StreamWriter) -> None:
        """Stream a job's events as server-sent events until terminal."""
        self.runner.job(job_id, ("state",))  # 404 via caller if unknown
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()

        async def send(event: Dict[str, Any]) -> None:
            data = json.dumps(event, separators=(",", ":"), sort_keys=True)
            writer.write(f"event: {event['kind']}\n"
                         f"data: {data}\n\n".encode("utf-8"))
            await writer.drain()

        entry = await self._pump_events(job_id, after_seq, send, writer)
        final = json.dumps({
            "job_id": job_id, "state": entry["state"],
            "result": entry["result"], "error": entry["error"],
        }, separators=(",", ":"), sort_keys=True)
        writer.write(f"event: result\ndata: {final}\n\n".encode("utf-8"))
        await writer.drain()

    async def _http_json(self, writer: asyncio.StreamWriter, status: int,
                         document: Dict[str, Any]) -> None:
        body = json.dumps(document, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        reason = _HTTP_REASONS.get(status, "OK")
        writer.write((f"HTTP/1.1 {status} {reason}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      f"Connection: close\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


def _submit_error(error: Exception) -> Tuple[str, int]:
    """The ``(code, status)`` :data:`_SUBMIT_ERRORS` gives ``error``."""
    return next((code, status) for kind, code, status in _SUBMIT_ERRORS
                if isinstance(error, kind))


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
    def socket_path(self) -> Optional[str]:
        return self.server.config.socket_path

    @property
    def http_port(self) -> Optional[int]:
        return self.server.http_port

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
    listeners are bound; returns a :class:`ServiceHandle`."""
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
