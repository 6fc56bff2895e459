"""A thin blocking client for the execution job server.

:class:`ServiceClient` speaks the newline-delimited-JSON protocol over the
server's unix socket — one dataclass message per line in each direction
(:mod:`repro.service.protocol`).  It is deliberately synchronous: tests,
scripts and the ``python -m repro.service`` CLI call it directly, and a
streamed job is just a loop over ``event`` lines ending in a result line.

The client carries no job state.  A client that crashes mid-stream loses
nothing — a new client (or any other process) calls :meth:`attach` with the
job id and the last event ``seq`` it saw, and the server replays the
persisted tail from the run registry before following live events.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .protocol import (AttachRequest, CancelRequest, ErrorResponse,
                       EventResponse, JobListResponse, JobResponse,
                       ListJobsRequest, OkResponse, PingRequest,
                       PongResponse, ResultRequest, ResultResponse,
                       ShutdownRequest, StatsRequest, StatsResponse,
                       StatusRequest, SubmitRequest, SubmittedResponse,
                       decode_line, encode_line, expectation_payload,
                       qec_memory_payload, qec_rare_event_payload,
                       sweep_payload)

#: Signature of a streaming callback: one persisted event dict at a time.
EventCallback = Callable[[Dict[str, Any]], None]


class ServiceError(RuntimeError):
    """An error response from the server (``status`` mirrors HTTP)."""

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.status = status

    @classmethod
    def from_response(cls, response: ErrorResponse) -> "ServiceError":
        return cls(response.code, response.message, response.status)


class JobFailedError(ServiceError):
    """A waited-on job finished in ``failed`` or ``cancelled`` state."""

    def __init__(self, job_id: str, state: str, error: Optional[str]):
        super().__init__("job-" + state, error or f"job {job_id} {state}",
                         status=500)
        self.job_id = job_id
        self.state = state


class ServiceClient:
    """One blocking NDJSON connection to a :class:`ServiceServer`.

    Not thread-safe — it is one ordered request/response stream; use one
    client per thread.  Usable as a context manager.
    """

    def __init__(self, socket_path: str,
                 timeout: Optional[float] = None):
        self.socket_path = str(socket_path)
        self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self._socket.settimeout(timeout)
            self._socket.connect(self.socket_path)
        except BaseException:
            self._socket.close()
            raise
        self._reader = self._socket.makefile("rb")

    # -- plumbing -----------------------------------------------------------
    def close(self) -> None:
        self._reader.close()
        self._socket.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _send(self, request) -> None:
        self._socket.sendall(encode_line(request).encode("utf-8"))

    def _read(self):
        line = self._reader.readline()
        if not line:
            raise ServiceError("disconnected",
                               "the server closed the connection",
                               status=503)
        response = decode_line(line.decode("utf-8"))
        if isinstance(response, ErrorResponse):
            raise ServiceError.from_response(response)
        return response

    def _round_trip(self, request, expected: type):
        self._send(request)
        response = self._read()
        if not isinstance(response, expected):
            raise ServiceError(
                "protocol", f"expected {expected.__name__}, got "
                            f"{type(response).__name__}")
        return response

    def _read_stream(self, on_event: Optional[EventCallback]
                     ) -> ResultResponse:
        """Consume ``event`` lines until the terminating result line."""
        while True:
            response = self._read()
            if isinstance(response, ResultResponse):
                return response
            if isinstance(response, EventResponse):
                if on_event is not None:
                    on_event({"job_id": response.job_id,
                              "seq": response.seq,
                              "kind": response.kind,
                              "data": response.data})
                continue
            raise ServiceError(
                "protocol",
                f"unexpected {type(response).__name__} mid-stream")

    # -- requests -----------------------------------------------------------
    def ping(self) -> PongResponse:
        return self._round_trip(PingRequest(), PongResponse)

    def stats(self) -> Dict[str, Any]:
        return self._round_trip(StatsRequest(), StatsResponse).stats

    def submit(self, kind: str, payload: Dict[str, Any],
               tenant: str = "default", priority: int = 0,
               deadline: Optional[float] = None,
               max_attempts: Optional[int] = None) -> SubmittedResponse:
        """Submit a job and return immediately (no streaming).

        ``response.deduped`` is True when an identical job was already in
        flight and ``response.job_id`` names that job.  ``deadline`` (a
        per-attempt wall-clock budget in seconds) and ``max_attempts`` (the
        retry budget, ``1`` = fail on first error) override the server's
        defaults for this job.
        """
        return self._round_trip(
            SubmitRequest(kind=kind, payload=payload, tenant=tenant,
                          priority=priority, deadline=deadline,
                          max_attempts=max_attempts), SubmittedResponse)

    def submit_and_stream(
            self, kind: str, payload: Dict[str, Any],
            tenant: str = "default", priority: int = 0,
            on_event: Optional[EventCallback] = None,
            deadline: Optional[float] = None,
            max_attempts: Optional[int] = None
    ) -> Tuple[SubmittedResponse, ResultResponse]:
        """Submit with streaming: block until the job is terminal, invoking
        ``on_event`` for every persisted event along the way."""
        submitted = self._round_trip(
            SubmitRequest(kind=kind, payload=payload, tenant=tenant,
                          priority=priority, stream=True, deadline=deadline,
                          max_attempts=max_attempts),
            SubmittedResponse)
        return submitted, self._read_stream(on_event)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._round_trip(StatusRequest(job_id), JobResponse).job

    def result(self, job_id: str, wait: bool = True) -> ResultResponse:
        """The job's final result (blocks server-side when ``wait``)."""
        return self._round_trip(ResultRequest(job_id, wait=wait),
                                ResultResponse)

    def attach(self, job_id: str, after_seq: int = 0,
               on_event: Optional[EventCallback] = None) -> ResultResponse:
        """Reattach to a job: replay persisted events after ``after_seq``,
        follow live ones, return the final result.  This is the recovery
        path for a client that crashed mid-stream."""
        self._send(AttachRequest(job_id, after_seq=after_seq))
        return self._read_stream(on_event)

    def iter_events(self, job_id: str,
                    after_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Generator form of :meth:`attach`; yields event dicts and ends
        when the job is terminal (final result discarded)."""
        self._send(AttachRequest(job_id, after_seq=after_seq))
        while True:
            response = self._read()
            if isinstance(response, ResultResponse):
                return
            if isinstance(response, EventResponse):
                yield {"job_id": response.job_id, "seq": response.seq,
                       "kind": response.kind, "data": response.data}
                continue
            raise ServiceError(
                "protocol",
                f"unexpected {type(response).__name__} mid-stream")

    def cancel(self, job_id: str) -> str:
        return self._round_trip(CancelRequest(job_id), OkResponse).detail

    def list_jobs(self, tenant: Optional[str] = None,
                  limit: int = 50) -> List[Dict[str, Any]]:
        return self._round_trip(ListJobsRequest(tenant=tenant, limit=limit),
                                JobListResponse).jobs

    def shutdown_server(self, drain: bool = True) -> str:
        return self._round_trip(ShutdownRequest(drain=drain),
                                OkResponse).detail

    # -- job sugar ----------------------------------------------------------
    def submit_expectation(self, circuits, observable, *, tenant="default",
                           priority=0, **options) -> str:
        """Submit an ``expectation`` job from in-memory objects; returns the
        job id.  Options mirror :func:`expectation_payload`."""
        payload = expectation_payload(circuits, observable, **options)
        return self.submit("expectation", payload, tenant=tenant,
                           priority=priority).job_id

    def submit_sweep(self, template, parameter_sets, observable, *,
                     tenant="default", priority=0, **options) -> str:
        """Submit a ``sweep`` job; options mirror :func:`sweep_payload`."""
        payload = sweep_payload(template, parameter_sets, observable,
                                **options)
        return self.submit("sweep", payload, tenant=tenant,
                           priority=priority).job_id

    def submit_qec_memory(self, *, tenant="default", priority=0,
                          **options) -> str:
        """Submit a ``qec_memory`` job; options mirror
        :func:`qec_memory_payload`."""
        payload = qec_memory_payload(**options)
        return self.submit("qec_memory", payload, tenant=tenant,
                           priority=priority).job_id

    def submit_qec_rare_event(self, *, tenant="default", priority=0,
                              **options) -> str:
        """Submit a ``qec_rare_event`` job (variance-reduced low-``p``
        logical-error-rate estimation); options mirror
        :func:`qec_rare_event_payload`."""
        payload = qec_rare_event_payload(**options)
        return self.submit("qec_rare_event", payload, tenant=tenant,
                           priority=priority).job_id

    def fetch(self, job_id: str) -> Dict[str, Any]:
        """Wait for a job and return its result payload, raising
        :class:`JobFailedError` if it did not finish in ``done`` state."""
        response = self.result(job_id, wait=True)
        if response.state != "done":
            raise JobFailedError(job_id, response.state, response.error)
        return response.result
