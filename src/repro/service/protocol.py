"""The wire protocol of the execution job server.

Versioned request/response **dataclasses** with a pure-JSON round trip —
every message is one JSON object on one line (newline-delimited JSON over
the server's unix socket).  :func:`decode_line` checks each field's JSON
type against its dataclass annotation, so a malformed request is a
:class:`ProtocolError` (a 400), never an exception inside the server.
Nothing on the wire is ever pickled: circuits, observables and noise models
ride the :mod:`repro.io.serialization` dict formats, so a shared service
socket can never be made to execute code by a malicious payload.

Four job kinds are accepted (``JOB_KINDS``):

``expectation``
    ⟨H⟩ for a list of bound circuits — the service-side mirror of
    :meth:`repro.execution.Executor.evaluate_observable`.
``sweep``
    ⟨H⟩ over a parameter sweep of one parametric template — the mirror of
    :meth:`repro.execution.Executor.evaluate_sweep`, streamed chunk by
    chunk.
``qec_memory``
    A seeded QEC Monte-Carlo memory experiment — the mirror of
    :func:`repro.qec.run_memory_sampling`, streamed as running failure
    counts with Wilson intervals.
``qec_rare_event``
    A variance-reduced low-``p`` logical-error-rate estimate — the mirror
    of :func:`repro.qec.run_rare_event_sampling`, streamed as running
    estimates with effective-n Wilson intervals and per-stratum
    breakdowns.

Use the ``*_payload`` helpers to build submission payloads from in-memory
objects; :func:`encode_line` / :func:`decode_line` convert between message
dataclasses and wire lines.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from typing import (Any, Dict, List, Optional, Tuple, Type, Union,
                    get_args, get_origin, get_type_hints)

#: Protocol version stamped into (and required on) every message.  v2
#: removed two submit fields, so a v1 line is refused for its version.
PROTOCOL_VERSION = 2

#: The job kinds the server schedules.
JOB_KINDS = ("expectation", "sweep", "qec_memory", "qec_rare_event")

#: Job lifecycle states persisted in the run registry.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Terminal states — once reached, a job row never changes again.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Longest request line the server reads, not counting its newline:
#: 16 MiB.  A 400-point sweep of a 10-qubit template is about 70 KB, so
#: this holds payloads two hundred times that size while bounding what one
#: connection can make the server buffer.  A longer line is answered with
#: a 413 ``ErrorResponse`` naming this limit, and the connection is closed.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A message that cannot be decoded or validated."""


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------

_MESSAGE_TYPES: Dict[str, Type] = {}


def message(type_name: str):
    """Class decorator registering a dataclass under a wire ``type`` tag."""
    def register(cls):
        cls.TYPE = type_name
        cls.FIELD_TYPES = {name: _json_types(annotation) for name, annotation
                           in get_type_hints(cls).items()}
        _MESSAGE_TYPES[type_name] = cls
        return cls
    return register


def _json_types(annotation) -> Optional[Tuple[type, ...]]:
    """The Python types of the JSON values a field annotation (``X`` or
    ``Optional[X]``) admits; None admits any value."""
    if annotation is Any:
        return None
    arguments = get_args(annotation) if get_origin(annotation) is Union \
        else (annotation,)
    kinds = tuple(get_origin(argument) or argument for argument in arguments)
    return kinds + (int,) if float in kinds else kinds


def _has_type(value, types: Optional[Tuple[type, ...]]) -> bool:
    """Whether ``value`` is of ``types`` (a JSON bool is no number)."""
    if types is None:
        return True
    if isinstance(value, bool) and bool not in types:
        return False
    return isinstance(value, types)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _storable(value) -> bool:
    """Whether SQLite can bind ``value``: an integer must fit 64 bits, and a
    string must hold no lone surrogate (JSON can escape one, UTF-8 cannot
    encode it)."""
    if isinstance(value, int):
        return -2 ** 63 <= value < 2 ** 63
    return not (isinstance(value, str) and _SURROGATE.search(value))


def encode_line(msg) -> str:
    """One wire line (newline-terminated JSON object) for a message."""
    payload = {"v": PROTOCOL_VERSION, "type": msg.TYPE}
    for f in dataclasses.fields(msg):
        payload[f.name] = getattr(msg, f.name)
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True) + "\n"


def decode_line(line: str):
    """The message dataclass encoded on ``line`` (raises ProtocolError)."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not a JSON line: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("a protocol message must be a JSON object")
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks v{PROTOCOL_VERSION})")
    type_name = payload.pop("type", None)
    cls = _MESSAGE_TYPES.get(type_name)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ProtocolError(
            f"unknown fields for {type_name!r}: {sorted(unknown)}")
    for name, value in payload.items():
        if not _has_type(value, cls.FIELD_TYPES[name]):
            annotation = cls.__dataclass_fields__[name].type
            raise ProtocolError(
                f"field {name!r} of {type_name!r} must be {annotation}, "
                f"not {type(value).__name__}")
        if not _storable(value):
            raise ProtocolError(
                f"field {name!r} of {type_name!r} does not fit SQLite "
                f"(a 64-bit integer or a UTF-8 string)")
    try:
        return cls(**payload)
    except TypeError as error:
        raise ProtocolError(f"malformed {type_name!r} message: {error}") \
            from None


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@message("submit")
@dataclass(frozen=True)
class SubmitRequest:
    """Submit one job; ``stream=True`` keeps the connection in event mode
    until the job reaches a terminal state.

    ``deadline`` is a per-job wall-clock budget in seconds (attempts that
    outlive it are cancelled and retried); ``max_attempts`` overrides the
    server's default retry budget (``1`` = fail on first error).  Both are
    optional and default to the server's configuration.
    """

    kind: str
    payload: Dict[str, Any]
    stream: bool = False
    deadline: Optional[float] = None
    max_attempts: Optional[int] = None

    def validate(self) -> "SubmitRequest":
        """Check the field values (:func:`decode_line` checked the types)."""
        if self.kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {self.kind!r} (expected one of "
                f"{JOB_KINDS})")
        if self.deadline is not None and not 0 < self.deadline < math.inf:
            raise ProtocolError("deadline must be a positive finite number")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ProtocolError("max_attempts must be an integer >= 1")
        return self


@message("status")
@dataclass(frozen=True)
class StatusRequest:
    job_id: str


@message("result")
@dataclass(frozen=True)
class ResultRequest:
    """Fetch a job's final result; ``wait=True`` blocks (server-side) until
    the job reaches a terminal state."""

    job_id: str
    wait: bool = True


@message("attach")
@dataclass(frozen=True)
class AttachRequest:
    """Reattach to a job by id: replay persisted events after ``after_seq``,
    then stream live ones until the job is terminal, then send the result.
    This is the crashed-client recovery path — the run registry, not the
    connection, owns the job."""

    job_id: str
    after_seq: int = 0


@message("cancel")
@dataclass(frozen=True)
class CancelRequest:
    job_id: str


@message("jobs")
@dataclass(frozen=True)
class ListJobsRequest:
    limit: int = 50

    def validate(self) -> "ListJobsRequest":
        if self.limit < 0:  # SQLite reads a negative LIMIT as no limit
            raise ProtocolError("limit must be an integer >= 0")
        return self


@message("stats")
@dataclass(frozen=True)
class StatsRequest:
    pass


@message("ping")
@dataclass(frozen=True)
class PingRequest:
    pass


@message("shutdown")
@dataclass(frozen=True)
class ShutdownRequest:
    """Ask the server to shut down gracefully: stop accepting work, drain
    running jobs, persist final states, retire the executor pool."""

    drain: bool = True


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@message("submitted")
@dataclass(frozen=True)
class SubmittedResponse:
    """``deduped=True`` means an identical job (same content fingerprints)
    was already in flight and ``job_id`` names **that** job — exactly one
    execution will serve every submitter."""

    job_id: str
    state: str
    deduped: bool = False
    position: Optional[int] = None


@message("job")
@dataclass(frozen=True)
class JobResponse:
    job: Dict[str, Any]


@message("job-list")
@dataclass(frozen=True)
class JobListResponse:
    jobs: List[Dict[str, Any]]


@message("event")
@dataclass(frozen=True)
class EventResponse:
    """One streamed partial-result / lifecycle event."""

    job_id: str
    seq: int
    kind: str
    data: Dict[str, Any]


@message("result-data")
@dataclass(frozen=True)
class ResultResponse:
    job_id: str
    state: str
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


@message("error")
@dataclass(frozen=True)
class ErrorResponse:
    """``status`` borrows HTTP's codes: 400 bad request, 404 unknown job,
    413 request line over :data:`MAX_LINE_BYTES`, 429 queue full
    (backpressure), 503 registry commit failed."""

    code: str
    message: str
    status: int = 400


@message("pong")
@dataclass(frozen=True)
class PongResponse:
    server: str = "repro.service"
    version: int = PROTOCOL_VERSION


@message("stats-data")
@dataclass(frozen=True)
class StatsResponse:
    stats: Dict[str, Any]


@message("ok")
@dataclass(frozen=True)
class OkResponse:
    detail: str = ""


# ---------------------------------------------------------------------------
# Job payload builders (client-side sugar, server-side contract)
# ---------------------------------------------------------------------------


def expectation_payload(circuits, observable, *, noise_model=None,
                        backend: Optional[str] = None,
                        include_idle: bool = True,
                        chunk: Optional[int] = None,
                        policy=None) -> Dict[str, Any]:
    """Payload of an ``expectation`` job: ⟨observable⟩ per bound circuit.

    Mirrors :meth:`repro.execution.Executor.evaluate_observable`; ``chunk``
    bounds how many circuits the runner evaluates per streamed partial.
    ``policy`` (an :class:`~repro.execution.policy.ExecutionPolicy` or its
    payload dict) steers server-side fan-out; it never changes values.
    The job runs inline unless it says ``{"parallel": "process"}``; any
    ``parallel`` other than ``"none"`` or ``"process"`` is a
    ``malformed policy`` 400.
    """
    from ..circuits.circuit import QuantumCircuit
    from ..io.serialization import (circuit_to_dict, noise_model_to_dict,
                                    pauli_sum_to_dict)
    if isinstance(circuits, QuantumCircuit):
        circuits = [circuits]
    payload = {
        "circuits": [circuit_to_dict(circuit) for circuit in circuits],
        "observable": pauli_sum_to_dict(observable),
        "include_idle": bool(include_idle),
    }
    if noise_model is not None and noise_model.has_noise():
        payload["noise_model"] = noise_model_to_dict(noise_model)
    if backend is not None:
        payload["backend"] = str(backend)
    if chunk is not None:
        payload["chunk"] = int(chunk)
    if policy is not None:
        payload["policy"] = _policy_payload(policy)
    return payload


def sweep_payload(template, parameter_sets, observable, *, noise_model=None,
                  backend: str = "auto",
                  include_idle: bool = True,
                  chunk: Optional[int] = None,
                  policy=None) -> Dict[str, Any]:
    """Payload of a ``sweep`` job over one parametric template.

    Mirrors :meth:`repro.execution.Executor.evaluate_sweep`; the runner
    evaluates ``chunk`` points per streamed partial (all points in one batch
    when unset).  ``policy`` steers server-side fan-out, as for
    :func:`expectation_payload`; it never changes values.
    """
    from ..io.serialization import (noise_model_to_dict, pauli_sum_to_dict,
                                    template_to_dict)
    payload = {
        "template": template_to_dict(template),
        "parameter_sets": [[float(v) for v in values]
                           for values in parameter_sets],
        "observable": pauli_sum_to_dict(observable),
        "backend": str(backend),
        "include_idle": bool(include_idle),
    }
    if noise_model is not None and noise_model.has_noise():
        payload["noise_model"] = noise_model_to_dict(noise_model)
    if chunk is not None:
        payload["chunk"] = int(chunk)
    if policy is not None:
        payload["policy"] = _policy_payload(policy)
    return payload


def _policy_payload(policy) -> Dict[str, Any]:
    """The wire form of a policy argument (accepts a ready payload dict)."""
    if isinstance(policy, dict):
        return dict(policy)
    return policy.to_payload()


def qec_memory_payload(*, code: str = "repetition", distance: int,
                       rounds: int, error_rate: float,
                       measurement_error_rate: Optional[float] = None,
                       decoder: str = "mwpm", shots: int,
                       seed: Optional[int] = None,
                       chunk_blocks: Optional[int] = None) -> Dict[str, Any]:
    """Payload of a ``qec_memory`` job (a seeded Monte-Carlo memory run).

    The decoding graph is built server-side from this spec
    (``code``: ``"repetition"`` or ``"surface"``), so the wire carries a few
    numbers instead of a serialized graph.  ``decoder`` is one of
    ``"mwpm"``, ``"union_find"`` or ``"lookup"``.  Seeded jobs are
    deduplicated across clients and cached; an unseeded job is neither.
    ``chunk_blocks`` controls streaming granularity (sampling blocks of
    :data:`repro.qec.sampling.SHOT_BLOCK` shots per partial update).
    """
    payload = {
        "code": str(code),
        "distance": int(distance),
        "rounds": int(rounds),
        "error_rate": float(error_rate),
        "decoder": str(decoder),
        "shots": int(shots),
    }
    if measurement_error_rate is not None:
        payload["measurement_error_rate"] = float(measurement_error_rate)
    if seed is not None:
        payload["seed"] = int(seed)
    if chunk_blocks is not None:
        payload["chunk_blocks"] = int(chunk_blocks)
    return payload


def qec_rare_event_payload(*, code: str = "repetition", distance: int,
                           rounds: int, error_rate: float,
                           measurement_error_rate: Optional[float] = None,
                           decoder: str = "mwpm", shots: int,
                           seed: Optional[int] = None,
                           min_fault_weight: Optional[int] = None,
                           max_weight: Optional[int] = None,
                           pilot_shots: Optional[int] = None,
                           tail_rtol: Optional[float] = None,
                           chunk_blocks: Optional[int] = None
                           ) -> Dict[str, Any]:
    """Payload of a ``qec_rare_event`` job (variance-reduced low-``p`` run).

    Same graph/decoder spec as :func:`qec_memory_payload`; ``shots`` is the
    decode budget the weight-stratified estimator spends, and per-stratum
    partials stream out as it is spent.  ``min_fault_weight`` /
    ``max_weight`` / ``pilot_shots`` / ``tail_rtol`` tune the estimator;
    unset values use the engine defaults documented on
    :func:`repro.qec.rare_event.run_rare_event_sampling`.
    """
    payload = qec_memory_payload(
        code=code, distance=distance, rounds=rounds, error_rate=error_rate,
        measurement_error_rate=measurement_error_rate, decoder=decoder,
        shots=shots, seed=seed, chunk_blocks=chunk_blocks)
    if min_fault_weight is not None:
        payload["min_fault_weight"] = int(min_fault_weight)
    if max_weight is not None:
        payload["max_weight"] = int(max_weight)
    if pilot_shots is not None:
        payload["pilot_shots"] = int(pilot_shots)
    if tail_rtol is not None:
        payload["tail_rtol"] = float(tail_rtol)
    return payload
