"""repro.service — a long-running execution job server.

The service layer turns the in-process execution engine into shared
infrastructure: an asyncio server (:mod:`repro.service.server`) accepts
pickle-free JSON jobs over a unix socket, queues them in one bounded FIFO
with backpressure (:mod:`repro.service.queue`), runs them on worker
threads against one shared :class:`~repro.execution.Executor`
(:mod:`repro.service.runner`), records every state change and streamed
partial result in a SQLite run registry
(:mod:`repro.service.registry`), and coalesces duplicate in-flight jobs
across clients by engine content fingerprints
(:mod:`repro.service.jobs`).

Quickstart (in-thread server, blocking client)::

    from repro.service import (ServiceClient, ServiceConfig,
                               start_in_thread)

    handle = start_in_thread(ServiceConfig(socket_path="/tmp/repro.sock"))
    with ServiceClient(handle.socket_path) as client:
        job_id = client.submit_qec_memory(
            distance=3, rounds=2, error_rate=0.01, shots=512, seed=7)
        print(client.fetch(job_id)["logical_error_rate"])
    handle.stop()

Or from a shell: ``python -m repro.service serve --socket /tmp/repro.sock``.
"""

from .client import (EventCallback, JobFailedError, ServiceClient,
                     ServiceError)
from .config import ServiceConfig
from .jobs import prepare_job
from .protocol import (JOB_KINDS, JOB_STATES, PROTOCOL_VERSION,
                       TERMINAL_STATES, ProtocolError, decode_line,
                       encode_line, expectation_payload, qec_memory_payload,
                       qec_rare_event_payload, sweep_payload)
from .queue import JobQueue, QueueFullError
from .registry import RegistryError, RunRegistry
from .runner import JobRunner, UnknownJobError
from .server import ServiceHandle, ServiceServer, start_in_thread

__all__ = [
    "EventCallback",
    "JobFailedError",
    "ServiceClient",
    "ServiceError",
    "ServiceConfig",
    "prepare_job",
    "JOB_KINDS",
    "JOB_STATES",
    "PROTOCOL_VERSION",
    "TERMINAL_STATES",
    "ProtocolError",
    "decode_line",
    "encode_line",
    "expectation_payload",
    "qec_memory_payload",
    "qec_rare_event_payload",
    "sweep_payload",
    "JobQueue",
    "QueueFullError",
    "RegistryError",
    "RunRegistry",
    "JobRunner",
    "UnknownJobError",
    "ServiceHandle",
    "ServiceServer",
    "start_in_thread",
]
