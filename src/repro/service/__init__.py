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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "client": ["EventCallback", "JobFailedError", "ServiceClient",
               "ServiceError"],
    "config": ["ServiceConfig"],
    "jobs": ["prepare_job"],
    "protocol": ["JOB_KINDS", "JOB_STATES", "PROTOCOL_VERSION",
                 "TERMINAL_STATES", "ProtocolError", "decode_line",
                 "encode_line", "expectation_payload", "qec_memory_payload",
                 "qec_rare_event_payload", "sweep_payload"],
    "queue": ["JobQueue", "QueueFullError"],
    "registry": ["RegistryError", "RunRegistry"],
    "runner": ["JobRunner", "UnknownJobError"],
    "server": ["ServiceHandle", "ServiceServer", "start_in_thread"],
})
