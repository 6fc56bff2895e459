"""The repro.service job server: protocol, scheduling, registry, E2E.

The PR-6 acceptance surface:

* two concurrent clients submitting an identical deterministic job are
  served by ONE engine execution (counter-verified against
  ``Executor.stats.backend_invocations`` and
  ``repro.qec.sampling_stats()``);
* a client killed mid-stream reattaches by job id and retrieves the full
  event history and final result from the SQLite run registry;
* a streaming QEC job delivers at least two partial Wilson-interval
  updates before the final result, and every value returned over the wire
  is bitwise identical to the equivalent in-process ``Executor`` call;
* the bounded queue rejects excess submissions with 429-style errors
  instead of buffering unboundedly.
"""

import contextlib
import gc
import importlib.util
import json
import os
import shutil
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameters import Parameter
from repro.execution import Executor
from repro.operators import ising_hamiltonian
from repro.operators.pauli import PauliSum
from repro.qec import LookupDecoder, MWPMDecoder, repetition_code_graph
from repro.qec.sampling import (reset_sampling_stats, run_memory_sampling,
                                sampling_stats, stream_memory_sampling)
from repro.service import (PROTOCOL_VERSION, JobFailedError, JobQueue,
                           JobRunner, ProtocolError, QueueFullError,
                           RunRegistry, ServiceClient, ServiceConfig,
                           ServiceError, decode_line, encode_line,
                           expectation_payload, qec_memory_payload,
                           qec_rare_event_payload, start_in_thread,
                           sweep_payload)
from repro.service import jobs as jobs_module
from repro.service import protocol as protocol_module
from repro.service import runner as runner_module
from repro.service.jobs import (JobContext, PreparedJob, clear_decode_memo,
                                decode_memo_stats, prepare_job)
from repro.service.protocol import RawJSON
from repro.service.registry import CommitError, RegistryError
from repro.simulators.noise import NoiseModel, depolarizing_channel


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def sweep_fixture(points=6):
    theta = Parameter("theta")
    template = QuantumCircuit(2)
    template.h(0)
    template.rz(theta, 0)
    template.cx(0, 1)
    observable = PauliSum.from_label_dict({"ZZ": 1.0, "XI": 0.5})
    parameter_sets = [[0.1 * k] for k in range(points)]
    return template, parameter_sets, observable


@contextlib.contextmanager
def service(**overrides):
    """A live in-thread server on a short unix-socket path."""
    tmp = tempfile.mkdtemp(dir="/tmp", prefix="rsvc")
    defaults = dict(socket_path=os.path.join(tmp, "s.sock"),
                    db_path=os.path.join(tmp, "registry.db"), workers=2)
    defaults.update(overrides)
    handle = start_in_thread(ServiceConfig(**defaults))
    try:
        yield handle
    finally:
        handle.stop()
        shutil.rmtree(tmp, ignore_errors=True)


def wait_for_state(client, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.status(job_id)["state"] == state:
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {state!r}")


PING = {"v": PROTOCOL_VERSION, "type": "ping"}


def exchange(socket_path, requests):
    """Send each request (a dict, or raw bytes for one line) on one
    connection and read one reply line per request, as dicts."""
    replies = []
    with socket.socket(socket.AF_UNIX) as connection:
        connection.settimeout(30)
        connection.connect(socket_path)
        with connection.makefile("rb") as reader:
            for request in requests:
                line = request if isinstance(request, bytes) else \
                    json.dumps(request).encode() + b"\n"
                connection.sendall(line)
                replies.append(json.loads(reader.readline()))
    return replies


BLOCKER = dict(distance=3, rounds=2, error_rate=0.02, shots=262144,
               chunk_blocks=4)  # unseeded: never deduped, never cached


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        request = protocol_module.SubmitRequest(
            kind="sweep", payload={"a": 1}, stream=True)
        line = encode_line(request)
        assert line.endswith("\n") and "\n" not in line[:-1]
        decoded = decode_line(line)
        assert decoded == request

    def test_every_message_type_round_trips(self):
        for cls in protocol_module._MESSAGE_TYPES.values():
            try:
                instance = cls()
            except TypeError:
                continue  # needs positional fields; covered elsewhere
            assert decode_line(encode_line(instance)) == instance

    def test_raw_json_is_spliced_verbatim(self):
        stored = json.dumps({"b": [1.5, -0.0], "a": "x"}, sort_keys=True)
        line = encode_line(protocol_module.JobResponse(
            {"payload": RawJSON(stored), "result": None, "state": "done"}))
        assert stored in line and line.endswith("\n")
        assert "\n" not in line[:-1]
        assert decode_line(line).job == {"payload": json.loads(stored),
                                         "result": None, "state": "done"}

    def test_raw_json_beside_a_string_equal_to_the_marker(self):
        job = {"payload": RawJSON('{"a": 1}'),
               "error": protocol_module._SPLICE}
        decoded = decode_line(encode_line(protocol_module.JobResponse(job)))
        assert decoded.job == {"payload": {"a": 1},
                               "error": protocol_module._SPLICE}

    def test_rejects_wrong_version(self):
        line = json.dumps({"v": 99, "type": "ping"})
        with pytest.raises(ProtocolError, match="version"):
            decode_line(line)
        # A v1 client's submit line (it always sent the two fields v2
        # removed) is refused for its version, and the connection serves on.
        v1_submit = {"v": 1, "type": "submit", "kind": "qec_memory",
                     "payload": {}, "tenant": "default", "priority": 0,
                     "stream": False, "deadline": None,
                     "max_attempts": None}
        with service() as handle:
            replies = exchange(handle.socket_path, [v1_submit, PING])
        assert replies[0]["type"] == "error"
        assert replies[0]["status"] == 400
        assert "version 1" in replies[0]["message"]
        assert replies[1]["type"] == "pong"

    def test_rejects_unknown_type(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "type": "teleport"})
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_line(line)

    def test_rejects_unknown_fields(self):
        line = json.dumps({"v": PROTOCOL_VERSION, "type": "ping",
                           "extra": 1})
        with pytest.raises(ProtocolError, match="unknown fields"):
            decode_line(line)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line("[1, 2]")
        with pytest.raises(ProtocolError):
            decode_line("not json")

    def test_submit_validation(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            protocol_module.SubmitRequest(kind="bogus",
                                          payload={}).validate()

    def test_no_pickle_on_the_wire(self):
        template, points, observable = sweep_fixture()
        payload = sweep_payload(template, points, observable)
        # The whole payload must survive a strict JSON round trip.
        assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


def builder_payloads():
    """One payload per job kind from its protocol builder, every optional
    argument set."""
    template, points, observable = sweep_fixture()
    noise = NoiseModel().add_gate_error(depolarizing_channel(0.01, 2),
                                        ["cx"])
    policy = {"parallel": "none"}
    qec = dict(code="repetition", distance=3, rounds=2, error_rate=0.02,
               measurement_error_rate=0.01, decoder="mwpm", shots=512,
               seed=3, chunk_blocks=1)
    return {
        "expectation": expectation_payload(
            template.bind_parameters([0.3]), observable, noise_model=noise,
            backend="density_matrix", include_idle=False, chunk=2,
            policy=policy),
        "sweep": sweep_payload(
            template, points, observable, noise_model=noise,
            backend="dm", include_idle=False, chunk=2, policy=policy),
        "qec_memory": qec_memory_payload(**qec),
        "qec_rare_event": qec_rare_event_payload(
            **qec, min_fault_weight=1,
            max_weight=3, pilot_shots=64, tail_rtol=0.1),
    }


def perfbench_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPayloadValidation:
    """Each job kind accepts exactly the keys its payload builder emits,
    and ``expectation``/``sweep`` name a registered backend."""

    def test_builder_payloads_are_accepted(self):
        for kind, payload in builder_payloads().items():
            assert prepare_job(kind, payload).kind == kind
        workloads = perfbench_workloads()
        assert prepare_job("sweep", workloads.sweep_job(0)).kind == "sweep"
        assert prepare_job("qec_memory",
                           workloads.qec_job(0)).kind == "qec_memory"

    @pytest.mark.parametrize("kind", ["expectation", "sweep", "qec_memory",
                                      "qec_rare_event"])
    def test_unknown_key_rejected(self, kind):
        payload = dict(builder_payloads()[kind], trajectories=64)
        with pytest.raises(ProtocolError, match="'trajectories'"):
            prepare_job(kind, payload)

    @pytest.mark.parametrize("kind", ["expectation", "sweep"])
    def test_unknown_backend_rejected(self, kind):
        payload = dict(builder_payloads()[kind], backend="stabilizer")
        with pytest.raises(ProtocolError,
                           match="unknown backend 'stabilizer'"):
            prepare_job(kind, payload)

    def test_rejected_at_submit_with_no_job_row(self):
        payloads = builder_payloads()
        bad = [(kind, dict(payload, backnd="auto"))
               for kind, payload in payloads.items()]
        bad += [(kind, dict(payloads[kind], backend="no_such_backend"))
                for kind in ("expectation", "sweep")]
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                for kind, payload in bad:
                    with pytest.raises(ServiceError) as caught:
                        client.submit(kind, payload)
                    assert caught.value.status == 400
                assert client.list_jobs() == []  # nothing persisted


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue()
        for job_id in ("j1", "j2", "j3"):
            queue.submit(job_id)
        assert [queue.next_job() for _ in range(3)] == ["j1", "j2", "j3"]

    def test_global_bound_rejects(self):
        queue = JobQueue(max_pending=2)
        assert queue.submit("j1") == 0
        assert queue.submit("j2") == 1
        with pytest.raises(QueueFullError):
            queue.submit("j3")

    def test_remove_and_drain(self):
        queue = JobQueue()
        queue.submit("j1")
        queue.submit("j2")
        assert queue.remove("j1") is True
        assert queue.remove("j1") is False
        assert queue.drain() == ["j2"]
        assert queue.pending == 0
        with pytest.raises(QueueFullError):
            queue.submit("j3")

    def test_blocked_next_job_wakes_on_drain(self):
        queue = JobQueue()
        popped = []
        worker = threading.Thread(target=lambda: popped.append(
            queue.next_job()))
        worker.start()
        time.sleep(0.05)  # the worker is blocked on the empty queue
        assert worker.is_alive()
        assert queue.drain() == []
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert popped == [None]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class TestRunRegistry:
    def test_job_lifecycle_and_guarded_transitions(self):
        registry = RunRegistry(":memory:")
        registry.create_job("j1", "sweep", "key1", {"x": 1})
        entry = registry.get_job("j1")
        assert entry["state"] == "queued"
        assert entry["payload"] == {"x": 1}
        assert registry.transition("j1", ("queued",), "running") is True
        # Illegal jump: the job is no longer queued.
        assert registry.transition("j1", ("queued",), "cancelled") is False
        registry.record_result("j1", {"energies": [1.0]}, cache_hits=3,
                               cache_misses=4)
        assert registry.transition("j1", ("running",), "done") is True
        entry = registry.get_job("j1")
        assert entry["state"] == "done"
        assert entry["result"] == {"energies": [1.0]}
        assert (entry["cache_hits"], entry["cache_misses"]) == (3, 4)
        assert entry["started_at"] is not None
        assert entry["finished_at"] is not None
        # Terminal rows never move again.
        assert registry.transition("j1", ("done",), "running") is False

    def test_event_log_is_append_only_and_ordered(self):
        registry = RunRegistry(":memory:")
        registry.create_job("j1", "sweep", None, {})
        seqs = [registry.append_event("j1", "partial", {"n": n})
                for n in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        tail = registry.events_since("j1", after_seq=3)
        assert [event["seq"] for event in tail] == [4, 5]
        assert tail[0]["data"] == {"n": 3}

    def test_append_event_numbers_its_seq_in_the_insert(self):
        """The seq comes from the INSERT itself: no SELECT per event."""
        registry = RunRegistry(":memory:")
        registry.create_job("j1", "sweep", None, {})
        statements = []
        registry._connection.set_trace_callback(statements.append)
        seqs = [registry.append_event("j1", "partial", {"n": n})
                for n in range(3)]
        registry._connection.set_trace_callback(None)
        assert seqs == [1, 2, 3]
        assert [s for s in statements
                if s.lstrip().upper().startswith("SELECT")] == []
        assert sum(s.lstrip().upper().startswith("INSERT")
                   for s in statements) == 3

    def test_counts(self):
        registry = RunRegistry(":memory:")
        registry.create_job("j1", "sweep", "K", {})
        registry.create_job("j2", "sweep", "K2", {})
        registry.transition("j1", ("queued",), "cancelled")
        assert registry.counts() == {"queued": 1, "cancelled": 1}

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        registry.create_job("j1", "sweep", None, {"x": 2})
        registry.append_event("j1", "partial", {"n": 0})
        registry.close()
        reopened = RunRegistry(path)
        assert reopened.get_job("j1")["payload"] == {"x": 2}
        assert len(reopened.events_since("j1")) == 1
        reopened.close()


#: The ``jobs``/``events`` DDL of a protocol-v1 server, whose ``tenant``
#: column is NOT NULL with no default.
V1_REGISTRY_DDL = """
CREATE TABLE jobs (
    id               TEXT PRIMARY KEY,
    tenant           TEXT NOT NULL,
    kind             TEXT NOT NULL,
    job_key          TEXT,
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL,
    payload          TEXT NOT NULL,
    result           TEXT,
    error            TEXT,
    created_at       REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    cache_hits       INTEGER NOT NULL DEFAULT 0,
    cache_misses     INTEGER NOT NULL DEFAULT 0,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 1,
    deadline_seconds REAL,
    next_eligible_at REAL,
    lease_owner      TEXT,
    lease_expires_at REAL
);
CREATE INDEX jobs_by_key    ON jobs (job_key, state);
CREATE INDEX jobs_by_tenant ON jobs (tenant, created_at);
CREATE TABLE events (
    job_id      TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    created_at  REAL NOT NULL,
    kind        TEXT NOT NULL,
    data        TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


class TestOldRegistryFile:
    def test_v1_registry_file_keeps_working(self):
        """A registry file a v1 server wrote, holding one finished job,
        reopens: the old job attach-replays, a new submit runs, and
        ``list_jobs`` returns both."""
        tmp = tempfile.mkdtemp(dir="/tmp", prefix="rsvc")
        db_path = os.path.join(tmp, "registry.db")
        old = sqlite3.connect(db_path)
        old.executescript(V1_REGISTRY_DDL)
        old.execute(
            "INSERT INTO jobs (id, tenant, kind, job_key, priority, state, "
            "payload, result, created_at, started_at, finished_at, "
            "attempts) VALUES ('old', 'alice', 'qec_memory', NULL, 3, "
            "'done', '{}', '{\"failures\": 7}', 1.0, 2.0, 3.0, 1)")
        for seq, data in enumerate(({"state": "queued"},
                                    {"state": "running"},
                                    {"state": "done"}), start=1):
            old.execute("INSERT INTO events VALUES ('old', ?, ?, 'state', ?)",
                        (seq, float(seq), json.dumps(data)))
        old.commit()
        old.close()
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=256, seed=4)
        try:
            with service(db_path=db_path) as handle:
                with ServiceClient(handle.socket_path, timeout=30) as client:
                    replayed = []
                    final = client.attach("old", on_event=replayed.append)
                    assert final.state == "done"
                    assert final.result == {"failures": 7}
                    assert [(e["seq"], e["data"]["state"])
                            for e in replayed] == [
                        (1, "queued"), (2, "running"), (3, "done")]
                    new_id = client.submit("qec_memory", payload).job_id
                    assert client.fetch(new_id)["shots"] == 256
                    assert [row["id"] for row in client.list_jobs()] == [
                        new_id, "old"]
            # The retired columns and every index the old schema made on
            # jobs are gone.
            migrated = sqlite3.connect(db_path)
            try:
                columns = {row[1] for row in migrated.execute(
                    "PRAGMA table_info(jobs)")}
                indexes = [row[1] for row in migrated.execute(
                    "PRAGMA index_list(jobs)") if row[3] == "c"]
            finally:
                migrated.close()
            assert not columns & {"tenant", "priority", "lease_owner",
                                  "lease_expires_at"}
            assert indexes == []
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# runner (deterministic, with stub jobs)
# ---------------------------------------------------------------------------


@pytest.fixture
def stub_runner(monkeypatch):
    """A JobRunner whose jobs block on events — fully deterministic."""
    started = {}
    release = {}

    def fake_prepare(kind, payload):
        name = payload["name"]
        started[name] = threading.Event()
        release[name] = threading.Event()

        def run(ctx):
            started[name].set()
            while not release[name].wait(0.02):
                ctx.checkpoint()
            if payload.get("fail"):
                raise RuntimeError("boom")
            ctx.emit("partial", {"name": name})
            return {"name": name}

        return PreparedJob(kind=kind, key=payload.get("key"), units=1,
                           run=run)

    monkeypatch.setattr(runner_module, "prepare_job", fake_prepare)
    registry = RunRegistry(":memory:")
    runner = JobRunner(Executor(), registry, JobQueue(), workers=2)
    try:
        yield runner, started, release
    finally:
        for event in release.values():
            event.set()
        runner.shutdown(drain=True, timeout=10)


class TestJobRunner:
    def test_inflight_dedup_returns_same_job(self, stub_runner):
        runner, started, release = stub_runner
        job_id, deduped, _ = runner.submit("sweep", {"name": "a",
                                                     "key": "K"})
        assert not deduped
        dup_id, dup_deduped, _ = runner.submit("sweep", {"name": "a2",
                                                         "key": "K"})
        assert dup_deduped and dup_id == job_id
        # A keyless job never coalesces.
        other_id, other_deduped, _ = runner.submit("sweep", {"name": "b"})
        assert not other_deduped and other_id != job_id
        release["a"].set()
        release["b"].set()
        assert runner.wait_result(job_id, timeout=10)["state"] == "done"
        # Once terminal, the key is released: a resubmission is a new job.
        new_id, new_deduped, _ = runner.submit("sweep", {"name": "c",
                                                         "key": "K"})
        assert not new_deduped and new_id != job_id
        release["c"].set()
        runner.wait_result(new_id, timeout=10)

    def test_permuted_observable_is_not_deduped(self, monkeypatch):
        """Energies sum terms in order, so the same terms in another order
        are a different job: each returns its own cold energies."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        permuted = PauliSum(4, reversed(list(hamiltonian.terms())))
        template = FullyConnectedAnsatz(4, 1).build()
        points = np.random.default_rng(0).uniform(-3, 3, size=(
            16, len(template.ordered_parameters()))).tolist()
        with Executor(use_cache=False) as cold:
            cases = [(observable, cold.evaluate_sweep(template, points,
                                                      observable))
                     for observable in (hamiltonian, permuted)]
        assert cases[0][1] != cases[1][1]
        release = threading.Event()

        def blocker_or_job(kind, payload):
            if "block" not in payload:
                return prepare_job(kind, payload)

            def run(ctx):
                while not release.wait(0.02):
                    ctx.checkpoint()
                return {}
            return PreparedJob(kind=kind, key=None, units=1, run=run)

        monkeypatch.setattr(runner_module, "prepare_job", blocker_or_job)
        runner = JobRunner(Executor(), RunRegistry(":memory:"),
                           JobQueue(), workers=1)
        try:
            # The one worker holds the blocker: the sweeps stay in flight.
            runner.submit("sweep", {"block": True})
            jobs = {}
            for observable, energies in cases:
                payload = sweep_payload(template, points, observable)
                job_id, deduped, _ = runner.submit("sweep", payload)
                assert not deduped
                assert runner.submit("sweep", payload)[:2] == (job_id, True)
                jobs[job_id] = energies
            assert len(jobs) == 2
            release.set()
            for job_id, energies in jobs.items():
                entry = runner.wait_result(job_id, timeout=30)
                assert entry["result"]["energies"] == energies
        finally:
            release.set()
            runner.shutdown(drain=True, timeout=10)

    def test_cancel_running_job(self, stub_runner):
        runner, started, release = stub_runner
        job_id, _, _ = runner.submit("sweep", {"name": "a"})
        assert started["a"].wait(timeout=10)
        assert runner.cancel(job_id) in ("running", "cancelled")
        entry = runner.wait_result(job_id, timeout=10)
        assert entry["state"] == "cancelled"

    def test_failed_job_records_error(self, stub_runner):
        runner, started, release = stub_runner
        job_id, _, _ = runner.submit("sweep", {"name": "a", "fail": True})
        release["a"].set()
        entry = runner.wait_result(job_id, timeout=10)
        assert entry["state"] == "failed"
        assert "boom" in entry["error"]

    def test_events_are_persisted_and_fanned_out(self, stub_runner):
        runner, started, release = stub_runner
        job_id, _, _ = runner.submit("sweep", {"name": "a"})
        feed = runner.subscribe(job_id)
        release["a"].set()
        runner.wait_result(job_id, timeout=10)
        kinds = [event["kind"]
                 for event in runner.registry.events_since(job_id)]
        assert kinds == ["state", "state", "partial", "cache", "state"]
        seqs = [event["seq"]
                for event in runner.registry.events_since(job_id)]
        assert seqs == [1, 2, 3, 4, 5]
        runner.unsubscribe(job_id, feed)

    def test_recovers_stale_jobs_from_dead_process(self, monkeypatch):
        """A restarted server requeues queued rows without spending an
        attempt, retries running rows with budget left at once, and
        dead-letters running rows whose budget is gone."""
        ran = []

        def fake_prepare(kind, payload):
            def run(ctx):
                ran.append(payload["name"])
                return {"name": payload["name"]}
            return PreparedJob(kind=kind, key=None, units=1, run=run)

        monkeypatch.setattr(runner_module, "prepare_job", fake_prepare)
        registry = RunRegistry(":memory:")
        # Queued when the old server died: it never ran.
        registry.create_job("q1", "sweep", None, {"name": "q1"},
                            max_attempts=1)
        # Running when the old server died, with budget left: retried.
        registry.create_job("r1", "sweep", None, {"name": "r1"},
                            max_attempts=2)
        assert registry.claim("r1") == 1
        # Running when the old server died, no budget left: dead-lettered.
        registry.create_job("r2", "sweep", None, {"name": "r2"},
                            max_attempts=1)
        assert registry.claim("r2") == 1
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1)
        try:
            assert runner.wait_result("q1", timeout=10)["state"] == "done"
            assert runner.wait_result("r1", timeout=10)["state"] == "done"
            # q1 never ran under the old server, so its recovered run is
            # attempt #1; r1's crashed attempt still counts.
            assert registry.get_job("q1")["attempts"] == 1
            assert registry.get_job("r1")["attempts"] == 2
            entry = registry.get_job("r2")
            assert entry["state"] == "failed"
            assert "orphaned" in entry["error"]
            assert sorted(ran) == ["q1", "r1"]
            # Event logs stayed append-only and replayable: the dead-letter
            # is the r2 log's terminal event.
            kinds = [event["kind"]
                     for event in registry.events_since("r2")]
            assert kinds[-1] == "state"
            assert registry.events_since("r2")[-1]["data"] == {
                "state": "failed", "error": "orphaned"}
            assert registry.events_since("r1")[0]["data"] == {
                "state": "queued", "retry": 1, "cause": "orphaned"}
        finally:
            runner.shutdown(timeout=10)

    def test_recovers_queued_job_older_than_ten_thousand_rows(
            self, monkeypatch):
        """Recovery selects non-terminal rows by state, not from a window
        of the newest rows: a queued row behind 10,000 newer finished ones
        is still re-admitted, with its ``recovered`` event."""
        def fake_prepare(kind, payload):
            return PreparedJob(kind=kind, key=None, units=1,
                               run=lambda ctx: {"name": payload["name"]})

        monkeypatch.setattr(runner_module, "prepare_job", fake_prepare)
        registry = RunRegistry(":memory:")
        registry.create_job("old", "sweep", None, {"name": "old"})
        time.sleep(0.01)  # every later row is strictly newer
        with registry.transaction():
            for index in range(10_000):
                registry.create_job(f"done-{index}", "sweep", None, {})
                registry.transition(f"done-{index}", ("queued",), "done")
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1)
        try:
            assert runner.wait_result("old", timeout=10)["state"] == "done"
            assert registry.events_since("old")[0]["data"] == {
                "state": "queued", "cause": "recovered"}
        finally:
            runner.shutdown(timeout=10)


# ---------------------------------------------------------------------------
# end-to-end over the unix socket
# ---------------------------------------------------------------------------


class TestServiceEndToEnd:
    def test_sweep_results_bitwise_identical_to_in_process(self):
        template, points, observable = sweep_fixture()
        with Executor(use_cache=False) as reference:
            whole = reference.evaluate_sweep(template, points, observable)
            chunked = []
            for start in range(0, len(points), 2):
                chunked.extend(reference.evaluate_sweep(
                    template, points[start:start + 2], observable))
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                # One chunk == the plain whole-batch in-process call.
                _, result = client.submit_and_stream(
                    "sweep", sweep_payload(template, points, observable))
                assert result.result["energies"] == list(whole)
                # chunk=2 == in-process calls of the same chunk shape.
                events = []
                _, result = client.submit_and_stream(
                    "sweep",
                    sweep_payload(template, points, observable, chunk=2),
                    on_event=events.append)
                assert result.result["energies"] == chunked
                partials = [e for e in events if e["kind"] == "partial"]
                assert len(partials) == 3
                assert [p["data"]["done"] for p in partials] == [2, 4, 6]

    def test_request_lines_past_asyncios_default_limit_are_read(self):
        # A 400-point 10-qubit sweep is a ~70 KB line, past asyncio's
        # 64 KiB default: it is submitted and served like a small one.
        template = FullyConnectedAnsatz(10, 1).build()
        rng = np.random.default_rng(3)
        points = rng.uniform(-np.pi, np.pi, (
            400, len(template.ordered_parameters()))).tolist()
        observable = ising_hamiltonian(10, 1.0)
        payload = sweep_payload(template, points, observable)
        assert len(json.dumps(payload)) > 64 * 1024
        with Executor(use_cache=False) as reference:
            expected = reference.evaluate_sweep(template, points, observable)
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                job_id = client.submit("sweep", payload).job_id
                # The job runs in chunks, so equal to the whole-batch call
                # up to rounding.
                np.testing.assert_allclose(
                    client.result(job_id).result["energies"], expected,
                    rtol=0, atol=1e-12)

    def test_oversized_request_line_gets_a_413_then_a_close(self):
        limit = protocol_module.MAX_LINE_BYTES
        line = (b'{"v": 2, "type": "ping", "pad": "' + b"x" * limit
                + b'"}\n')
        with service() as handle:
            with socket.socket(socket.AF_UNIX) as connection:
                connection.settimeout(30)
                connection.connect(handle.socket_path)
                # The server stops reading at the limit; the rest of the
                # line may meet a closed socket.
                with contextlib.suppress(BrokenPipeError,
                                         ConnectionResetError):
                    connection.sendall(line)
                with connection.makefile("rb") as reader:
                    reply = json.loads(reader.readline())
                    assert reader.readline() == b""  # then the close
            assert reply["type"] == "error"
            assert (reply["code"], reply["status"]) == ("too-large", 413)
            assert str(limit) in reply["message"]
            # The server serves on, a line at the limit included.
            at_limit = json.dumps(dict(PING, pad="")).encode()
            at_limit = at_limit[:-2] + b"x" * (limit - len(at_limit)) + \
                b'"}\n'
            assert len(at_limit) == limit + 1
            replies = exchange(handle.socket_path, [PING, at_limit])
            assert replies[0]["type"] == "pong"
            assert replies[1]["type"] == "error"
            assert replies[1]["status"] == 400  # the pad key is refused

    def test_qec_stream_delivers_wilson_partials_before_result(self):
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=1024, seed=11, chunk_blocks=1)
        graph = repetition_code_graph(3, 2, 0.02)
        reference = run_memory_sampling(graph, MWPMDecoder(graph), 1024,
                                        seed=11)
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                events = []
                _, result = client.submit_and_stream(
                    "qec_memory", payload, on_event=events.append)
        partials = [e for e in events if e["kind"] == "partial"]
        assert len(partials) >= 2  # streamed, not just a final dump
        for partial in partials:
            low, high = partial["data"]["wilson"]
            assert 0.0 <= low <= high <= 1.0
        shots_seen = [p["data"]["shots"] for p in partials]
        assert shots_seen == sorted(shots_seen)
        assert shots_seen[-1] == 1024
        # Bitwise identity with the in-process call.
        assert result.result["failures"] == reference.failures
        assert result.result["total_defects"] == reference.total_defects
        assert result.result["logical_error_rate"] == \
            reference.logical_error_rate

    def test_stream_keeps_events_committed_after_its_replay(self):
        """A job that ends between the stream's replay and its state check
        still streams every event: nothing is dropped from the feed."""
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=1024, seed=12, chunk_blocks=1)
        with service(workers=1) as handle:
            server = handle.server
            replay = server.registry.events_since

            def replay_then_finish(job_id, after_seq=0, **options):
                events = replay(job_id, after_seq, **options)
                server.runner.wait_result(job_id, timeout=10)
                return events

            server.registry.events_since = replay_then_finish
            with ServiceClient(handle.socket_path) as client:
                events = []
                _, result = client.submit_and_stream(
                    "qec_memory", payload, on_event=events.append)
        assert result.state == "done"
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1))
        assert [e["data"]["shots"] for e in events
                if e["kind"] == "partial"] == [256, 512, 768, 1024]
        assert events[-1]["data"] == {"state": "done"}

    def test_cross_client_dedup_single_engine_execution(self):
        template, points, observable = sweep_fixture(points=8)
        sweep = sweep_payload(template, points, observable)
        qec = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                 shots=2048, seed=5)
        with service(workers=1) as handle:
            executor = handle.server.executor
            with ServiceClient(handle.socket_path) as alice, \
                    ServiceClient(handle.socket_path) as bob:
                # One worker, occupied by an unkeyed blocker: everything
                # else stays queued, so the duplicate submissions below
                # are deterministically in flight together.
                blocker = alice.submit("qec_memory", BLOCKER).job_id
                wait_for_state(alice, blocker, "running")
                reset_sampling_stats()
                invocations_before = executor.stats.simulator_invocations

                first = alice.submit("sweep", sweep)
                second = bob.submit("sweep", sweep)
                assert not first.deduped
                assert second.deduped
                assert second.job_id == first.job_id

                qec_first = alice.submit("qec_memory", qec)
                qec_second = bob.submit("qec_memory", qec)
                assert qec_second.deduped
                assert qec_second.job_id == qec_first.job_id

                alice_result = alice.fetch(first.job_id)
                bob_result = bob.fetch(second.job_id)
                assert alice_result == bob_result  # same row, same bits
                alice.fetch(qec_first.job_id)
                bob.fetch(qec_second.job_id)

                # Counter verification: one sweep execution (8 points, no
                # cache hits) and one seeded QEC experiment — not two.
                invocations = executor.stats.simulator_invocations - \
                    invocations_before
                assert invocations == len(points)
                # The blocker itself counts as one experiment; the pair of
                # identical seeded submissions adds exactly ONE more (and
                # exactly one job's worth of freshly sampled shots).
                stats = sampling_stats()
                assert stats.experiments == 2
                assert stats.shots_sampled == BLOCKER["shots"] + 2048
                # The registry holds ONE row per deduplicated submission.
                rows = [row for row in alice.list_jobs()
                        if row["job_key"] is not None]
                assert len(rows) == 2
                dedup_events = [
                    event for event in
                    handle.server.registry.events_since(first.job_id)
                    if event["kind"] == "dedup"]
                assert len(dedup_events) == 1

    def test_crashed_client_reattaches_by_job_id(self):
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=4096, seed=13, chunk_blocks=1)
        graph = repetition_code_graph(3, 2, 0.02)
        reference = run_memory_sampling(graph, MWPMDecoder(graph), 4096,
                                        seed=13)
        with service() as handle:
            # Client A submits with streaming, reads two events, then dies
            # without closing the stream properly.
            victim = ServiceClient(handle.socket_path)
            submitted = victim.submit("qec_memory", dict(payload))
            job_id = submitted.job_id
            seen = []
            for event in victim.iter_events(job_id):
                seen.append(event)
                if len(seen) == 2:
                    break
            victim._socket.close()  # simulated crash: no goodbye
            last_seq = seen[-1]["seq"]

            # Client B (a different process in real life) reattaches by
            # job id and replays exactly the missed tail.
            with ServiceClient(handle.socket_path) as rescuer:
                tail = []
                result = rescuer.attach(job_id, after_seq=last_seq,
                                        on_event=tail.append)
                assert result.state == "done"
                assert result.result["failures"] == reference.failures
                assert result.result["total_defects"] == \
                    reference.total_defects
                seqs = [event["seq"] for event in seen + tail]
                assert seqs == list(range(1, seqs[-1] + 1))  # no gaps
                # The full result also survives in the SQLite registry.
                row = rescuer.status(job_id)
                assert row["state"] == "done"
                assert row["result"]["failures"] == reference.failures

    def test_backpressure_rejects_with_429(self):
        with service(workers=1, max_pending=1) as handle:
            with ServiceClient(handle.socket_path) as client:
                blocker = client.submit("qec_memory", BLOCKER).job_id
                wait_for_state(client, blocker, "running")
                client.submit("qec_memory", BLOCKER)  # fills the queue
                with pytest.raises(ServiceError) as caught:
                    client.submit("qec_memory", BLOCKER)
                assert caught.value.status == 429
                assert caught.value.code == "queue-full"

    def test_wrong_field_types_get_400_on_the_same_connection(self):
        """A request field of the wrong JSON type is a ``bad-request`` 400,
        never a dropped connection: the same connection still answers."""
        v = PROTOCOL_VERSION
        sweep = sweep_payload(*sweep_fixture())
        bad = [{"v": v, "type": "status", "job_id": ["x"]},
               {"v": v, "type": "result", "job_id": {"a": 1}},
               {"v": v, "type": "jobs", "limit": "abc"},
               {"v": v, "type": "jobs", "limit": True},
               {"v": v, "type": "attach", "job_id": "x", "after_seq": 1.5},
               {"v": v, "type": "submit", "kind": "sweep", "payload": [],
                "deadline": "soon"},
               # Well-typed but unstorable: SQLite binds neither.
               {"v": v, "type": "jobs", "limit": 2 ** 64},
               {"v": v, "type": "status", "job_id": "\ud800"},
               # Well-typed but out of range: SQLite would store a NaN
               # deadline as NULL (no deadline) and read LIMIT -1 as all.
               {"v": v, "type": "submit", "kind": "sweep", "payload": sweep,
                "deadline": float("nan")},
               {"v": v, "type": "submit", "kind": "sweep", "payload": sweep,
                "deadline": float("inf")},
               {"v": v, "type": "jobs", "limit": -1},
               b"\xff\xfe\n"]
        with service() as handle:
            replies = exchange(handle.socket_path, bad + [PING])
        for reply in replies[:-1]:
            assert (reply["type"], reply["code"], reply["status"]) == (
                "error", "bad-request", 400), reply
        assert replies[-1]["type"] == "pong"

    def test_cancel_queued_job(self):
        with service(workers=1) as handle:
            with ServiceClient(handle.socket_path) as client:
                blocker = client.submit("qec_memory", BLOCKER).job_id
                wait_for_state(client, blocker, "running")
                queued = client.submit("qec_memory", BLOCKER).job_id
                assert client.cancel(queued) == "cancelled"
                with pytest.raises(JobFailedError):
                    client.fetch(queued)

    def test_unknown_job_is_404(self):
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                with pytest.raises(ServiceError) as caught:
                    client.status("nope")
                assert caught.value.status == 404

    def test_malformed_payload_rejected_at_submit(self):
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                with pytest.raises(ServiceError) as caught:
                    client.submit("qec_memory", {"distance": 3})
                assert caught.value.status == 400
                assert client.list_jobs() == []  # nothing persisted

    def test_malformed_retry_policy_rejected_at_submit(self):
        # Pooled shards carry no retry budget: a policy naming one is a
        # malformed policy whose error names the unknown key.
        template, points, observable = sweep_fixture()
        payload = sweep_payload(
            template, points, observable,
            policy={"retry": {"max_retries": 3, "timeout": 1.0}})
        with pytest.raises(ProtocolError, match="malformed policy"):
            prepare_job("sweep", payload)
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                with pytest.raises(ServiceError) as caught:
                    client.submit("sweep", payload)
                assert caught.value.status == 400
                assert "malformed policy" in str(caught.value)
                assert "'retry'" in str(caught.value)
                assert client.list_jobs() == []  # nothing persisted
                # The removed fan-out modes get the same 400, and the
                # connection keeps serving.
                for mode in ("auto", "thread"):
                    bad = sweep_payload(template, points, observable,
                                        policy={"parallel": mode})
                    with pytest.raises(ServiceError) as caught:
                        client.submit("sweep", bad)
                    assert caught.value.status == 400
                    assert "malformed policy" in str(caught.value)
                    assert "'none', 'process'" in str(caught.value)
                    assert client.list_jobs() == []

    def test_oversized_max_workers_rejected_at_submit(self):
        # max_workers sizes the server's fork pool, which starts all its
        # workers at the first submit: a client may not ask for more than
        # the server's CPUs.  A one-point sweep plans inline, so even an
        # accepted submission would start no pool.
        from repro.execution.sharding import usable_cpus
        template, points, observable = sweep_fixture(points=1)
        payload = sweep_payload(
            template, points, observable,
            policy={"parallel": "process", "max_workers": usable_cpus() + 1})
        with pytest.raises(ProtocolError, match="malformed policy"):
            prepare_job("sweep", payload)
        with service() as handle:
            with ServiceClient(handle.socket_path) as client:
                with pytest.raises(ServiceError) as caught:
                    client.submit("sweep", payload)
                assert caught.value.status == 400
                assert "max_workers" in str(caught.value)
                assert client.list_jobs() == []  # nothing persisted

    def test_registry_survives_server_restart(self):
        tmp = tempfile.mkdtemp(dir="/tmp", prefix="rsvc")
        socket_path = os.path.join(tmp, "s.sock")
        db_path = os.path.join(tmp, "registry.db")
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=512, seed=3, chunk_blocks=1)
        try:
            handle = start_in_thread(ServiceConfig(
                socket_path=socket_path, db_path=db_path, workers=1))
            with ServiceClient(socket_path) as client:
                job_id = client.submit("qec_memory", payload).job_id
                first = client.fetch(job_id)
            handle.stop()
            # A brand-new server process over the same registry file still
            # serves the finished job's events and result.
            handle = start_in_thread(ServiceConfig(
                socket_path=socket_path, db_path=db_path, workers=1))
            with ServiceClient(socket_path) as client:
                replayed = []
                result = client.attach(job_id, on_event=replayed.append)
                assert result.state == "done"
                assert result.result == first
                assert any(e["kind"] == "partial" for e in replayed)
            handle.stop()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_second_server_on_a_live_socket_is_refused(self):
        """A server started on a live server's socket path is refused; the
        first keeps answering on it, also to new clients."""
        with service(db_path=":memory:") as first:
            with pytest.raises(OSError, match="already listening"):
                start_in_thread(ServiceConfig(
                    socket_path=first.socket_path, db_path=":memory:"))
            with ServiceClient(first.socket_path) as client:
                assert client.ping().server == "repro.service"
                assert client.stats()["jobs"] == {}

    def test_second_server_on_a_held_registry_is_refused(self):
        """A server on a registry file another live server owns is refused
        at construction, before it binds its socket; the owner keeps
        serving and a plain reader of the file keeps working."""
        with service() as first:
            db_path = first.server.config.db_path
            second_socket = first.socket_path + "2"
            with ServiceClient(first.socket_path) as client:
                job_id = client.submit(
                    "qec_memory", qec_memory_payload(
                        distance=3, rounds=2, error_rate=0.02, shots=64,
                        seed=2)).job_id
                with pytest.raises(RegistryError, match=db_path):
                    start_in_thread(ServiceConfig(socket_path=second_socket,
                                                  db_path=db_path))
                assert not os.path.exists(second_socket)
                assert client.result(job_id, wait=True).state == "done"
            reader = RunRegistry(db_path)
            try:
                assert reader.get_job(job_id, ("state",)) == {
                    "state": "done"}
            finally:
                reader.close()

    def test_resubmitted_job_is_served_by_the_shared_cache(self):
        template, points, observable = sweep_fixture()
        payload = sweep_payload(template, points, observable)
        with service(workers=1) as handle:
            with ServiceClient(handle.socket_path) as client:
                first_id = client.submit("sweep", payload).job_id
                client.fetch(first_id)
                # Sequential resubmission: not in flight, so not
                # deduped — served by the shared cache instead.
                second_id = client.submit("sweep", payload).job_id
                assert second_id != first_id
                client.fetch(second_id)
                first = client.status(first_id)
                second = client.status(second_id)
                assert first["cache_misses"] > 0
                assert second["cache_hits"] > 0
                assert second["cache_misses"] < first["cache_misses"]
                # The per-job accounting also lands in the event log.
                cache_events = [
                    e for e in handle.server.registry.events_since(second_id)
                    if e["kind"] == "cache"]
                assert cache_events and \
                    cache_events[0]["data"]["hits"] == second["cache_hits"]

    def test_graceful_shutdown_drains_running_jobs(self):
        with service(workers=1) as handle:
            client = ServiceClient(handle.socket_path)
            running = client.submit("qec_memory", BLOCKER).job_id
            wait_for_state(client, running, "running")
            queued = client.submit("qec_memory", BLOCKER).job_id
            assert client.shutdown_server(drain=True) == "shutting down"
            client.close()
            handle.thread.join(timeout=60)
            assert not handle.thread.is_alive()
            # The running job finished; the queued one was cancelled.
            registry = RunRegistry(handle.server.config.db_path)
            try:
                assert registry.get_job(running)["state"] == "done"
                assert registry.get_job(queued)["state"] == "cancelled"
            finally:
                registry.close()


# ---------------------------------------------------------------------------
# foundations that ride along in this PR
# ---------------------------------------------------------------------------


class TestExecutorShutdown:
    def test_engine_usable_after_shutdown(self):
        template, points, observable = sweep_fixture(points=2)
        executor = Executor()
        executor.evaluate_sweep(template, points, observable)
        executor.shutdown()
        # The process pool is recreated lazily: later work still runs.
        again = Executor()
        values = again.evaluate_sweep(template, points, observable)
        assert len(values) == 2


class TestStreamMemorySampling:
    def test_stream_is_bitwise_identical_to_batch(self):
        graph = repetition_code_graph(3, 4, 0.03)
        decoder = MWPMDecoder(graph)
        # Distinct executors: neither call may see the other's cache.
        reference = run_memory_sampling(graph, decoder, 2048, seed=21,
                                        executor=Executor())
        partials = list(stream_memory_sampling(graph, decoder, 2048,
                                               seed=21, chunk_blocks=2,
                                               executor=Executor()))
        assert len(partials) >= 2
        final = partials[-1]
        assert final.shots == reference.shots
        assert final.failures == reference.failures
        assert final.total_defects == reference.total_defects

    def test_warm_cache_yields_single_cached_partial(self):
        graph = repetition_code_graph(3, 2, 0.02)
        decoder = MWPMDecoder(graph)
        executor = Executor()
        run_memory_sampling(graph, decoder, 512, seed=8, executor=executor)
        partials = list(stream_memory_sampling(graph, decoder, 512, seed=8,
                                               executor=executor))
        assert len(partials) == 1
        assert partials[0].from_cache is True


# ---------------------------------------------------------------------------
# one registry transaction per lifecycle step
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def counting_commits(registry):
    """Count the COMMIT statements the registry's connection runs."""
    commits = []

    def trace(statement):
        if statement.strip().upper() == "COMMIT":
            commits.append(statement)

    registry._connection.set_trace_callback(trace)
    try:
        yield commits
    finally:
        registry._connection.set_trace_callback(None)


def stub_or_job(gates):
    """A ``prepare_job`` that runs real payloads and, for ``{"stub": ...}``
    payloads, a job that holds until its gate opens (``hold``), holds until
    cancelled (``cancel``), fails its first attempt (``flaky``) or sleeps
    (``sleep``)."""
    attempts = {}

    def prepare(kind, payload):
        if "stub" not in payload:
            return prepare_job(kind, payload)
        mode, name = payload["stub"], payload["name"]

        def run(ctx):
            attempts[name] = attempts.get(name, 0) + 1
            if mode == "hold":
                while not gates[name].wait(0.01):
                    ctx.checkpoint()
            elif mode == "cancel":
                gates[name].set()
                while True:
                    ctx.checkpoint()
                    time.sleep(0.01)
            elif mode == "flaky" and attempts[name] == 1:
                raise RuntimeError("transient")
            elif mode == "sleep":
                time.sleep(0.3)
            ctx.emit("partial", {"name": name})
            return {"name": name}
        return PreparedJob(kind=kind, key=None, units=1, run=run)
    return prepare


class FailingCommits:
    """A registry connection whose next ``failures`` COMMITs raise, the way
    a full or failing disk makes SQLite's COMMIT raise."""

    def __init__(self, connection):
        self._connection = connection
        self.failures = 0
        self.failed = 0

    def execute(self, statement, *args):
        if statement == "COMMIT" and self.failures:
            self.failures -= 1
            self.failed += 1
            raise sqlite3.OperationalError("disk I/O error")
        return self._connection.execute(statement, *args)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def signal_then_sleep(started):
    """A forked child's target: report that it runs, then idle."""
    started.set()
    time.sleep(60)


def committed_rows(path, query, args=()):
    """Rows a second connection to the registry file reads."""
    observer = sqlite3.connect(path)
    try:
        return observer.execute(query, args).fetchall()
    finally:
        observer.close()


class TestRegistryTransactions:
    def test_job_steps_commit_once_each(self, tmp_path):
        """Submit, claim, each partial and success are one commit each: a
        one-chunk sweep commits 4 times, a 2-partial QEC job 5 times."""
        template, points, observable = sweep_fixture(points=8)
        registry = RunRegistry(str(tmp_path / "registry.db"))
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1)
        try:
            jobs = [(sweep_payload(template, points, observable), 1, 4),
                    (qec_memory_payload(distance=3, rounds=2,
                                        error_rate=0.02, shots=1024,
                                        seed=7, chunk_blocks=2), 2, 5)]
            kind_of = ("sweep", "qec_memory")
            for (payload, partials, budget), kind in zip(jobs, kind_of):
                with counting_commits(registry) as commits:
                    job_id, _, _ = runner.submit(kind, payload)
                    entry = runner.wait_result(job_id, timeout=30)
                assert entry["state"] == "done"
                kinds = [event["kind"]
                         for event in registry.events_since(job_id)]
                assert kinds.count("partial") == partials
                assert len(commits) <= budget, (kind, len(commits))
        finally:
            runner.shutdown(timeout=10)
            registry.close()

    def test_subscribers_see_only_committed_events(self, monkeypatch,
                                                   tmp_path):
        """Every event a live subscriber receives is already readable from a
        second connection; seqs run from 1 with no gap, kinds and states
        keep their order, and a replay after reopening equals the stream."""
        import queue
        import types

        path = str(tmp_path / "registry.db")
        observer = sqlite3.connect(path, check_same_thread=False)
        observer_lock = threading.Lock()
        uncommitted = []

        class CommittedFeed(queue.SimpleQueue):
            def put(self, item, *args, **kwargs):
                if item is not None:
                    with observer_lock:
                        row = observer.execute(
                            "SELECT kind FROM events WHERE job_id = ? AND "
                            "seq = ?", (item["job_id"], item["seq"])
                        ).fetchone()
                    if row is None or row[0] != item["kind"]:
                        uncommitted.append(item)
                super().put(item, *args, **kwargs)

        monkeypatch.setattr(runner_module, "queue_module",
                            types.SimpleNamespace(SimpleQueue=CommittedFeed))
        gates = {}
        monkeypatch.setattr(runner_module, "prepare_job", stub_or_job(gates))
        template, points, observable = sweep_fixture(points=8)
        registry = RunRegistry(path)
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1,
                           retry_backoff=0.01)
        cases = {
            "sweep": (("sweep", sweep_payload(template, points, observable),
                       {}),
                      ["queued", "running", "partial", "cache", "done"]),
            "qec": (("qec_memory",
                     qec_memory_payload(distance=3, rounds=2,
                                        error_rate=0.02, shots=1024, seed=7,
                                        chunk_blocks=2), {}),
                    ["queued", "running", "partial", "partial", "cache",
                     "done"]),
            "cancel": (("sweep", {"stub": "cancel", "name": "cancel"}, {}),
                       ["queued", "running", "cancelled"]),
            "flaky": (("sweep", {"stub": "flaky", "name": "flaky"},
                       {"max_attempts": 2}),
                      ["queued", "running", "queued", "running", "partial",
                       "cache", "done"]),
        }
        try:
            for name, ((kind, payload, options), expected) in cases.items():
                gates["hold"] = threading.Event()
                gates[name] = threading.Event()
                # The one worker holds a blocker, so the job under test is
                # still queued when the subscriber arrives.
                blocker, _, _ = runner.submit(
                    "sweep", {"stub": "hold", "name": "hold"})
                job_id, _, _ = runner.submit(kind, payload, **options)
                feed = runner.subscribe(job_id)
                replayed = registry.events_since(job_id)
                gates["hold"].set()
                if name == "cancel":
                    assert gates["cancel"].wait(10)
                    runner.cancel(job_id)
                live = []
                while True:
                    event = feed.get(timeout=30)
                    if event is runner_module.STREAM_END:
                        break
                    live.append(event)
                runner.unsubscribe(job_id, feed)
                assert runner.wait_result(blocker, timeout=10)["state"] == \
                    "done"
                stream = replayed + live
                assert [event["seq"] for event in stream] == \
                    list(range(1, len(stream) + 1)), name
                labels = [event["data"]["state"] if event["kind"] == "state"
                          else event["kind"] for event in stream]
                assert labels == expected, name
                reopened = RunRegistry(path)
                try:
                    assert reopened.events_since(job_id) == \
                        json.loads(json.dumps(stream)), name
                finally:
                    reopened.close()
            assert uncommitted == []
        finally:
            for gate in gates.values():
                gate.set()
            runner.shutdown(timeout=10)
            registry.close()
            observer.close()

    def test_a_second_owner_is_refused_until_the_first_shuts_down(
            self, monkeypatch, tmp_path):
        """One runner owns a registry file: a second is refused at
        construction, naming the path, while readers keep working; once
        the first shuts down a new runner takes the file."""
        monkeypatch.setattr(runner_module, "prepare_job", stub_or_job({}))
        path = str(tmp_path / "registry.db")
        registry_a, registry_b = RunRegistry(path), RunRegistry(path)
        runner_a = JobRunner(Executor(), registry_a, JobQueue(), workers=1)
        try:
            job_id, _, _ = runner_a.submit("sweep",
                                           {"stub": "sleep", "name": "a"})
            with pytest.raises(RegistryError, match=path):
                JobRunner(Executor(), registry_b, JobQueue(), workers=1)
            entry = runner_a.wait_result(job_id, timeout=10)
            assert entry["result"] == {"name": "a"}
            assert registry_b.get_job(job_id, ("state",)) == {
                "state": "done"}
        finally:
            runner_a.shutdown(timeout=10)
            registry_a.close()
        runner_b = JobRunner(Executor(), registry_b, JobQueue(), workers=1)
        try:
            job_id, _, _ = runner_b.submit("sweep",
                                           {"stub": "quick", "name": "b"})
            assert runner_b.wait_result(job_id, timeout=10)["result"] == {
                "name": "b"}
        finally:
            runner_b.shutdown(timeout=10)
            registry_b.close()

    def test_a_forked_child_does_not_keep_the_owner_lock(self, tmp_path):
        """A process forked while a runner owns the file (a fork-pool
        worker) does not hold the lock: once the runner shuts down, a new
        runner takes the file although the child still lives."""
        import multiprocessing

        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1)
        context = multiprocessing.get_context("fork")
        started = context.Event()
        child = context.Process(target=signal_then_sleep, args=(started,),
                                daemon=True)
        child.start()
        try:
            # The child runs its at-fork hooks before its target.
            assert started.wait(10)
            runner.shutdown(timeout=10)
            successor = JobRunner(Executor(), registry, JobQueue(),
                                  workers=1)
            assert child.is_alive()
            successor.shutdown(timeout=10)
        finally:
            child.kill()
            child.join(timeout=10)
            registry.close()

    def test_concurrent_steps_keep_seqs_and_states(self, monkeypatch,
                                                   tmp_path):
        """More workers than cores and a short switch interval: every job
        ends done with its events numbered 1..n in lifecycle order."""
        def prepare(kind, payload):
            def run(ctx):
                for index in range(3):
                    ctx.emit("partial", {"index": index})
                return {"name": payload["name"]}
            return PreparedJob(kind=kind, key=None, units=1, run=run)

        monkeypatch.setattr(runner_module, "prepare_job", prepare)
        registry = RunRegistry(str(tmp_path / "registry.db"))
        runner = JobRunner(Executor(), registry,
                           JobQueue(), workers=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jobs = [runner.submit("sweep", {"name": str(n)})[0]
                    for n in range(60)]
            for job_id in jobs:
                assert runner.wait_result(job_id, timeout=60)["state"] == \
                    "done"
        finally:
            sys.setswitchinterval(interval)
            runner.shutdown(timeout=10)
        for job_id in jobs:
            events = registry.events_since(job_id)
            assert [event["seq"] for event in events] == list(range(1, 8))
            assert [event["data"].get("state", event["kind"])
                    for event in events] == [
                "queued", "running", "partial", "partial", "partial",
                "cache", "done"]
        assert registry.counts() == {"done": 60}
        registry.close()

    def test_steps_queued_on_the_lock_share_one_commit(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "registry.db"))
        registry.create_job("j", "sweep", None, {})
        steps, errors = 6, []

        def step(n):
            try:
                with registry.transaction():
                    registry.append_event("j", "partial", {"n": n})
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=step, args=(n,))
                   for n in range(steps)]
        with counting_commits(registry) as commits:
            with registry._lock:
                for thread in threads:
                    thread.start()
                wait_until(lambda: registry._arrived - registry._left ==
                           steps)
            for thread in threads:
                thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 1 <= len(commits) <= 2
        events = registry.events_since("j")
        assert [event["seq"] for event in events] == list(
            range(1, steps + 1))
        assert sorted(event["data"]["n"] for event in events) == list(
            range(steps))
        registry.close()

    def test_a_raising_step_rolls_back_only_its_own_writes(self, tmp_path):
        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        registry.create_job("j", "sweep", None, {})
        published = []
        # Holding the commit lock keeps all three steps in one batch.
        with registry._commit_lock:
            with registry.transaction(
                    wait=False, on_commit=lambda: published.append("a")
            ) as batch:
                registry.append_event("j", "partial", {"n": "a"})
            with pytest.raises(RuntimeError, match="step fails"):
                with registry.transaction(
                        wait=False, on_commit=lambda: published.append("b")):
                    registry.append_event("j", "partial", {"n": "b"})
                    raise RuntimeError("step fails")
            with registry.transaction(
                    wait=False, on_commit=lambda: published.append("c")
            ) as mate:
                registry.append_event("j", "partial", {"n": "c"})
            assert mate is batch and batch.steps == 2
        registry.await_commit(batch)
        assert published == ["a", "c"]
        rows = committed_rows(path, "SELECT seq, data FROM events WHERE "
                                    "job_id = 'j' ORDER BY seq")
        assert [(seq, json.loads(data)["n"]) for seq, data in rows] == [
            (1, "a"), (2, "c")]
        registry.close()

    def test_failed_commit_raises_in_every_waiter_and_publishes_nothing(
            self, tmp_path):
        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        registry.create_job("j", "sweep", None, {})
        connection = FailingCommits(registry._connection)
        registry._connection = connection
        steps, published, raised = 4, [], []
        left = registry._left

        def step(n):
            try:
                with registry.transaction(
                        on_commit=lambda: published.append(n)):
                    registry.append_event("j", "partial", {"n": n})
            except CommitError:
                raised.append(n)

        threads = [threading.Thread(target=step, args=(n,))
                   for n in range(steps)]
        with registry._commit_lock:
            for thread in threads:
                thread.start()
            # Every step has written into the open batch; none committed.
            wait_until(lambda: registry._left - left == steps)
            connection.failures = 1
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(raised) == list(range(steps))
        assert published == []
        assert connection.failed == 1
        assert committed_rows(path, "SELECT * FROM events") == []
        assert registry.events_since("j") == []
        # The registry keeps working after the failed batch.
        assert registry.append_event("j", "partial", {"n": "next"}) == 1
        assert committed_rows(path, "SELECT seq FROM events") == [(1,)]
        registry.close()

    def test_runner_fails_the_attempt_whose_steps_were_lost(
            self, monkeypatch, tmp_path):
        """A lost submission raises in the submitter and leaves no row; a
        running job whose partial or end failed to commit ends failed with
        none of the lost events published; the next job completes."""
        gates = {"held": threading.Event()}
        monkeypatch.setattr(runner_module, "prepare_job", stub_or_job(gates))
        registry = RunRegistry(str(tmp_path / "registry.db"))
        connection = FailingCommits(registry._connection)
        registry._connection = connection
        runner = JobRunner(Executor(), registry, JobQueue(), workers=1)
        try:
            connection.failures = 1
            with pytest.raises(CommitError):
                runner.submit("sweep", {"stub": "quick", "name": "lost"})
            assert registry.list_jobs() == []

            job_id, _, _ = runner.submit("sweep",
                                         {"stub": "hold", "name": "held"})
            feed = runner.subscribe(job_id)
            wait_until(lambda: runner.job(job_id, ("state",))["state"] ==
                       "running")
            connection.failures = 1
            gates["held"].set()
            entry = runner.wait_result(job_id, timeout=10)
            assert entry["state"] == "failed"
            assert "commit failed" in entry["error"]
            assert connection.failed == 2
            events = registry.events_since(job_id)
            assert [event["seq"] for event in events] == [1, 2, 3]
            assert [event["data"]["state"] for event in events] == [
                "queued", "running", "failed"]
            live = []
            while True:
                event = feed.get(timeout=10)
                if event is runner_module.STREAM_END:
                    break
                live.append(event)
            runner.unsubscribe(job_id, feed)
            assert live == events[-len(live):]
            assert live[-1]["data"]["state"] == "failed"

            next_id, _, _ = runner.submit("sweep",
                                          {"stub": "quick", "name": "next"})
            assert runner.wait_result(next_id, timeout=10)["state"] == "done"
        finally:
            gates["held"].set()
            runner.shutdown(timeout=10)
            registry.close()

    def test_reads_return_only_committed_rows(self, tmp_path):
        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        # No committer thread: a non-waiting step stays pending until
        # something commits it.
        registry._commit_loop = lambda: None
        with registry.transaction(wait=False):
            registry.create_job("j", "sweep", None, {"x": 1})
            registry.append_event("j", "state", {"state": "queued"})
            # Inside a step a read sees the step's own writes.
            assert registry.get_job("j", ("state",)) == {"state": "queued"}
        assert committed_rows(path, "SELECT id FROM jobs") == []
        entry = registry.get_job("j", ("id", "state"))
        assert committed_rows(path, "SELECT id, state FROM jobs") == [
            (entry["id"], entry["state"])]
        with registry.transaction(wait=False):
            registry.append_event("j", "partial", {"n": 0})
        assert len(committed_rows(path, "SELECT seq FROM events")) == 1
        events = registry.events_since("j")
        assert [(event["seq"], event["kind"]) for event in events] == \
            committed_rows(path, "SELECT seq, kind FROM events ORDER BY seq")
        registry.close()

    def test_close_persists_pending_steps_and_stops_the_committer(
            self, tmp_path):
        path = str(tmp_path / "registry.db")
        registry = RunRegistry(path)
        for n in range(3):
            with registry.transaction(wait=False):
                registry.create_job(f"j{n}", "sweep", None, {})
        committer = registry._committer
        assert committer is not None
        registry.close()
        assert not committer.is_alive()
        pending = RunRegistry(path)
        pending._commit_loop = lambda: None
        with pending.transaction(wait=False):
            pending.append_event("j0", "partial", {"n": 0})
        assert committed_rows(path, "SELECT seq FROM events") == []
        pending.close()
        reopened = RunRegistry(path)
        assert [row["id"] for row in reopened.list_jobs()] == [
            "j2", "j1", "j0"]
        assert [event["seq"] for event in reopened.events_since("j0")] == [1]
        reopened.close()

    def test_failed_submit_commit_is_answered_on_both_transports(self):
        """A submit whose COMMIT fails gets a ``commit-failed`` 503 error
        line, and the connection keeps serving."""
        payload = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                     shots=64, seed=1, chunk_blocks=1)
        with service() as handle:
            registry = handle.server.registry
            connection = FailingCommits(registry._connection)
            registry._connection = connection
            with ServiceClient(handle.socket_path, timeout=30) as client:
                connection.failures = 1
                with pytest.raises(ServiceError) as caught:
                    client.submit("qec_memory", payload)
                assert caught.value.code == "commit-failed"
                assert caught.value.status == 503
                assert client.ping().server == "repro.service"
                assert client.list_jobs() == []
            assert connection.failed == 1


class TestServiceClient:
    def test_failed_connect_closes_the_socket(self, tmp_path):
        missing = str(tmp_path / "missing.sock")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FileNotFoundError):
                ServiceClient(missing)
            gc.collect()
        assert [warning for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []


def serve_in_subprocess(socket_path, db_path, env, *extra):
    """``python -m repro.service serve`` on ``socket_path``, once it
    accepts connections."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--socket",
         socket_path, "--db", db_path, *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while True:
        assert server.poll() is None, "server exited"
        with socket.socket(socket.AF_UNIX) as probe:
            try:
                probe.connect(socket_path)
                return server
            except OSError:
                pass
        assert time.monotonic() < deadline, "server never up"
        time.sleep(0.05)


def live_children(pid):
    """Pids of the running (not zombie) children of ``pid``, from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                state, parent = stat.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(parent) == pid and state != "Z":
            children.append(int(entry))
    return children


class TestServerKill:
    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_sigterm_to_a_pool_worker_leaves_the_server_serving(self):
        """A forked pool worker must not share the server's signal set-up:
        SIGTERM ends that worker, the server keeps answering, and its next
        pooled job runs on a respawned pool."""
        import repro
        from repro.execution.sharding import usable_cpus
        if usable_cpus() < 2:
            pytest.skip("a two-worker policy needs two usable CPUs")

        tmp = tempfile.mkdtemp(dir="/tmp", prefix="rsvc")
        socket_path = os.path.join(tmp, "s.sock")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__))))
        template, points, observable = sweep_fixture(points=8)
        policy = {"parallel": "process", "max_workers": 2}
        server = serve_in_subprocess(socket_path, os.path.join(tmp, "db"),
                                     env)
        try:
            with ServiceClient(socket_path, timeout=60) as client:
                client.fetch(client.submit("sweep", sweep_payload(
                    template, points, observable, policy=policy)).job_id)
                workers = live_children(server.pid)
                assert len(workers) == 2
                os.kill(workers[0], signal.SIGTERM)
                deadline = time.monotonic() + 5.0
                while workers[0] in live_children(server.pid) \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert workers[0] not in live_children(server.pid)
                time.sleep(0.5)  # a stopping server would be gone by now
                assert server.poll() is None
                assert client.ping().server == "repro.service"
                shifted = [[value + 1.0 for value in point]
                           for point in points]
                result = client.fetch(client.submit("sweep", sweep_payload(
                    template, shifted, observable, policy=policy)).job_id)
                assert len(result["energies"]) == len(points)
        finally:
            server.kill()
            server.wait()
            shutil.rmtree(tmp, ignore_errors=True)

    def test_sigkilled_server_loses_no_event_a_client_saw(self, tmp_path):
        """SIGKILL the server after a streaming client saw ``running`` and
        one of four partials; a server restarted on the same registry file
        re-runs the job at once, replays every event that client saw, with
        seqs contiguous from 1, and finishes the job with the result of an
        unfaulted run."""
        import repro

        tmp = tempfile.mkdtemp(dir="/tmp", prefix="rsvc")
        socket_path = os.path.join(tmp, "s.sock")
        db_path = str(tmp_path / "registry.db")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(
                       os.path.abspath(repro.__file__))),
                   # The dead server's attempt leaves one for the
                   # restarted server, which re-runs the job at once.
                   REPRO_SERVICE_MAX_ATTEMPTS="2")

        def serve():
            return serve_in_subprocess(socket_path, db_path, env,
                                       "--workers", "1")

        # Four partials of about 0.4 s each: the kill lands mid-job.
        payload = qec_memory_payload(distance=5, rounds=5, error_rate=0.05,
                                     shots=16384, seed=3, chunk_blocks=16)
        server = serve()
        try:
            victim = ServiceClient(socket_path, timeout=60)
            job_id = victim.submit("qec_memory", payload).job_id
            seen = []
            for event in victim.iter_events(job_id):
                seen.append(event)
                if event["kind"] == "partial":
                    break
            server.kill()
            server.wait()
            victim.close()
            assert {"state": "running"} in [e["data"] for e in seen]

            server = serve()
            replay = []
            with ServiceClient(socket_path, timeout=60) as rescuer:
                final = rescuer.attach(job_id, on_event=replay.append)
            triples = [(e["seq"], e["kind"], e["data"]) for e in replay]
            for event in seen:
                assert (event["seq"], event["kind"], event["data"]) in triples
            seqs = [event["seq"] for event in replay]
            assert seqs == list(range(1, len(seqs) + 1))
            assert final.state == "done"
            assert replay[-1]["kind"] == "state"
            assert replay[-1]["data"]["state"] == "done"
            assert {"state": "queued", "retry": 1, "cause": "orphaned"} in \
                [event["data"] for event in replay]
            with service(db_path=":memory:") as clean:
                with ServiceClient(clean.socket_path, timeout=60) as client:
                    assert client.fetch(client.submit(
                        "qec_memory", payload).job_id) == final.result
        finally:
            server.kill()
            server.wait()
            shutil.rmtree(tmp, ignore_errors=True)


class TestPerJobCacheCounts:
    def test_concurrent_sweeps_count_only_their_own_lookups(self):
        """20 concurrent 8-point sweeps on 2 workers: each job's row counts
        its own 8 point lookups, 160 in all, however the jobs overlap."""
        hamiltonian = ising_hamiltonian(6, 1.0)
        template = FullyConnectedAnsatz(6, 1).build()
        rng = np.random.default_rng(23)
        payloads = [sweep_payload(
            template, rng.uniform(-3, 3, size=(
                8, len(template.ordered_parameters()))).tolist(),
            hamiltonian, backend="statevector") for _ in range(20)]
        executor = Executor()
        registry = RunRegistry(":memory:")
        runner = JobRunner(executor, registry, JobQueue(), workers=2)
        try:
            jobs = [runner.submit("sweep", payload)[0]
                    for payload in payloads]
            for job_id in jobs:
                assert runner.wait_result(job_id, timeout=60)["state"] == \
                    "done"
            rows = [registry.get_job(job_id) for job_id in jobs]
            counts = [row["cache_hits"] + row["cache_misses"]
                      for row in rows]
            assert counts == [8] * 20
            assert sum(counts) == executor.cache_stats.lookups == 160
            for job_id, row in zip(jobs, rows):
                cache = [event["data"] for event in
                         registry.events_since(job_id)
                         if event["kind"] == "cache"]
                assert cache == [{"hits": row["cache_hits"],
                                  "misses": row["cache_misses"]}]
        finally:
            runner.shutdown(timeout=10)


def reversed_keys(value):
    """``value`` with every dict's keys in reverse order."""
    if isinstance(value, dict):
        return {key: reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [reversed_keys(item) for item in value]
    return value


def run_prepared(prepared):
    """A prepared job's result, run on a fresh executor."""
    context = JobContext(executor=Executor(), emit=lambda kind, data: None,
                         cancelled=threading.Event())
    return prepared.run(context)


class TestDecodeMemo:
    """Shared payload entries are decoded once per server; keys, values
    and validation are those of a fresh decode."""

    @pytest.mark.parametrize("kind", ["expectation", "sweep", "qec_memory",
                                      "qec_rare_event"])
    def test_memoized_prepare_matches_a_fresh_decode(self, kind):
        payload = builder_payloads()[kind]
        clear_decode_memo()
        fresh = prepare_job(kind, payload)
        assert decode_memo_stats()["hits"] == 0
        memoized = prepare_job(kind, reversed_keys(payload))
        assert decode_memo_stats()["hits"] > 0
        assert decode_memo_stats()["misses"] == \
            decode_memo_stats()["hits"]
        assert memoized.key == fresh.key
        if kind in ("expectation", "sweep"):
            assert run_prepared(memoized) == run_prepared(fresh)

    def test_perfbench_sweeps_share_template_and_key_as_fresh(self):
        workloads = perfbench_workloads()
        payloads = [workloads.sweep_job(index) for index in (0, 16, 5)]
        clear_decode_memo()
        keys = [prepare_job("sweep", payload).key for payload in payloads]
        stats = decode_memo_stats()
        # One template for all three and two observables (entries 0 and 16
        # share a coupling): three decodes, three hits.
        assert stats == {"hits": 3, "misses": 3}
        for key, payload in zip(keys, payloads):
            clear_decode_memo()
            assert prepare_job("sweep", payload).key == key

    def test_concurrent_prepares_agree_and_count_every_lookup(self):
        workloads = perfbench_workloads()
        payloads = [workloads.sweep_job(index) for index in range(3)]
        clear_decode_memo()
        fresh = [prepare_job("sweep", payload).key for payload in payloads]
        clear_decode_memo()
        threads, rounds = 8, 10
        keys = [[] for _ in range(threads)]

        def prepare_all(out):
            for _ in range(rounds):
                out.extend(prepare_job("sweep", payload).key
                           for payload in payloads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=prepare_all, args=(out,))
                       for out in keys]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert keys == [fresh * rounds] * threads
        stats = decode_memo_stats()
        # A template and an observable per sweep, none lost.
        assert stats["hits"] + stats["misses"] == threads * rounds * 3 * 2

    def test_malformed_payload_sharing_a_memoized_template_gets_its_400(
            self):
        template, points, observable = sweep_fixture()
        good = sweep_payload(template, points, observable)
        bad = dict(good, parameter_sets=[[0.1, 0.2]])
        clear_decode_memo()
        with service(workers=1) as handle:
            with ServiceClient(handle.socket_path) as client:
                client.fetch(client.submit("sweep", good).job_id)
                with pytest.raises(ServiceError,
                                   match="1 free parameters") as caught:
                    client.submit("sweep", bad)
                assert caught.value.status == 400
                # The bad sweep reads the memoized template, then fails
                # the per-job parameter count before its observable.
                assert client.stats()["decode_memo"] == {"hits": 1,
                                                         "misses": 2}
                assert len(client.list_jobs()) == 1

    def test_concurrent_qec_jobs_share_the_graph_not_the_decoder(
            self, monkeypatch):
        built = []

        def recording_lookup(graph):
            decoder = LookupDecoder(graph)
            built.append(decoder)
            return decoder

        monkeypatch.setitem(jobs_module._DECODER_BUILDERS, "lookup",
                            recording_lookup)
        spec = dict(distance=3, rounds=3, error_rate=0.04, decoder="lookup",
                    shots=4096, chunk_blocks=1)
        seeds = (11, 12)
        clear_decode_memo()
        runner = JobRunner(Executor(), RunRegistry(":memory:"), JobQueue(),
                           workers=2)
        try:
            jobs = [runner.submit("qec_memory",
                                  qec_memory_payload(**spec, seed=seed))[0]
                    for seed in seeds]
            results = [runner.wait_result(job_id, timeout=60)
                       for job_id in jobs]
        finally:
            runner.shutdown(timeout=10)
        assert decode_memo_stats() == {"hits": 1, "misses": 1}
        concurrent = built[:]
        assert concurrent[0] is not concurrent[1]
        assert concurrent[0].decoding_graph is concurrent[1].decoding_graph
        for seed, decoder, entry in zip(seeds, concurrent, results):
            # The same job run alone, on a fresh decode and executor.
            clear_decode_memo()
            serial = run_prepared(prepare_job(
                "qec_memory", qec_memory_payload(**spec, seed=seed)))
            assert entry["state"] == "done"
            assert entry["result"] == serial
            assert decoder.fallback_count == built[-1].fallback_count
        assert sum(decoder.fallback_count for decoder in concurrent) > 0

    def test_stored_json_reads_decode_to_the_registry_row(self):
        template, points, observable = sweep_fixture()
        qec = qec_memory_payload(distance=3, rounds=2, error_rate=0.02,
                                 shots=512, seed=4)
        with service(workers=1) as handle:
            registry = handle.server.registry
            with ServiceClient(handle.socket_path) as client:
                jobs = [client.submit("sweep", sweep_payload(
                            template, points, observable)).job_id,
                        client.submit("qec_memory", qec).job_id]
                for job_id in jobs:
                    client.fetch(job_id)
                for job_id in jobs:
                    row = registry.get_job(job_id)
                    assert client.status(job_id) == row
                    result = client.result(job_id)
                    assert (result.state, result.result, result.error) == \
                        (row["state"], row["result"], row["error"])
                    assert client.result(job_id, wait=False) == result
                    events = []
                    attached = client.attach(job_id, on_event=events.append)
                    assert attached == result
                assert client.status(jobs[1])["payload"] == qec
                assert client.list_jobs() == registry.list_jobs()
                assert client.list_jobs(limit=1) == registry.list_jobs(1)

    def test_event_replay_decodes_to_the_registry_rows(self):
        """``attach`` replays stored event text as stored; each event the
        client reads equals the registry's decoded row."""
        template, points, observable = sweep_fixture()
        with service(workers=1) as handle:
            registry = handle.server.registry
            with ServiceClient(handle.socket_path) as client:
                job_id = client.submit("sweep", sweep_payload(
                    template, points, observable, chunk=2)).job_id
                client.fetch(job_id)
                for after_seq in (0, 2):
                    events = []
                    client.attach(job_id, after_seq=after_seq,
                                  on_event=events.append)
                    rows = registry.events_since(job_id, after_seq)
                    assert events == rows
                stored = registry.events_since(job_id, decode=False)
                assert sum(e["kind"] == "partial" for e in stored) == 3
                assert all(isinstance(e["data"], RawJSON) for e in stored)
