"""Decoding wire payloads into runnable, dedup-keyed jobs.

:func:`prepare_job` turns a validated submission payload into a
:class:`PreparedJob`: the reconstructed in-memory objects (circuits,
observables, noise models, decoding graphs, decoders), a **content job key**
and a ``run`` callable the worker threads execute against the shared
executor.

The job key is what coalesces duplicate in-flight jobs *across clients*: it
is derived from the engine's own content fingerprints — circuit/template
:meth:`~repro.circuits.circuit.QuantumCircuit.fingerprint`,
:func:`~repro.execution.task.observable_fingerprint`,
:meth:`~repro.simulators.noise.NoiseModel.fingerprint`, decoding-graph
fingerprints and decoder cache tokens — the same identities the expectation
cache keys on.  Two clients independently building the same workload
therefore hash to the same key, and the runner executes it once.  Jobs whose
outcome is not a pure function of their payload (an unseeded QEC run) carry
``key=None`` and are never coalesced.

Decoding is **memoized across jobs**: a campaign submits many sweeps over
one template and many QEC runs on one code graph, so each distinct payload
entry — a template, an observable, a noise model, an expectation circuit —
is decoded and fingerprinted once per server, keyed by its canonical JSON
text, and each QEC graph once per validated spec.  Jobs share these
objects read-only; decoders are built per job, so their instance counters
stay per job, and per-job validation (parameter counts, chunk, backend,
policy) runs on every submission.  Hits and misses are the
``service.decode_memo.*`` counters of :mod:`repro.obs`.

Runs are **chunked** so partial results stream out while the job executes:
per-circuit energies for expectation jobs, per-point energies for sweeps,
and cumulative failure counts with Wilson intervals for QEC memory jobs.
Chunking never changes values — every chunk rides the exact same executor
entry points an in-process caller would use, and the QEC path iterates the
same seeded sampling blocks in the same order
(:func:`repro.qec.sampling.stream_memory_sampling`).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .. import obs

# The engines every job kind runs load with this module, so a server pays
# their import at start-up and its first QEC job pays none.
from ..execution.errors import ExecutionError, UnknownBackendError
from ..execution.policy import ExecutionPolicy
from ..execution.registry import DEFAULT_REGISTRY
from ..execution import sharding
from ..execution.task import observable_fingerprint
from ..io.serialization import (circuit_from_dict, noise_model_from_dict,
                                pauli_sum_from_dict, template_from_dict)
from ..qec.decoders import (LookupDecoder, MWPMDecoder, UnionFindDecoder,
                            decoder_cache_token, repetition_code_graph,
                            rotated_surface_code_graph)
from ..qec.rare_event import rare_event_knobs, stream_rare_event_sampling
from ..qec.sampling import (SHOT_BLOCK, as_seed_sequence,
                            stream_memory_sampling, wilson_interval)
from ..simulators.memo import ByteMemo
from .protocol import ProtocolError

#: Default circuits / sweep points evaluated per streamed partial.
DEFAULT_CHUNK = 16

#: Default QEC sampling blocks per streamed partial.
DEFAULT_CHUNK_BLOCKS = 8


class JobCancelled(Exception):
    """Raised inside ``run`` when the job's cancel flag is set."""


@dataclass
class JobContext:
    """What a running job sees: the shared executor, an ``emit`` callback
    for partial-result events, and the cancellation flag."""

    executor: Any
    emit: Callable[[str, Dict[str, Any]], None]
    cancelled: threading.Event

    def checkpoint(self) -> None:
        """Raise :class:`JobCancelled` if the job was cancelled; also the
        ``"job"`` site of :data:`repro.execution.sharding.fault_hook`, so
        chaos tests can raise transient errors or stall a job at a chunk
        boundary deterministically."""
        if self.cancelled.is_set():
            raise JobCancelled()
        hook = sharding.fault_hook
        if hook is not None:
            fault = hook("job")
            if fault is not None:
                fault()


@dataclass
class PreparedJob:
    """A decoded, validated, ready-to-run job."""

    kind: str
    key: Optional[str]
    units: int
    run: Callable[[JobContext], Dict[str, Any]]


def _digest(*parts) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


#: Decoded payload entries, ``(kind, canonical JSON text)`` -> ``(object,
#: fingerprint)``, and QEC graphs, ``("qec-graph", spec)`` -> ``(graph,
#: fingerprint)``; sized by text length (a graph counts one byte).
_DECODED = ByteMemo(64 * 1024 * 1024, max_entries=256)


def _memoized(key: Tuple, nbytes: int, build: Callable[[], Tuple]) -> Tuple:
    """The memo's ``(object, fingerprint)`` under ``key``, built on a miss
    (a build that raises keeps nothing)."""
    value = _DECODED.get(key)
    if value is not None:
        obs.add("service.decode_memo.hits")
        return value
    obs.add("service.decode_memo.misses")
    value = build()
    _DECODED.put(key, value, nbytes)
    return value


def _decoded(kind: str, entry: Any, decode: Callable[[Any], Any],
             fingerprint: Callable[[Any], Optional[str]]) -> Tuple:
    """``(object, fingerprint)`` of one payload entry, decoded once per
    distinct canonical text: equal entries whose keys come in another order
    share it."""
    text = json.dumps(entry, sort_keys=True)

    def build():
        value = decode(entry)
        return value, fingerprint(value)

    return _memoized((kind, text), len(text), build)


def decode_memo_stats() -> Dict[str, int]:
    """Hits and misses of the decode memo (a view of ``repro.obs``)."""
    counters = obs.read("service.decode_memo.")
    return {"hits": counters.get("hits", 0),
            "misses": counters.get("misses", 0)}


def clear_decode_memo() -> None:
    """Drop every memoized entry and zero the memo's counters."""
    _DECODED.clear()
    obs.reset("service.decode_memo.")


def _circuit_fingerprint(circuit) -> str:
    return circuit.fingerprint()


def _decode_observable(payload: Dict[str, Any]):
    return _decoded("observable", payload["observable"], pauli_sum_from_dict,
                    observable_fingerprint)


def _decode_noise(payload: Dict[str, Any]):
    """``(noise model or None, its fingerprint or None)``; a model with no
    noise has no fingerprint."""
    entry = payload.get("noise_model")
    if entry is None:
        return None, None
    return _decoded("noise_model", entry, noise_model_from_dict,
                    _noise_fingerprint)


def _noise_fingerprint(noise_model) -> Optional[str]:
    if not noise_model.has_noise():
        return None
    return noise_model.fingerprint()


def _decode_backend(payload: Dict[str, Any]) -> str:
    """The payload's ``backend``, checked against the backend registry at
    submit time, so a misspelt name is rejected instead of failing in a
    worker."""
    backend = payload.get("backend", "auto")
    if not isinstance(backend, str):
        raise ProtocolError(f"backend must be a string, got {backend!r}")
    if backend != "auto":
        try:
            DEFAULT_REGISTRY.canonical_name(backend)
        except UnknownBackendError as error:
            raise ProtocolError(error.args[0]) from None
    return backend


def _decode_policy(payload: Dict[str, Any]):
    """An optional :class:`~repro.execution.policy.ExecutionPolicy` from
    the submission's ``policy`` key.

    The policy steers *how* the job fans out (mode, workers) and
    is deliberately **not** part of the job key: the determinism contract
    makes results bitwise independent of it, so two submissions differing
    only in policy are the same job.  ``max_workers`` is outside input that
    sizes the server's fork pool (a process pool starts all its workers at
    the first submit), so it may not exceed the server's usable CPUs.
    """
    entry = payload.get("policy")
    if entry is None:
        return None
    try:
        policy = ExecutionPolicy.from_payload(entry)
    except (ExecutionError, KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed policy: {error}") from None
    cpus = sharding.usable_cpus()
    if policy.max_workers is not None and policy.max_workers > cpus:
        raise ProtocolError(
            f"malformed policy: max_workers {policy.max_workers} exceeds "
            f"the server's {cpus} usable CPUs")
    return policy


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def _prepare_expectation(payload: Dict[str, Any]) -> PreparedJob:
    decoded = [_decoded("circuit", entry, circuit_from_dict,
                        _circuit_fingerprint)
               for entry in payload["circuits"]]
    if not decoded:
        raise ProtocolError("an expectation job needs at least one circuit")
    circuits = [circuit for circuit, _ in decoded]
    observable, observable_key = _decode_observable(payload)
    noise_model, noise_key = _decode_noise(payload)
    backend = _decode_backend(payload)
    include_idle = bool(payload.get("include_idle", True))
    chunk = int(payload.get("chunk", DEFAULT_CHUNK))
    if chunk < 1:
        raise ProtocolError("chunk must be a positive integer")
    policy = _decode_policy(payload)

    # chunk is part of the key: the engine's batched evaluation is
    # ulp-sensitive to batch shape, so differently-chunked submissions are
    # different jobs; the observable's term order is too (its fingerprint
    # follows terms()).  policy is NOT: fan-out cannot change values.
    key = _digest("expectation",
                  tuple(fingerprint for _, fingerprint in decoded),
                  observable_key, noise_key, backend, include_idle, chunk)

    def run(ctx: JobContext) -> Dict[str, Any]:
        energies = []
        for start in range(0, len(circuits), chunk):
            ctx.checkpoint()
            values = ctx.executor.evaluate_observable(
                circuits[start:start + chunk], observable,
                noise_model=noise_model, backend=backend,
                include_idle=include_idle,
                policy=policy)
            energies.extend(values)
            ctx.emit("partial", {"start": start, "values": values,
                                 "done": len(energies),
                                 "total": len(circuits)})
        return {"energies": energies}

    return PreparedJob(kind="expectation", key=key, units=len(circuits),
                       run=run)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _prepare_sweep(payload: Dict[str, Any]) -> PreparedJob:
    template, template_key = _decoded("template", payload["template"],
                                      template_from_dict,
                                      _circuit_fingerprint)
    parameter_sets = [[float(v) for v in values]
                      for values in payload["parameter_sets"]]
    if not parameter_sets:
        raise ProtocolError("a sweep job needs at least one parameter set")
    num_parameters = len(template.ordered_parameters())
    for values in parameter_sets:
        if len(values) != num_parameters:
            raise ProtocolError(
                f"template has {num_parameters} free parameters, got a "
                f"sweep point with {len(values)}")
    observable, observable_key = _decode_observable(payload)
    noise_model, noise_key = _decode_noise(payload)
    backend = _decode_backend(payload)
    include_idle = bool(payload.get("include_idle", True))
    chunk = int(payload.get("chunk", DEFAULT_CHUNK))
    if chunk < 1:
        raise ProtocolError("chunk must be a positive integer")
    policy = _decode_policy(payload)

    # chunk is part of the key: batched sweep evaluation is ulp-sensitive
    # to batch shape, so differently-chunked submissions are different
    # jobs; the observable's term order is too (its fingerprint follows
    # terms()).  policy is NOT: fan-out cannot change values.
    key = _digest("sweep", template_key,
                  tuple(tuple(values) for values in parameter_sets),
                  observable_key, noise_key, backend, include_idle, chunk)

    def run(ctx: JobContext) -> Dict[str, Any]:
        energies = []
        for start in range(0, len(parameter_sets), chunk):
            ctx.checkpoint()
            values = ctx.executor.evaluate_sweep(
                template, parameter_sets[start:start + chunk], observable,
                noise_model=noise_model, backend=backend,
                include_idle=include_idle,
                policy=policy)
            energies.extend(values)
            ctx.emit("partial", {"start": start, "values": values,
                                 "done": len(energies),
                                 "total": len(parameter_sets)})
        return {"energies": energies}

    return PreparedJob(kind="sweep", key=key, units=len(parameter_sets),
                       run=run)


# ---------------------------------------------------------------------------
# qec_memory
# ---------------------------------------------------------------------------

_DECODER_BUILDERS = {
    "mwpm": MWPMDecoder,
    "union_find": UnionFindDecoder,
    "lookup": LookupDecoder,
}


def _prepare_qec_memory(payload: Dict[str, Any]) -> PreparedJob:
    graph, decoder = _decode_qec_graph_and_decoder(payload)
    shots = int(payload["shots"])
    if shots < 1:
        raise ProtocolError("shots must be a positive integer")
    seed = payload.get("seed")
    chunk_blocks = int(payload.get("chunk_blocks", DEFAULT_CHUNK_BLOCKS))
    if chunk_blocks < 1:
        raise ProtocolError("chunk_blocks must be a positive integer")

    # Seeded runs key on the same content identities the engine caches on;
    # an unseeded run is stochastic — no key, never coalesced.
    key = None
    if seed is not None:
        _, seed_key = as_seed_sequence(int(seed))
        token = decoder_cache_token(decoder)
        if token is not None:
            key = _digest("qec-memory", graph.fingerprint(), token, shots,
                          SHOT_BLOCK, seed_key)

    def run(ctx: JobContext) -> Dict[str, Any]:
        final = None
        for partial in stream_memory_sampling(
                graph, decoder, shots,
                seed=int(seed) if seed is not None else None,
                executor=ctx.executor, chunk_blocks=chunk_blocks):
            ctx.checkpoint()
            low, high = wilson_interval(partial.failures, partial.shots)
            ctx.emit("partial", {
                "shots": partial.shots,
                "failures": partial.failures,
                "logical_error_rate": partial.logical_error_rate,
                "wilson": [low, high],
                "total": shots,
            })
            final = partial
        low, high = wilson_interval(final.failures, final.shots)
        return {
            "shots": final.shots,
            "failures": final.failures,
            "total_defects": final.total_defects,
            "logical_error_rate": final.logical_error_rate,
            "wilson": [low, high],
            "from_cache": final.from_cache,
        }

    return PreparedJob(kind="qec_memory", key=key,
                       units=-(-shots // (SHOT_BLOCK * chunk_blocks)),
                       run=run)


# ---------------------------------------------------------------------------
# qec_rare_event
# ---------------------------------------------------------------------------


_GRAPH_BUILDERS = {
    "repetition": repetition_code_graph,
    "surface": rotated_surface_code_graph,
}


def _decode_qec_graph_and_decoder(payload: Dict[str, Any]):
    """The (graph, decoder) pair the QEC job kinds share: the graph comes
    from the decode memo, keyed by its validated spec (its fingerprint is
    kept on it); the decoder is the job's own."""
    code = payload.get("code", "repetition")
    distance = int(payload["distance"])
    rounds = int(payload["rounds"])
    error_rate = float(payload["error_rate"])
    measurement_error_rate = payload.get("measurement_error_rate")
    if measurement_error_rate is not None:
        measurement_error_rate = float(measurement_error_rate)
    graph_builder = _GRAPH_BUILDERS.get(code)
    if graph_builder is None:
        raise ProtocolError(f"unknown code family {code!r} "
                            f"(expected 'repetition' or 'surface')")

    def build():
        graph = graph_builder(distance, rounds, error_rate,
                              measurement_error_rate)
        return graph, graph.fingerprint()

    # Rates key by repr, so -0.0 and 0.0 stay apart as they would unshared.
    graph, _ = _memoized(
        ("qec-graph", code, distance, rounds, repr(error_rate),
         repr(measurement_error_rate)), 1, build)
    builder = _DECODER_BUILDERS.get(payload.get("decoder", "mwpm"))
    if builder is None:
        raise ProtocolError(
            f"unknown decoder {payload.get('decoder')!r} (expected one of "
            f"{sorted(_DECODER_BUILDERS)})")
    return graph, builder(graph)


def _prepare_qec_rare_event(payload: Dict[str, Any]) -> PreparedJob:
    graph, decoder = _decode_qec_graph_and_decoder(payload)
    shots = int(payload["shots"])
    if shots < 1:
        raise ProtocolError("shots must be a positive integer")
    seed = payload.get("seed")
    chunk_blocks = int(payload.get("chunk_blocks", DEFAULT_CHUNK_BLOCKS))
    if chunk_blocks < 1:
        raise ProtocolError("chunk_blocks must be a positive integer")
    options = {}
    if payload.get("min_fault_weight") is not None:
        options["min_fault_weight"] = int(payload["min_fault_weight"])
    if payload.get("max_weight") is not None:
        options["max_weight"] = int(payload["max_weight"])
    if payload.get("pilot_shots") is not None:
        options["pilot_shots"] = int(payload["pilot_shots"])
    if payload.get("tail_rtol") is not None:
        options["tail_rtol"] = float(payload["tail_rtol"])

    # Resolved here, so knobs no estimate can run are a 400 at submit.
    knobs = rare_event_knobs(graph, decoder, shots, **options)

    # Seeded + token-pinned runs coalesce across clients on the same
    # content identities the estimator caches on.  The resolved estimator
    # knobs are part of the key (they change the strata and the budget
    # split), so naming a default and leaving it unset share a key;
    # chunk_blocks is not, because every aggregate is an integer count.
    key = None
    if seed is not None:
        _, seed_key = as_seed_sequence(int(seed))
        token = decoder_cache_token(decoder)
        if token is not None:
            key = _digest("qec-rare-event", graph.fingerprint(), token,
                          knobs, shots, SHOT_BLOCK, seed_key)

    def run(ctx: JobContext) -> Dict[str, Any]:
        final = None
        for partial in stream_rare_event_sampling(
                graph, decoder, shots,
                seed=int(seed) if seed is not None else None,
                executor=ctx.executor, chunk_blocks=chunk_blocks, **options):
            ctx.checkpoint()
            low, high = partial.wilson_interval()
            ctx.emit("partial", {
                "shots": partial.shots,
                "estimate": partial.estimate,
                "variance": partial.variance,
                "ess": partial.ess,
                "raw_failures": partial.raw_failures,
                "wilson": [low, high],
                "strata": [{"weight": s.weight,
                            "probability": s.probability,
                            "shots": s.shots,
                            "failures": s.failures}
                           for s in partial.strata],
                "total": shots,
            })
            final = partial
        low, high = final.wilson_interval()
        return {
            "shots": final.shots,
            "estimate": final.estimate,
            "logical_error_rate": final.estimate,
            "variance": final.variance,
            "ess": final.ess,
            "raw_failures": final.raw_failures,
            "total_defects": final.total_defects,
            "wilson": [low, high],
            "tail_probability": final.tail_probability,
            "strata": [{"weight": s.weight, "probability": s.probability,
                        "shots": s.shots, "failures": s.failures}
                       for s in final.strata],
            "from_cache": final.from_cache,
        }

    return PreparedJob(kind="qec_rare_event", key=key,
                       units=-(-shots // (SHOT_BLOCK * chunk_blocks)),
                       run=run)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_PREPARERS = {
    "expectation": _prepare_expectation,
    "sweep": _prepare_sweep,
    "qec_memory": _prepare_qec_memory,
    "qec_rare_event": _prepare_qec_rare_event,
}

_QEC_KEYS = frozenset({"code", "distance", "rounds", "error_rate",
                       "measurement_error_rate", "decoder", "shots", "seed",
                       "chunk_blocks"})

#: Every key the :mod:`~repro.service.protocol` payload builder of each
#: kind can emit; anything else is rejected at submit time.
_PAYLOAD_KEYS = {
    "expectation": frozenset({"circuits", "observable", "noise_model",
                              "backend", "include_idle", "chunk",
                              "policy"}),
    "sweep": frozenset({"template", "parameter_sets", "observable",
                        "noise_model", "backend", "include_idle", "chunk",
                        "policy"}),
    "qec_memory": _QEC_KEYS,
    "qec_rare_event": _QEC_KEYS | {"min_fault_weight", "max_weight",
                                   "pilot_shots", "tail_rtol"},
}


def prepare_job(kind: str, payload: Dict[str, Any]) -> PreparedJob:
    """Decode and validate a submission payload into a :class:`PreparedJob`.

    Raises :class:`~repro.service.protocol.ProtocolError` on any malformed
    payload — a key the kind's payload builder never emits, an unknown
    backend name, a missing or mistyped field.  Validation happens at
    submit time, so a bad job is rejected on the submitting connection
    instead of failing later in a worker.
    """
    preparer = _PREPARERS.get(kind)
    if preparer is None:
        raise ProtocolError(f"unknown job kind {kind!r}")
    unknown = sorted(set(payload) - _PAYLOAD_KEYS[kind])
    if unknown:
        raise ProtocolError(
            f"unknown {kind} payload keys {unknown}; expected a subset of "
            f"{sorted(_PAYLOAD_KEYS[kind])}")
    try:
        return preparer(payload)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed {kind} payload: {error}") from None
