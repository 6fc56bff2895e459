"""Per-layer metrics of a traced pass.

A layer's ``self_s`` is the summed duration of its spans minus the time
of their direct child spans, over the traced process and every pool
worker.  Counts come from span counts and from the counters the layers
already export (``ExecutionStats``, ``program_cache_counters``,
``batch_decode_stats``, the service's job rows), read as deltas over the
timed phase.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "circuits.bind.calls": "count", "circuits.bind.self_s": "s",
    "circuits.fingerprint.calls": "count",
    "circuits.fingerprint.self_s": "s", "circuits.transpile.self_s": "s",
    "simulators.compile.calls": "count", "simulators.compile.self_s": "s",
    "simulators.program_cache.hit_ratio": "ratio",
    "simulators.density_matrix.self_s": "s",
    "simulators.statevector.self_s": "s", "simulators.readout.self_s": "s",
    "simulators.twirl.calls": "count", "simulators.twirl.self_s": "s",
    "simulators.pauli_propagation.self_s": "s",
    "execution.tasks": "count", "execution.evolutions": "count",
    "execution.cache.hit_ratio": "ratio",
    "execution.plan.calls": "count", "execution.plan.process_share": "ratio",
    "execution.shards": "count", "execution.dispatch.wait_s": "s",
    "execution.faults": "count",
    "qec.sample.self_s": "s", "qec.extract.self_s": "s",
    "qec.decode.self_s": "s", "qec.decode.shots": "count",
    "qec.decode.unique": "count", "qec.decode.dedup_factor": "ratio",
    "vqe.objective.calls": "count", "vqe.optimizer.self_s": "s",
    "service.queue_ms.p50": "ms", "service.run_ms.p50": "ms",
    "service.overhead_ms.p50": "ms", "service.cache.hit_ratio": "ratio",
    "trace.unattributed_share": "ratio", "trace.overhead_s": "s",
}


def load(directory: str):
    """(spans, plan modes, file count) of every span file in ``directory``."""
    spans, modes = [], []
    paths = sorted(glob.glob(os.path.join(directory, "spans-*.jsonl")))
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a worker killed mid-write leaves a torn line
                if record["n"] == "execution.plan.mode":
                    modes.append(record["mode"])
                else:
                    spans.append(record)
    return spans, modes, len(paths)


def layer_totals(spans) -> dict:
    """Per layer: ``calls`` and ``self_s`` over all processes."""
    child_time = defaultdict(float)
    for span in spans:
        if span["p"]:
            child_time[(span["pid"], span["p"])] += span["e"] - span["s"]
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = layers[span["n"]]
        entry["calls"] += 1
        entry["self_s"] += (span["e"] - span["s"]
                            - child_time[(span["pid"], span["id"])])
    return layers


def covered_seconds(spans, pid: int, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by top-level spans of ``pid``."""
    intervals = sorted((max(span["s"], start), min(span["e"], end))
                       for span in spans
                       if span["pid"] == pid and not span["p"])
    covered, reach = 0.0, start
    for low, high in intervals:
        if high > reach:
            covered += high - max(low, reach)
            reach = high
    return covered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def service_metrics(records) -> dict:
    rows = [(r["latency_s"], r["row"]) for r in records
            if r.get("row") and r["row"].get("finished_at")]
    queue = [(row["started_at"] - row["created_at"]) * 1e3
             for _, row in rows]
    run = [(row["finished_at"] - row["started_at"]) * 1e3 for _, row in rows]
    overhead = [(latency - (row["finished_at"] - row["created_at"])) * 1e3
                for latency, row in rows]
    hits = sum(row["cache_hits"] for _, row in rows)
    lookups = hits + sum(row["cache_misses"] for _, row in rows)
    return {"service.queue_ms.p50": _p50(queue),
            "service.run_ms.p50": _p50(run),
            "service.overhead_ms.p50": _p50(overhead),
            "service.cache.hit_ratio": _ratio(hits, lookups)}


def per_layer(traced: dict, untraced: dict, directory: str) -> tuple:
    """(every metric in :data:`UNITS`, span file count) for one traced
    pass."""
    spans, modes, files = load(directory)
    layers = layer_totals(spans)
    before = traced["counters"]["before"]
    after = traced["counters"]["after"]

    def delta(key):
        return after[key] - before[key]

    execution = {key: after["execution"][key] - before["execution"][key]
                 for key in ("tasks_submitted", "process_shards",
                             "shard_retries", "shard_timeouts",
                             "pool_respawns", "degraded_shards")}
    evolutions = (sum(after["execution"]["backend_invocations"].values())
                  - sum(before["execution"]["backend_invocations"].values()))
    compiled, hits = delta("programs_compiled"), delta("program_cache_hits")
    shots, unique = delta("decode_shots"), delta("decode_unique")
    start, end = traced["window"]
    metrics = {}
    for name in UNITS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            metrics[name] = layers[layer][field]  # 0 for a layer never run
    metrics.update({
        "simulators.program_cache.hit_ratio": _ratio(hits, compiled + hits),
        "execution.tasks": execution["tasks_submitted"],
        "execution.evolutions": evolutions,
        "execution.cache.hit_ratio":
            1.0 - _ratio(evolutions, execution["tasks_submitted"])
            if execution["tasks_submitted"] else 0.0,
        "execution.plan.process_share": _ratio(modes.count("process"),
                                               len(modes)),
        "execution.shards": execution["process_shards"],
        "execution.dispatch.wait_s": sum(
            s["e"] - s["s"] for s in spans
            if s["n"] == "execution.dispatch" and s["pid"] == traced["pid"]),
        "execution.faults": sum(execution[key] for key in (
            "shard_retries", "shard_timeouts", "pool_respawns",
            "degraded_shards")),
        "qec.decode.shots": shots, "qec.decode.unique": unique,
        "qec.decode.dedup_factor": _ratio(shots, unique),
        "trace.unattributed_share": 1.0 - _ratio(
            covered_seconds(spans, traced["pid"], start, end), end - start),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    metrics.update(service_metrics(traced["records"]))
    return {name: metrics[name] for name in UNITS}, files
