"""One pass of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --out RESULT.json
                               [--setup-only] [--trace-dir DIR]

``run.py`` starts this with the pinned environment and its own scratch
directory as the working directory, and reads the JSON it writes: the
set-up time (counted from ``PERFBENCH_LAUNCH``, the parent's
``perf_counter`` just before the process was started) and window, the timed
phase's wall and CPU time and window, peak
memory, one record per operation with its check result, the layer counters
and the machine facts only the workload process can see.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def counters(workload: str, inputs) -> dict:
    from repro.execution import default_executor
    from repro.qec import batch_decode_stats
    from repro.simulators import program_cache_counters
    executor = (inputs["handle"].server.executor if workload == "service-jobs"
                else default_executor())
    compiled, hits = program_cache_counters()
    decode = batch_decode_stats()
    return {"execution": dataclasses.asdict(executor.stats),
            "programs_compiled": compiled, "program_cache_hits": hits,
            "decode_shots": decode.shots_decoded,
            "decode_unique": decode.syndromes_decoded}


def matches(actual, expected, tolerance: float) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict)
                and all(matches(actual.get(key), value, tolerance)
                        for key, value in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(a, e, tolerance)
                        for a, e in zip(actual, expected)))
    if isinstance(expected, float) and tolerance:
        return (isinstance(actual, float)
                and abs(actual - expected) <= tolerance * abs(expected))
    return actual == expected


def check(workload: str, records: list) -> None:
    """Set each record's ``failed`` (0 or 1) against the recorded
    references; every record is one operation."""
    with open(REFERENCES, encoding="utf-8") as stream:
        references = json.load(stream)[workload]
    tolerance = workloads.TOLERANCE[workload]
    for record in records:
        expected = references.get(record["label"])
        if expected is None and not record.get("error"):
            record["error"] = "no recorded reference"
        if not record.get("error") and not matches(record["output"], expected,
                                                   tolerance):
            record["error"] = "output differs from the reference"
        record["failed"] = int(bool(record.get("error")))


def profile() -> dict:
    from repro.execution import ExecutionPolicy
    from repro.execution.sharding import resolve_workers
    from repro.qec import popcount_impl
    policy = ExecutionPolicy.from_env()
    return {"popcount_impl": popcount_impl(),
            "repro_workers": resolve_workers(policy.max_workers),
            "policy": policy.parallel or "auto",
            "broker": "spool" if policy.broker else "local"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    launched = float(os.environ["PERFBENCH_LAUNCH"])
    setup, run, teardown = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace_dir:
        import spans
        tracer = spans.Tracer(args.trace_dir)
        spans.install(tracer)

    inputs = setup(args.seed)
    ready = time.perf_counter()
    result = {"setup_s": ready - launched, "setup_window": [launched, ready]}
    try:
        if args.setup_only:
            return 0
        from repro.execution.sharding import shutdown_process_pool
        before = counters(args.workload, inputs)
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            records = run(inputs)
        except Exception as error:  # the whole pass failed: one failure
            records = [{"label": "pass", "latency_s": 0.0,
                        "error": repr(error)}]
        shutdown_process_pool(wait=True)
        end = time.perf_counter()
        result.update(wall_s=end - start, cpu_s=cpu_seconds() - cpu_start,
                      peak_rss_mib=peak_rss_mib(),
                      window=[start, end], pid=os.getpid())
        after = counters(args.workload, inputs)
        result["counters"] = {"before": before, "after": after}
        check(args.workload, records)
        result["records"] = records
        result["profile"] = profile()
    finally:
        if teardown is not None:
            teardown(inputs)
        if tracer is not None:
            tracer.write()
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
