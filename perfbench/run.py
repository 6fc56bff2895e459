"""The repository's benchmark: three fixed paper workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh
process (``child.py``) with the pinned environment of :func:`pinned_env`,
cold caches and its own scratch directory under ``.perfbench/``.  This
process and every pass (with its fork-pool workers) run on one CPU, the
lowest of the allowed ones.

``--trace 0`` runs passes (at least one) and set-up-only processes until
there are ``SETUP_SAMPLES`` set-up times, stopping before the run would
overrun ``--seconds``, while ``speed.SpeedProbe`` times the CPU.  Every
time is divided by the CPU's slowdown over the window it was measured in;
the run reports the medians over the passes of ``wall_s`` and ``cpu_s``,
the latency metrics over each operation's median latency, and the medians
of ``setup_s`` and ``peak_rss_mib``.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the machine profile and every metric in readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

#: Decoders can break ties in string-hash order (union-find does), so the
#: hash seed is pinned; one BLAS thread, because a second one only competes
#: with the fork pool; two pool workers, as a 2-CPU machine resolves, so the
#: one-CPU affinity of the passes does not turn process shards inline.
PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "REPRO_WORKERS": "2"}
SETUP_SAMPLES = 7
PASS_TIMEOUT = 150.0
#: Operations with at least this many latencies beyond the tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "job_p50_ms": "ms",
                    "job_tail_ms": "ms"}


def pinned_env() -> dict:
    """The environment of every workload process.

    ``REPRO_*`` variables other than the pinned worker count are dropped,
    so no persistent cache (``REPRO_CACHE_DIR``,
    ``REPRO_SERVICE_CACHE_DIR``) or spool leaks in: every pass starts cold
    with the default policy.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_pass(workload: str, seed: int, *, setup_only: bool = False,
             trace_dir=None) -> dict:
    """One fresh workload process; returns its result (``{}`` on a crash)."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=SCRATCH)
    out = os.path.join(workdir, "result.json")
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--out", out]
    if setup_only:
        command.append("--setup-only")
    if trace_dir:
        command += ["--trace-dir", trace_dir]
    env = pinned_env()
    try:
        with open(os.path.join(workdir, "log.txt"), "w+") as log:
            started = time.perf_counter()
            env["PERFBENCH_LAUNCH"] = repr(started)
            process = subprocess.Popen(command, cwd=workdir, env=env,
                                       stdout=log, stderr=subprocess.STDOUT,
                                       start_new_session=True)
            try:
                code = process.wait(timeout=PASS_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                code = "timeout"
            finally:
                # Reap anything the pass left behind in its session.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            elapsed = time.perf_counter() - started
            try:
                with open(out, encoding="utf-8") as stream:
                    result = json.load(stream)
            except (OSError, ValueError):
                result = {}
            if code != 0 or (not setup_only and "records" not in result):
                log.seek(0)
                sys.stderr.write(f"{workload} pass exited {code}:\n"
                                 f"{log.read()[-4000:]}\n")
                result = {}
            result["elapsed_s"] = elapsed
            return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def percentile_tail(latencies) -> tuple:
    """(value, percentile, beyond): the highest percentile with at least
    ``TAIL_BEYOND`` latencies beyond it, or the maximum when there are too
    few operations for one."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        return ordered[-1], 100.0, 0
    return ordered[index], 100.0 * (index + 1) / len(ordered), TAIL_BEYOND


def operation_latencies(passes, slowdowns) -> list:
    """Each operation's median latency (ms) over the passes, each latency
    divided by its pass's slowdown.  Every pass of a run performs the same
    operations in the same order."""
    count = min(len(p["records"]) for p in passes)
    return [statistics.median(p["records"][i]["latency_s"] * 1e3 / slowdown
                              for p, slowdown in zip(passes, slowdowns))
            for i in range(count)]


def end_to_end(passes, setups, probe) -> tuple:
    """The run's metrics, every time divided by its window's slowdown:
    medians over the passes, set-ups and operations; and the passes'
    slowdowns."""
    slowdowns = [probe.slowdown(*p["window"]) for p in passes]
    latencies = operation_latencies(passes, slowdowns)
    return {
        "setup_s": statistics.median(
            s["setup_s"] / probe.slowdown(*s["setup_window"])
            for s in setups),
        "wall_s": statistics.median(
            p["wall_s"] / slowdown for p, slowdown in zip(passes, slowdowns)),
        "cpu_s": statistics.median(
            p["cpu_s"] / slowdown for p, slowdown in zip(passes, slowdowns)),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": percentile_tail(latencies)[0],
    }, slowdowns


def machine_profile(child_profile: dict) -> dict:
    import networkx
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(PINNED["OPENBLAS_NUM_THREADS"]),
            "pythonhashseed": PINNED["PYTHONHASHSEED"], **child_profile}


def measure(args) -> tuple:
    """Passes until ``--seconds`` would be overrun, then set-up-only
    processes until there are ``SETUP_SAMPLES`` set-ups; ``([], [])`` if a
    process failed."""
    started = time.perf_counter()
    passes, durations = [], []
    while True:
        result = run_pass(args.workload, args.seed)
        if not result.get("records"):
            return [], []
        passes.append(result)
        durations.append(result["elapsed_s"])
        # Leave room for the set-up-only processes still to come.
        extra = max(0, SETUP_SAMPLES - len(passes) - 1)
        extra_s = max(p["setup_s"] for p in passes)
        if (time.perf_counter() - started + statistics.median(durations)
                + extra * extra_s > args.seconds):
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        result = run_pass(args.workload, args.seed, setup_only=True)
        if "setup_s" not in result:
            return [], []
        setups.append(result)
    return passes, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.stderr.write(f"no repro package under {SOURCE}: run from the "
                         f"root of a repository checkout\n")
        return 2

    # One CPU for this process, its probe thread and every pass (children
    # inherit the affinity): the probe sees only its own CPU's slow spells.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        import report
        passes = [run_pass(args.workload, args.seed)]
        trace_dir = os.path.join(SCRATCH, "trace", args.workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        passes.append(run_pass(args.workload, args.seed,
                               trace_dir=trace_dir))
        if not all(p.get("records") for p in passes):
            return 1
        metrics, span_files = report.per_layer(passes[1], passes[0],
                                               trace_dir)
        units = report.UNITS
    else:
        with speed.SpeedProbe() as probe:
            passes, setups = measure(args)
        if not passes:
            return 1
        metrics, slowdowns = end_to_end(passes, setups, probe)
        units = END_TO_END_UNITS

    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    profile = machine_profile(passes[-1]["profile"])
    print(f"profile {json.dumps(profile, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"trace {args.trace}")
    for record in records:
        if record["failed"]:
            print(f"FAILED {record['label']}: {record.get('error')}")
    print(f"fail_frac {failed / attempted:.4f} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        print(f"span files {span_files} (the pass process and its pool "
              f"workers) in {trace_dir}")
    else:
        _, percentile, beyond = percentile_tail(
            operation_latencies(passes, slowdowns))
        print(f"job_tail_ms is p{percentile:.1f} of {len(passes[0]['records'])}"
              f" operations' median latencies over {len(passes)} passes "
              f"({beyond} beyond it); setup_s is the median of "
              f"{len(setups)} set-ups")
        print(f"probe {len(probe.samples)} chunks, 2nd percentile "
              f"{probe.fast_chunk() * 1e3:.4f} ms, reference "
              f"{speed.REFERENCE_CHUNK_S * 1e3:.4f} ms")
        print("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
        print("pass slowdown " + " ".join(f"{x:.3f}" for x in slowdowns))
        print("set-up setup_s " + " ".join(f"{s['setup_s']:.4f}"
                                           for s in setups))
        print("set-up slowdown " + " ".join(
            f"{probe.slowdown(*s['setup_window']):.3f}" for s in setups))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
