"""Which functions of ``src/repro`` do the paper reproductions reach?

Runs every paper reproduction in this process under ``sys.setprofile`` /
``threading.setprofile`` and reports, per module of ``src/repro``, the
functions whose code ran:

* the fig/table/sec benchmarks (``benchmarks/test_fig*.py``,
  ``test_table*.py``, ``test_sec*.py``) through ``pytest.main``;
* the scripts in ``examples/``;
* one pass of each ``perfbench`` workload (set-up, run, tear-down).

Dispatch is inline by default, and the script sets ``REPRO_WORKERS=1`` so
that a ``parallel="process"`` policy naming no worker count plans inline
too: that shard work runs in this process where the profiler sees it.
Code that runs only in a subprocess (``service/__main__``, a shard of a
process policy with ``max_workers`` above 1) is not seen.  Module bodies,
class bodies and comprehensions are left out: importing a module is not
reaching it.

Usage (from the repository root)::

    PYTHONPATH=src python tools/reach.py [--json reach.json]

The report goes to stdout; everything the reproductions print goes to
stderr.  The exit status is 1 when any reproduction failed, since its
reach is then incomplete.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import inspect
import json
import os
import runpy
import sys
import tempfile
import threading
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

sys.path.insert(0, os.path.join(ROOT, "src"))


def _is_function(code) -> bool:
    # Module and class bodies run without CO_OPTIMIZED; comprehensions and
    # lambdas carry "<...>" names.
    return bool(code.co_flags & inspect.CO_OPTIMIZED) \
        and not code.co_name.startswith("<")


def _key(code) -> tuple:
    return (getattr(code, "co_qualname", code.co_name), code.co_firstlineno)


def _body_lines(code) -> int:
    return len({line for _, _, line in code.co_lines() if line is not None})


def defined_functions(path: str) -> dict:
    """``{(qualified name, first line): body lines}`` of every function
    compiled from one source file."""
    with open(path, encoding="utf-8") as handle:
        top = compile(handle.read(), path, "exec")
    found, stack = {}, [top]
    while stack:
        code = stack.pop()
        if _is_function(code):
            found[_key(code)] = _body_lines(code)
        stack.extend(const for const in code.co_consts
                     if inspect.iscode(const))
    return found


class Profiler:
    """Collects every code object that starts running, in any thread."""

    def __init__(self):
        self.codes = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> dict:
        """``{source path: {function key, ...}}`` under ``src/repro``."""
        prefix = PACKAGE + os.sep
        result = {}
        for code in self.codes:
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix) and _is_function(code):
                result.setdefault(path, set()).add(_key(code))
        return result


def run_benchmarks() -> None:
    import pytest
    bench = os.path.join(ROOT, "benchmarks")
    files = sorted(path for pattern in ("test_fig*.py", "test_table*.py",
                                        "test_sec*.py")
                   for path in glob.glob(os.path.join(bench, pattern)))
    # pytest-benchmark clears the profile hook while it times a benchmarked
    # call; with timing disabled the call runs once, traced.
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--benchmark-disable", *files])
    if status != 0:
        raise RuntimeError(f"benchmarks exited with status {int(status)}")


def run_examples() -> None:
    failed = []
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        saved = sys.argv
        sys.argv = [path]
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exit:
            if exit.code not in (None, 0):
                failed.append(os.path.basename(path))
        except Exception:  # keep tracing the remaining examples
            traceback.print_exc()
            failed.append(os.path.basename(path))
        finally:
            sys.argv = saved
    if failed:
        raise RuntimeError(f"examples failed: {', '.join(failed)}")


def run_perfbench() -> None:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    start = os.getcwd()
    # The service workload puts its socket and registry in the working
    # directory.
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name in workloads.NAMES:
                setup, run, teardown = workloads.WORKLOADS[name]
                inputs = setup(0)
                try:
                    run(inputs)
                finally:
                    if teardown is not None:
                        teardown(inputs)
        finally:
            os.chdir(start)


RUNNERS = {"benchmarks": run_benchmarks, "examples": run_examples,
           "perfbench": run_perfbench}


def report(reached: dict) -> dict:
    modules = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        defined = defined_functions(path)
        hit = reached.get(path, set()) & set(defined)
        modules[os.path.relpath(path, os.path.dirname(PACKAGE))] = {
            "functions": len(defined),
            "reached": sorted(name for name, _ in hit),
            "lines": sum(defined.values()),
            "reached_lines": sum(defined[key] for key in hit),
        }
    return modules


def print_report(modules: dict, failures: list) -> None:
    total = sum(entry["lines"] for entry in modules.values())
    hit = sum(entry["reached_lines"] for entry in modules.values())
    functions = sum(entry["functions"] for entry in modules.values())
    reached = sum(len(entry["reached"]) for entry in modules.values())
    # A shortened function keeps its reach but lowers the line totals, so
    # compare reports by reached function names, not by lines.
    print(f"functions reached: {reached} of {functions}")
    print(f"function-body lines reached: {hit} of {total}")
    for failure in failures:
        print(f"INCOMPLETE: {failure}")
    for module, entry in modules.items():
        print(f"{module}: {len(entry['reached'])}/{entry['functions']} "
              f"functions, {entry['reached_lines']}/{entry['lines']} lines")
        for name in entry["reached"]:
            print(f"    {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="also write the report as JSON here")
    args = parser.parse_args(argv)

    os.environ["REPRO_WORKERS"] = "1"
    failures = []
    with Profiler() as profiler, contextlib.redirect_stdout(sys.stderr):
        for name, runner in RUNNERS.items():
            try:
                runner()
            except Exception as error:  # report what did run
                traceback.print_exc()
                failures.append(f"{name}: {error}")
    modules = report(profiler.reached())
    print_report(modules, failures)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"sources": list(RUNNERS), "failures": failures,
                       "modules": modules}, handle, indent=1)
            handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
