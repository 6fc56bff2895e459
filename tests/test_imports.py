"""What each entry point imports.

``import repro`` loads the VQE stack every paper figure runs (circuits,
operators, simulators, execution, ansatz, core and vqe); the QEC sampling
and decoding engines, networkx, routing, QAOA and the service load on first
use through the lazy name tables of the package ``__init__`` files.  The
job server loads the engines its job kinds run when it is imported, so no
job pays an import, while the service's client commands load none of them.

Import order is a property of a fresh interpreter, so those checks run
each scenario in its own subprocess; the name-table checks run in-process.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Every package ``__init__`` that exports its names through a lazy table.
LAZY_PACKAGES = ("repro", "repro.algorithms", "repro.architecture",
                 "repro.estimation", "repro.io", "repro.operators",
                 "repro.qec", "repro.service", "repro.visualization")


def modules_after(code):
    """The ``sys.modules`` keys of a fresh interpreter after running
    ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def test_import_repro_loads_only_the_vqe_stack():
    # The imports perfbench's figure workloads make in their set-up.
    loaded = modules_after("import repro, repro.ansatz, repro.core, "
                           "repro.operators, repro.vqe")
    for module in ("repro.vqe", "repro.core", "repro.execution",
                   "scipy.optimize"):
        assert module in loaded, module
    for module in ("networkx", "repro.qec.decoders", "repro.qec.sampling",
                   "repro.architecture.routing", "repro.algorithms",
                   "repro.service"):
        assert module not in loaded, module


def test_job_server_loads_the_engines_its_jobs_run():
    loaded = modules_after("import repro.service.server")
    for module in ("repro.qec.sampling", "repro.qec.decoders.mwpm"):
        assert module in loaded, module


def test_service_client_commands_load_no_engine():
    loaded = modules_after("import repro.service.__main__")
    for module in ("repro.qec.sampling", "networkx"):
        assert module not in loaded, module


@pytest.mark.parametrize("module", ["repro.architecture.pipeline",
                                    "repro.core"])
def test_imports_first_without_a_cycle(module):
    # core.fidelity imports architecture.layouts and architecture.pipeline
    # imports core.fidelity: harmless while architecture's __init__ imports
    # nothing.
    assert module in modules_after(f"import {module}")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_resolves_every_export(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        module.no_such_name


def test_star_import_and_submodule_attributes():
    namespace = {}
    exec("from repro.qec import *", namespace)
    assert "MWPMDecoder" in namespace
    import repro
    assert repro.qec.MWPMDecoder is namespace["MWPMDecoder"]
    assert repro.qec.sampling.run_memory_sampling is \
        namespace["run_memory_sampling"]


def test_execution_carries_only_the_fault_hook():
    # The seeded fault injector lives in the test suite (tests/chaos.py);
    # the library keeps one hook, unset unless a test installs it.
    loaded = modules_after("import repro.execution\n"
                           "from repro.execution import sharding\n"
                           "assert sharding.fault_hook is None")
    assert "chaos" not in loaded
    assert not [module for module in loaded
                if module.startswith("repro") and "fault" in module]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.execution.faults")


def test_qec_exports_no_importance_sampler():
    import repro.qec
    for name in ("tilted_probabilities", "tilt_for_mean_weight"):
        assert name not in repro.qec.__all__
        assert not hasattr(repro.qec, name)
