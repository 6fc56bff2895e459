"""The three fixed paper workloads.

Each workload has a ``setup(seed)`` that builds its inputs (timed as
``setup_s``) and a ``run(inputs)`` that performs its operations (timed as
``wall_s``) and returns one record per operation: its label, latency,
output and, for service jobs, the job row.  The scientific seeds are the
paper-figure seeds the references were recorded with, so the two figure
workloads are the same for every ``--seed``; for ``service-jobs`` the seed
draws which jobs of a fixed pool of recorded jobs fill a fixed order.
Outputs are compared with ``references.json``.
"""

from __future__ import annotations

import os
import random
import threading
import time

NAMES = ("fig13-dm", "clifford-ga", "service-jobs")

# -- fig13-dm ----------------------------------------------------------------
FIG13_QUBITS = 6
FIG13_ITERATIONS = 200
FIG13_SEED = 11

# -- clifford-ga -------------------------------------------------------------
FIG14_QUBITS = (12,)
FIG14_COUPLINGS = (1.0,)
FIG14_GA = dict(population_size=20, generations=14)
FIG12_QUBITS = (16,)
FIG12_GA = dict(population_size=12, generations=5)

# -- service-jobs ------------------------------------------------------------
SERVICE_JOBS = 120
SERVICE_SWEEPS = 75
SERVICE_QEC = 30
SERVICE_CLIENTS = 2
SERVICE_RUNNERS = 2
SWEEP_POOL = 96
QEC_POOL = 40
SWEEP_QUBITS = 8
SWEEP_POINTS = 8
QEC_DISTANCE = 3
QEC_RATE = 5e-3
QEC_SHOTS = 4096


def _timed(label, function):
    start = time.perf_counter()
    output = function()
    return {"label": label, "latency_s": time.perf_counter() - start,
            "output": output}


# ---------------------------------------------------------------------------
# fig13-dm: the Fig. 13 OPR flow under density-matrix noise
# ---------------------------------------------------------------------------


def fig13_setup(seed):
    from repro.ansatz import FullyConnectedAnsatz
    from repro.core import NISQRegime, PQECRegime
    from repro.operators import ising_hamiltonian
    hamiltonian = ising_hamiltonian(FIG13_QUBITS, 1.0)
    return {"instances": [("ising_J1", hamiltonian,
                           hamiltonian.ground_state_energy())],
            "ansatz": FullyConnectedAnsatz(FIG13_QUBITS, 1),
            "regimes": (PQECRegime(), NISQRegime())}


def fig13_run(inputs):
    from repro.vqe import CobylaOptimizer, compare_regimes_opr

    def instance(name, hamiltonian, reference):
        outcome = compare_regimes_opr(
            hamiltonian, inputs["ansatz"], *inputs["regimes"], reference,
            optimizer=CobylaOptimizer(max_iterations=FIG13_ITERATIONS),
            benchmark_name=name, seed=FIG13_SEED)
        comparison = outcome["comparison"]
        return {"reference": reference,
                "noiseless": outcome["noiseless"].best_energy,
                "energy_pqec": comparison.energy_a,
                "energy_nisq": comparison.energy_b,
                "gamma": comparison.gamma}

    return [_timed(name, lambda: instance(name, hamiltonian, reference))
            for name, hamiltonian, reference in inputs["instances"]]


# ---------------------------------------------------------------------------
# clifford-ga: the Fig. 14 GA flow, then the Fig. 12 flow
# ---------------------------------------------------------------------------


def clifford_setup(seed):
    from repro.ansatz import BlockedAllToAllAnsatz, FullyConnectedAnsatz
    from repro.core import NISQRegime, PQECRegime
    from repro.operators import heisenberg_hamiltonian, ising_hamiltonian
    fig14 = [(f"fig14_ising_n{n}_J{j:g}", ising_hamiltonian(n, j),
              BlockedAllToAllAnsatz(n, 1), FullyConnectedAnsatz(n, 1),
              37 + n + int(j * 10))
             for n in FIG14_QUBITS for j in FIG14_COUPLINGS]
    fig12 = [(f"fig12_heisenberg_n{n}_J1", heisenberg_hamiltonian(n, 1.0),
              FullyConnectedAnsatz(n, 1), 100 + n + 100)
             for n in FIG12_QUBITS]
    return {"fig14": fig14, "fig12": fig12,
            "pqec": PQECRegime(), "nisq": NISQRegime(),
            "pqec_noise": PQECRegime().noise_model()}


def clifford_run(inputs):
    from repro.vqe import (CliffordVQE, GeneticOptimizer,
                           best_noiseless_clifford_energy,
                           compare_regimes_clifford)

    def fig14(hamiltonian, blocked, fche, seed):
        def search(ansatz):
            return best_noiseless_clifford_energy(
                hamiltonian, ansatz, GeneticOptimizer(seed=seed, **FIG14_GA),
                seed=seed)

        def rescore(ansatz, indices):
            vqe = CliffordVQE(hamiltonian, ansatz, inputs["pqec_noise"],
                              GeneticOptimizer(seed=seed, **FIG14_GA),
                              seed=seed)
            return vqe.evaluate_indices(indices)

        fche_ideal, blocked_ideal = search(fche), search(blocked)
        return {"fche_ideal": fche_ideal.best_energy,
                "blocked_ideal": blocked_ideal.best_energy,
                "blocked_noisy": rescore(blocked,
                                         blocked_ideal.parameter_indices),
                "fche_noisy": rescore(fche, fche_ideal.parameter_indices)}

    def fig12(name, hamiltonian, ansatz, seed):
        outcome = compare_regimes_clifford(
            hamiltonian, ansatz, inputs["pqec"], inputs["nisq"],
            optimizer_factory=lambda: GeneticOptimizer(seed=seed, **FIG12_GA),
            benchmark_name=name, seed=seed, reoptimize_under_noise=False)
        comparison = outcome["comparison"]
        return {"reference": comparison.reference_energy,
                "energy_pqec": comparison.energy_a,
                "energy_nisq": comparison.energy_b}

    records = [_timed(name, lambda: fig14(h, blocked, fche, seed))
               for name, h, blocked, fche, seed in inputs["fig14"]]
    records += [_timed(name, lambda: fig12(name, h, ansatz, seed))
                for name, h, ansatz, seed in inputs["fig12"]]
    return records


# ---------------------------------------------------------------------------
# service-jobs: the job server in-process, two closed-loop clients
# ---------------------------------------------------------------------------


def sweep_job(index):
    """The ``sweep`` payload of pool entry ``index`` (seed independent)."""
    import numpy as np
    from repro.ansatz import FullyConnectedAnsatz
    from repro.operators import ising_hamiltonian
    from repro.service import sweep_payload
    ansatz = FullyConnectedAnsatz(SWEEP_QUBITS, 1)
    rng = np.random.default_rng(1000 + index)
    points = rng.uniform(0.0, 2.0 * np.pi,
                         size=(SWEEP_POINTS, ansatz.num_parameters()))
    coupling = 0.25 + 0.05 * (index % 16)
    return sweep_payload(ansatz.build(), points.tolist(),
                         ising_hamiltonian(SWEEP_QUBITS, coupling))


def qec_job(index):
    """The ``qec_memory`` payload of pool entry ``index``."""
    from repro.service import qec_memory_payload
    return qec_memory_payload(code="surface", distance=QEC_DISTANCE,
                              rounds=QEC_DISTANCE, error_rate=QEC_RATE,
                              decoder="mwpm", shots=QEC_SHOTS,
                              seed=500 + index)


def service_job_list(seed):
    """``(label, kind, pool index)`` of every job, in submission order.

    The order of kinds and which positions resubmit which earlier job are
    the same for every seed (drawn with seed 0): the order sets the queueing
    and with it the latency percentiles, which spread 0.13 of their median
    over ten seeds when the seed drew the order too.  The seed relabels the
    pool entries, so it draws which sweeps and QEC jobs run.
    """
    shape = random.Random(0)
    jobs = [("sweep", i)
            for i in shape.sample(range(SWEEP_POOL), SERVICE_SWEEPS)]
    jobs += [("qec_memory", i)
             for i in shape.sample(range(QEC_POOL), SERVICE_QEC)]
    shape.shuffle(jobs)
    for _ in range(SERVICE_JOBS - len(jobs)):
        position = shape.randrange(1, len(jobs) + 1)
        jobs.insert(position, jobs[shape.randrange(position)])
    rng = random.Random(seed)
    relabel = {"sweep": rng.sample(range(SWEEP_POOL), SWEEP_POOL),
               "qec_memory": rng.sample(range(QEC_POOL), QEC_POOL)}
    prefix = {"sweep": "sweep", "qec_memory": "qec"}
    return [(f"{prefix[kind]}-{relabel[kind][i]}", kind, relabel[kind][i])
            for kind, i in jobs]


def service_setup(seed):
    from repro.service import ServiceClient, ServiceConfig, start_in_thread
    payloads = {}
    jobs = service_job_list(seed)
    for label, kind, index in jobs:
        if label not in payloads:
            payloads[label] = (sweep_job(index) if kind == "sweep"
                               else qec_job(index))
    # Relative paths: the pass runs in its own scratch directory, and a
    # unix socket path must stay short.
    config = ServiceConfig(socket_path="service.sock",
                           db_path=os.path.abspath("registry.sqlite"),
                           workers=SERVICE_RUNNERS)
    handle = start_in_thread(config)
    clients = [ServiceClient(handle.socket_path)
               for _ in range(SERVICE_CLIENTS)]
    for client in clients:
        client.ping()
    return {"jobs": jobs, "payloads": payloads, "handle": handle,
            "clients": clients}


def service_run(inputs):
    jobs, payloads = inputs["jobs"], inputs["payloads"]
    records = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client_loop(client):
        while True:
            with lock:
                position = next(cursor, None)
            if position is None:
                return
            label, kind, _ = jobs[position]
            start = time.perf_counter()
            try:
                submitted = client.submit(kind, payloads[label])
                response = client.result(submitted.job_id, wait=True)
                latency = time.perf_counter() - start
                row = client.status(submitted.job_id)
            except Exception as error:  # counted as a failed operation
                records[position] = {"label": label, "error": repr(error),
                                     "latency_s": time.perf_counter() - start}
                continue
            records[position] = {
                "label": label, "latency_s": latency,
                "output": response.result if response.state == "done"
                else None,
                "error": None if response.state == "done"
                else f"job ended {response.state}: {response.error}",
                "row": {key: row.get(key) for key in
                        ("created_at", "started_at", "finished_at",
                         "cache_hits", "cache_misses")}}

    threads = [threading.Thread(target=client_loop, args=(client,))
               for client in inputs["clients"]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def service_teardown(inputs):
    for client in inputs["clients"]:
        client.close()
    inputs["handle"].stop()


WORKLOADS = {
    "fig13-dm": (fig13_setup, fig13_run, None),
    "clifford-ga": (clifford_setup, clifford_run, None),
    "service-jobs": (service_setup, service_run, service_teardown),
}

#: How each workload's outputs must match the recorded references.
TOLERANCE = {"fig13-dm": 1e-9, "clifford-ga": 0.0, "service-jobs": 0.0}
