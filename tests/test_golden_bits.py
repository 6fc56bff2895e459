"""Golden bits: paper-flow energies pinned to the last bit.

The compiled programs and readout kernels promise values that do not move
when their implementation speeds up: planned tensor contractions and
readout plans compute exactly what per-call ``tensordot`` and per-call
masks computed.  The differential tests hold each kernel against its
reference on any machine.  These values hold the whole chain end to end: a
short Fig. 13 OPR flow (CAFQA bootstrap, noiseless COBYLA, density-matrix
energies under pQEC and NISQ) and one 6-qubit pQEC density-matrix energy,
recorded as ``float.hex`` before the contraction and readout plans
existed.

Floating-point results depend on the numpy and BLAS builds, so the values
are only compared with the builds they were recorded with (``_RECORDED``).
Elsewhere the tests are skipped, and the differential tests in
``test_properties.py`` carry the contract.
"""

import numpy as np
import pytest

from repro.ansatz import FullyConnectedAnsatz
from repro.core import NISQRegime, PQECRegime
from repro.execution import Executor, reset_default_executor
from repro.operators import ising_hamiltonian
from repro.simulators.program import clear_program_cache
from repro.vqe import CobylaOptimizer, compare_regimes_opr

#: numpy version and BLAS build the values below were recorded with.
_RECORDED = ("2.4.6", "scipy-openblas 0.3.31.188.0")

#: Noiseless COBYLA history of the 4-qubit, 40-iteration OPR flow.
OPR_HISTORY = [
    "-0x1.0000000000000p+1", "-0x1.c1528065b7d52p+0", "-0x1.0000000000000p+1",
    "-0x1.e0a94032dbea8p+0", "-0x1.fffffffffffffp+0", "-0x1.0000000000000p+1",
    "-0x1.85445e2ed3e84p+0", "-0x1.0000000000000p+1", "-0x1.0000000000000p+1",
    "-0x1.2ed0604f84104p+1", "-0x1.3155b43f4af2ap+1", "-0x1.68d6688280f04p+1",
    "-0x1.5a4936d611adbp+1", "-0x1.5d71a798e6e14p+1", "-0x1.7ee5b313698b2p+1",
    "-0x1.7813c59fcfa40p+1", "-0x1.798692e7636acp+1", "-0x1.63d841e5e9d8fp+1",
    "-0x1.7f5288ca38979p+1", "-0x1.745f784e72a66p+1", "-0x1.7ff0a3c6607eep+1",
    "-0x1.73ab5de92416ap+1", "-0x1.7fbb840f5c67fp+1", "-0x1.74c4fd374964cp+1",
    "-0x1.7920aa3089708p+1", "-0x1.803b6509da5f4p+1", "-0x1.803746a391830p+1",
    "-0x1.7fd984e9e84b5p+1", "-0x1.81070df47053ap+1", "-0x1.81479402e9a32p+1",
    "-0x1.8261a841864c9p+1", "-0x1.834bcd6fa5363p+1", "-0x1.83f58219345fap+1",
    "-0x1.84de04d68e4b6p+1", "-0x1.8547e2c6d0567p+1", "-0x1.85e8ab2ae82d1p+1",
    "-0x1.87da257ec37d8p+1", "-0x1.87afe0eef3d13p+1", "-0x1.87d810b4d24cbp+1",
    "-0x1.8917d5c6de617p+1",
]
OPR_NOISELESS = "-0x1.8917d5c6de617p+1"
OPR_PQEC = "-0x1.8704630770ed7p+1"
OPR_NISQ = "-0x1.7c85739e977a8p+1"
#: 6-qubit depth-1 FCHE under pQEC noise at a seeded point (78 ops).
PQEC_DM_6Q = "-0x1.033cf63231a55p+0"


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return np.__version__, None
    return np.__version__, f"{blas.get('name')} {blas.get('version')}"


pytestmark = pytest.mark.skipif(
    _environment() != _RECORDED,
    reason=f"golden bits were recorded with numpy {_RECORDED[0]} and "
           f"{_RECORDED[1]}")


@pytest.fixture(autouse=True)
def cold_caches():
    reset_default_executor()
    clear_program_cache()
    yield
    reset_default_executor()
    clear_program_cache()


def test_fig13_opr_flow_bits():
    hamiltonian = ising_hamiltonian(4, 1.0)
    outcome = compare_regimes_opr(
        hamiltonian, FullyConnectedAnsatz(4, 1), PQECRegime(), NISQRegime(),
        hamiltonian.ground_state_energy(),
        optimizer=CobylaOptimizer(max_iterations=40),
        benchmark_name="golden", seed=11)
    assert [value.hex() for value in outcome["noiseless"].history] == \
        OPR_HISTORY
    assert outcome["noiseless"].best_energy.hex() == OPR_NOISELESS
    assert outcome["comparison"].energy_a.hex() == OPR_PQEC
    assert outcome["comparison"].energy_b.hex() == OPR_NISQ


def test_pqec_density_matrix_energy_bits():
    template = FullyConnectedAnsatz(6, 1).build()
    theta = np.random.default_rng(7).uniform(
        -np.pi, np.pi, len(template.ordered_parameters()))
    with Executor(use_cache=False) as executor:
        energy = executor.evaluate_observable(
            template.bind_parameters(theta), ising_hamiltonian(6, 1.0),
            noise_model=PQECRegime().noise_model())[0]
    assert energy.hex() == PQEC_DM_6Q
