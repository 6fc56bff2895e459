"""Variational ansatz families and gate-count design rules."""

from .base import Ansatz, MacroOp
from .blocked import NUM_LINKING_CNOTS, BlockedAllToAllAnsatz, k_for_qubits
from .counts import (DEFAULT_BREAK_EVEN_RATIO, DEFAULT_EXPECTED_INJECTIONS,
                     RegimePreference, blocked_cnot_count,
                     blocked_ratio_formula, cnot_to_rz_ratio, fche_cnot_count,
                     linear_cnot_count, pqec_crossover_qubits,
                     regime_preference, rotation_count, runtime_rz_count)
from .hardware_efficient import (FCHEAnsatz, FullyConnectedAnsatz,
                                 LinearAnsatz)
from .uccsd import UCCSDAnsatz

ANSATZ_FAMILIES = {
    "linear": LinearAnsatz,
    "fully_connected": FullyConnectedAnsatz,
    "blocked_all_to_all": BlockedAllToAllAnsatz,
    "uccsd": UCCSDAnsatz,
}


def make_ansatz(family: str, num_qubits: int, depth: int = 1) -> Ansatz:
    """Construct an ansatz by family name.

    ``family`` is a key of ``ANSATZ_FAMILIES``: ``"linear"``,
    ``"fully_connected"`` (the paper's FCHE), ``"blocked_all_to_all"`` or
    ``"uccsd"``.  The paper's Table 2 compares ``"blocked_all_to_all"``
    against ``"fully_connected"``.  Unknown names raise ``ValueError``
    listing the supported ones.  Example::

        ansatz = make_ansatz("blocked_all_to_all", num_qubits=12, depth=2)
    """
    if family not in ANSATZ_FAMILIES:
        supported = ", ".join(sorted(ANSATZ_FAMILIES))
        raise ValueError(f"unknown ansatz family {family!r}; supported: {supported}")
    return ANSATZ_FAMILIES[family](num_qubits, depth)


__all__ = [
    "ANSATZ_FAMILIES",
    "Ansatz",
    "BlockedAllToAllAnsatz",
    "DEFAULT_BREAK_EVEN_RATIO",
    "DEFAULT_EXPECTED_INJECTIONS",
    "FCHEAnsatz",
    "FullyConnectedAnsatz",
    "LinearAnsatz",
    "MacroOp",
    "NUM_LINKING_CNOTS",
    "RegimePreference",
    "UCCSDAnsatz",
    "blocked_cnot_count",
    "blocked_ratio_formula",
    "cnot_to_rz_ratio",
    "fche_cnot_count",
    "k_for_qubits",
    "linear_cnot_count",
    "make_ansatz",
    "pqec_crossover_qubits",
    "regime_preference",
    "rotation_count",
    "runtime_rz_count",
]
