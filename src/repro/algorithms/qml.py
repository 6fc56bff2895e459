"""A variational quantum classifier (QML workload).

Quantum machine learning is the third VQA family the paper names as a
beneficiary of EFT execution.  The classifier here is the standard
angle-encoding construction: a feature map loads a classical feature vector
into rotation angles, a hardware-efficient variational block follows, and the
prediction is the sign of ``⟨Z_0⟩``.  Training minimizes a squared-margin
loss with any of the repository's optimizers; evaluation can run on the exact
statevector backend or under a regime's noise model via the density-matrix
evaluator (how the pQEC-versus-NISQ comparison is made for QML).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.parameters import ParameterVector
from ..execution.executor import evaluate_sweep
from ..operators.pauli import PauliString, PauliSum
from ..simulators.noise import NoiseModel
from ..vqe.optimizers import Optimizer, SPSAOptimizer


@dataclass(frozen=True)
class ClassificationDataset:
    """Feature matrix, ±1 labels and a human-readable name."""

    name: str
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have the same length")
        if not set(np.unique(self.labels)) <= {-1, 1}:
            raise ValueError("labels must be ±1")

    @property
    def num_samples(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def split(self, train_fraction: float = 0.7,
              seed: int = 0) -> Tuple["ClassificationDataset", "ClassificationDataset"]:
        """Deterministic shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.num_samples)
        cut = max(1, int(round(train_fraction * self.num_samples)))
        train_idx, test_idx = order[:cut], order[cut:]
        return (ClassificationDataset(f"{self.name}-train",
                                      self.features[train_idx],
                                      self.labels[train_idx]),
                ClassificationDataset(f"{self.name}-test",
                                      self.features[test_idx],
                                      self.labels[test_idx]))


def make_blobs_dataset(num_samples: int = 40, num_features: int = 2,
                       separation: float = 1.6,
                       seed: int = 7) -> ClassificationDataset:
    """Two Gaussian blobs, linearly separable for ``separation`` ≳ 1.5."""
    if num_samples < 4:
        raise ValueError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    per_class = num_samples // 2
    center = separation * np.ones(num_features) / math.sqrt(num_features)
    positive = rng.normal(loc=center, scale=0.4, size=(per_class, num_features))
    negative = rng.normal(loc=-center, scale=0.4,
                          size=(num_samples - per_class, num_features))
    features = np.vstack([positive, negative])
    labels = np.concatenate([np.ones(per_class),
                             -np.ones(num_samples - per_class)])
    return ClassificationDataset("blobs", features, labels.astype(int))


def make_circles_dataset(num_samples: int = 40, noise: float = 0.05,
                         seed: int = 7) -> ClassificationDataset:
    """Concentric circles — not linearly separable in the raw features."""
    if num_samples < 4:
        raise ValueError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    per_class = num_samples // 2
    angles_inner = rng.uniform(0, 2 * math.pi, per_class)
    angles_outer = rng.uniform(0, 2 * math.pi, num_samples - per_class)
    inner = 0.5 * np.column_stack([np.cos(angles_inner), np.sin(angles_inner)])
    outer = 1.3 * np.column_stack([np.cos(angles_outer), np.sin(angles_outer)])
    features = np.vstack([inner, outer])
    features += noise * rng.standard_normal(features.shape)
    labels = np.concatenate([np.ones(per_class),
                             -np.ones(num_samples - per_class)])
    return ClassificationDataset("circles", features, labels.astype(int))


class VariationalClassifier:
    """Angle-encoding variational classifier with a ⟨Z_0⟩ readout.

    A feature map loads each sample into rotation angles, a
    hardware-efficient variational block follows, and the prediction is the
    sign of ⟨Z_0⟩.  Batch inference and the training loss submit all sample
    circuits through one grouped :func:`repro.execution.evaluate_observable`
    call (noisy inference on the density-matrix backend, noiseless on the
    statevector backend).  Example::

        dataset = make_blobs_dataset(num_samples=24)
        classifier = VariationalClassifier(num_qubits=4, num_layers=2)
        classifier.fit(dataset)
        print(classifier.accuracy(dataset))
    """

    def __init__(self, num_qubits: int, num_layers: int = 2,
                 feature_repetitions: int = 1,
                 noise_model: Optional[NoiseModel] = None,
                 policy=None):
        if num_qubits < 2:
            raise ValueError("the classifier needs at least two qubits")
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        self.num_qubits = int(num_qubits)
        self.num_layers = int(num_layers)
        self.feature_repetitions = int(feature_repetitions)
        self.noise_model = noise_model
        # Fan-out ExecutionPolicy for batch inference/training sweeps (None
        # defers to the executor's; a "process" mode shards big batches
        # across worker processes with identical scores).
        self.policy = policy
        # Noisy inference runs on the density-matrix backend, noiseless on
        # the statevector backend — both through the unified execute() API.
        self._backend = ("density_matrix" if noise_model is not None
                         else "statevector")
        self._observable = PauliSum(self.num_qubits)
        self._observable.add_term(PauliString.single(self.num_qubits, 0, "Z"), 1.0)
        self.parameters = np.zeros(self.num_parameters())
        self.loss_history: List[float] = []
        # One parametric template covers every sample: feature angles and
        # variational weights are free parameters, so batch inference
        # compiles the circuit once and only rebinds rotation matrices.
        self._feature_params = ParameterVector("x", self.num_qubits)
        self._weight_params = ParameterVector("w", self.num_parameters())
        self._template = self._build_template()
        self._template_order = self._template.ordered_parameters()

    # -- circuit construction -----------------------------------------------------
    def num_parameters(self) -> int:
        """Two rotation angles per qubit per variational layer."""
        return 2 * self.num_qubits * self.num_layers

    def feature_map(self, features: Sequence[float]) -> QuantumCircuit:
        """Angle encoding: Ry(x_i) per qubit + a CNOT ring, repeated."""
        circuit = QuantumCircuit(self.num_qubits, name="feature_map")
        padded = list(features) + [0.0] * (self.num_qubits - len(list(features)))
        for _ in range(self.feature_repetitions):
            for qubit in range(self.num_qubits):
                circuit.ry(float(padded[qubit % len(padded)]), qubit)
            for qubit in range(self.num_qubits):
                circuit.cx(qubit, (qubit + 1) % self.num_qubits)
        return circuit

    def variational_block(self, parameters: Sequence[float]) -> QuantumCircuit:
        """Hardware-efficient Ry·Rz layers with a linear CNOT ladder."""
        expected = self.num_parameters()
        parameters = np.asarray(parameters, dtype=float)
        if parameters.size != expected:
            raise ValueError(f"expected {expected} parameters, got {parameters.size}")
        circuit = QuantumCircuit(self.num_qubits, name="variational_block")
        index = 0
        for _ in range(self.num_layers):
            for qubit in range(self.num_qubits):
                circuit.ry(float(parameters[index]), qubit)
                index += 1
                circuit.rz(float(parameters[index]), qubit)
                index += 1
            for qubit in range(self.num_qubits - 1):
                circuit.cx(qubit, qubit + 1)
        return circuit

    def model_circuit(self, features: Sequence[float],
                      parameters: Optional[Sequence[float]] = None) -> QuantumCircuit:
        parameters = self.parameters if parameters is None else parameters
        circuit = self.feature_map(features)
        return circuit.compose(self.variational_block(parameters))

    def _build_template(self) -> QuantumCircuit:
        """The symbolic model circuit: feature map + variational block."""
        circuit = QuantumCircuit(self.num_qubits, name="classifier_model")
        for _ in range(self.feature_repetitions):
            for qubit in range(self.num_qubits):
                circuit.ry(self._feature_params[qubit], qubit)
            for qubit in range(self.num_qubits):
                circuit.cx(qubit, (qubit + 1) % self.num_qubits)
        index = 0
        for _ in range(self.num_layers):
            for qubit in range(self.num_qubits):
                circuit.ry(self._weight_params[index], qubit)
                index += 1
                circuit.rz(self._weight_params[index], qubit)
                index += 1
            for qubit in range(self.num_qubits - 1):
                circuit.cx(qubit, qubit + 1)
        return circuit

    def _sweep_point(self, features: Sequence[float],
                     parameters: np.ndarray) -> List[float]:
        """One sample's parameter vector for the model template."""
        features = [float(value) for value in features]
        bindings = {}
        for qubit in range(self.num_qubits):
            # Mirrors feature_map's padding: missing features encode as 0.
            bindings[self._feature_params[qubit]] = (
                features[qubit] if qubit < len(features) else 0.0)
        for index, parameter in enumerate(self._weight_params):
            bindings[parameter] = float(parameters[index])
        return [bindings[parameter] for parameter in self._template_order]

    # -- inference ---------------------------------------------------------------
    def decision_function(self, features: Sequence[float],
                          parameters: Optional[Sequence[float]] = None) -> float:
        """⟨Z_0⟩ ∈ [−1, 1]; its sign is the predicted class."""
        return float(self.decision_scores([features], parameters)[0])

    def decision_scores(self, features_batch: Sequence[Sequence[float]],
                        parameters: Optional[Sequence[float]] = None
                        ) -> np.ndarray:
        """⟨Z_0⟩ for a whole batch, as one batched parameter sweep.

        Every sample is a parameter vector (feature angles + shared weights)
        over the one compiled model template, so the whole batch goes through
        :func:`repro.execution.evaluate_sweep`: noiseless inference executes
        as a single stacked statevector pass, noisy inference falls back to
        one grouped density-matrix batch; duplicates within the batch
        collapse, and repeated samples across optimizer iterations hit the
        per-(circuit, term) cache.
        """
        parameters = (self.parameters if parameters is None
                      else np.asarray(parameters, dtype=float))
        if parameters.size != self.num_parameters():
            raise ValueError(f"expected {self.num_parameters()} parameters, "
                             f"got {parameters.size}")
        points = [self._sweep_point(sample, parameters)
                  for sample in features_batch]
        return np.asarray(evaluate_sweep(self._template, points,
                                         self._observable,
                                         noise_model=self.noise_model,
                                         backend=self._backend,
                                         policy=self.policy))

    def predict(self, features_batch: Sequence[Sequence[float]],
                parameters: Optional[Sequence[float]] = None) -> np.ndarray:
        scores = self.decision_scores(features_batch, parameters)
        return np.where(scores >= 0.0, 1, -1)

    def accuracy(self, dataset: ClassificationDataset,
                 parameters: Optional[Sequence[float]] = None) -> float:
        predictions = self.predict(dataset.features, parameters)
        return float(np.mean(predictions == dataset.labels))

    # -- training ----------------------------------------------------------------
    def loss(self, parameters: Sequence[float],
             dataset: ClassificationDataset) -> float:
        """Mean squared margin loss ``mean((⟨Z_0⟩ − y)²)``."""
        scores = self.decision_scores(dataset.features, parameters)
        return float(np.mean((scores - dataset.labels.astype(float)) ** 2))

    def fit(self, dataset: ClassificationDataset,
            optimizer: Optional[Optimizer] = None,
            seed: Optional[int] = 0,
            initial_parameters: Optional[Sequence[float]] = None) -> float:
        """Train in place; returns the final training loss."""
        optimizer = optimizer or SPSAOptimizer(max_iterations=60, seed=seed)
        rng = np.random.default_rng(seed)
        start = (np.asarray(initial_parameters, dtype=float)
                 if initial_parameters is not None
                 else 0.1 * rng.standard_normal(self.num_parameters()))
        result = optimizer.minimize(lambda theta: self.loss(theta, dataset), start)
        self.parameters = np.asarray(result.best_parameters, dtype=float)
        self.loss_history = result.history
        return float(result.best_value)
