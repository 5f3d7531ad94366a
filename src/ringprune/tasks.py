"""Synthetic desk-scale training tasks.

Two stand-ins for real workloads: a convex least-squares problem used for
exactness checks, and a two-layer tanh classifier whose four parameter
groups exercise the layer-wise threshold machinery. Dataset generation,
sharding, and batch selection are all deterministic functions of the task
seed, the node id, and the step, so distributed runs can be replayed and
cross-checked against single-process oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layout import LayerLayout
from .seeds import DATA_STREAM, substream


class SyntheticTask:
    """Shared sharding and batching plumbing.

    Node k's shard is every k-th sample; a step's batch walks the shard
    cyclically starting at position step * batch_size. Both choices are
    deliberate: they need no extra randomness, and a single process can
    reproduce the union of all nodes' batches exactly.
    """

    layout: LayerLayout
    n_samples: int

    def shard_indices(self, node: int, n_nodes: int) -> np.ndarray:
        return np.arange(node, self.n_samples, n_nodes)

    def batch_indices(self, node: int, step: int, n_nodes: int, batch_size: int) -> np.ndarray:
        shard = self.shard_indices(node, n_nodes)
        positions = (step * batch_size + np.arange(batch_size)) % shard.shape[0]
        return shard[positions]

    def node_gradient(
        self, weights: np.ndarray, node: int, step: int, n_nodes: int, batch_size: int
    ) -> np.ndarray:
        """Mini-batch gradient scaled by 1 / (n_nodes * batch_size)."""
        idx = self.batch_indices(node, step, n_nodes, batch_size)
        return self.gradient_sum(weights, idx) / float(n_nodes * batch_size)

    # Subclasses provide: gradient_sum, loss_sum, init_weights, evaluate.


@dataclass
class LinearRegressionTask(SyntheticTask):
    """Least squares with intercept on Gaussian features.

    Per-sample loss is 0.5 * (prediction - target)^2; the reported loss is
    its mean over the full dataset. Convex, so full-batch descent with a
    small step is monotone and the optimum has an exactly zero gradient.
    """

    n_samples: int = 128
    n_features: int = 8
    noise: float = 0.1
    data_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1 or self.n_features < 1:
            raise ConfigError("linear task needs n_samples >= 1 and n_features >= 1")
        if not np.isfinite(self.noise):
            raise ConfigError(f"noise must be finite, got {self.noise}")
        rng = substream(self.data_seed, DATA_STREAM)
        self.features = rng.standard_normal((self.n_samples, self.n_features))
        true_coef = rng.standard_normal(self.n_features)
        true_intercept = rng.standard_normal()
        self.targets = (
            self.features @ true_coef
            + true_intercept
            + self.noise * rng.standard_normal(self.n_samples)
        )
        self.layout = LayerLayout.from_sizes(
            [("coef", self.n_features), ("intercept", 1)]
        )

    def init_weights(self, rng: np.random.Generator) -> np.ndarray:
        return 0.1 * rng.standard_normal(self.layout.total_length)

    def _predict(self, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
        coef = weights[: self.n_features]
        intercept = weights[self.n_features]
        return self.features[idx] @ coef + intercept

    def loss_sum(self, weights: np.ndarray, idx: np.ndarray) -> float:
        residual = self._predict(weights, idx) - self.targets[idx]
        return float(0.5 * np.sum(residual**2))

    def gradient_sum(self, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
        residual = self._predict(weights, idx) - self.targets[idx]
        grad_coef = self.features[idx].T @ residual
        grad_intercept = np.sum(residual)
        return np.concatenate([grad_coef, [grad_intercept]])

    def evaluate(self, weights: np.ndarray) -> tuple[float, float | None]:
        idx = np.arange(self.n_samples)
        return self.loss_sum(weights, idx) / self.n_samples, None

@dataclass
class MlpClassificationTask(SyntheticTask):
    """Two-layer tanh classifier on Gaussian class blobs.

    Parameters flatten into four layer groups (hidden weight/bias, output
    weight/bias). ``label_noise`` flips that fraction of labels to a random
    other class, which puts a floor under the achievable loss and keeps
    relative comparisons between training modes stable.
    """

    n_samples: int = 2048
    n_features: int = 20
    hidden_units: int = 48
    n_classes: int = 4
    center_scale: float = 2.0
    label_noise: float = 0.1
    data_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigError("classification needs n_classes >= 2")
        if self.n_samples < 1 or self.n_features < 1 or self.hidden_units < 1:
            raise ConfigError(
                "classification needs n_samples >= 1, n_features >= 1 and hidden_units >= 1"
            )
        if not np.isfinite(self.center_scale):
            raise ConfigError(f"center_scale must be finite, got {self.center_scale}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ConfigError("label_noise must be in [0, 1)")
        rng = substream(self.data_seed, DATA_STREAM)
        centers = self.center_scale * rng.standard_normal((self.n_classes, self.n_features))
        self.labels = rng.integers(0, self.n_classes, size=self.n_samples)
        self.features = centers[self.labels] + rng.standard_normal(
            (self.n_samples, self.n_features)
        )
        if self.label_noise > 0.0:
            flip = rng.random(self.n_samples) < self.label_noise
            shift = rng.integers(1, self.n_classes, size=self.n_samples)
            self.labels = np.where(
                flip, (self.labels + shift) % self.n_classes, self.labels
            )
        d, h, c = self.n_features, self.hidden_units, self.n_classes
        self.layout = LayerLayout.from_sizes(
            [
                ("hidden_weight", d * h),
                ("hidden_bias", h),
                ("output_weight", h * c),
                ("output_bias", c),
            ]
        )

    def init_weights(self, rng: np.random.Generator) -> np.ndarray:
        d, h, c = self.n_features, self.hidden_units, self.n_classes
        hidden_w = rng.standard_normal((d, h)) / np.sqrt(d)
        hidden_b = 0.01 * rng.standard_normal(h)
        output_w = rng.standard_normal((h, c)) / np.sqrt(h)
        output_b = 0.01 * rng.standard_normal(c)
        return np.concatenate(
            [hidden_w.ravel(), hidden_b, output_w.ravel(), output_b]
        )

    def _unpack(self, weights: np.ndarray):
        d, h, c = self.n_features, self.hidden_units, self.n_classes
        hidden_w = weights[: d * h].reshape(d, h)
        hidden_b = weights[d * h: d * h + h]
        output_w = weights[d * h + h: d * h + h + h * c].reshape(h, c)
        output_b = weights[d * h + h + h * c:]
        return hidden_w, hidden_b, output_w, output_b

    def _forward(self, weights: np.ndarray, idx: np.ndarray):
        hidden_w, hidden_b, output_w, output_b = self._unpack(weights)
        x = self.features[idx]
        hidden = np.tanh(x @ hidden_w + hidden_b)
        logits = hidden @ output_w + output_b
        return x, hidden, logits

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))

    def loss_sum(self, weights: np.ndarray, idx: np.ndarray) -> float:
        _, _, logits = self._forward(weights, idx)
        log_probs = self._log_softmax(logits)
        return float(-np.sum(log_probs[np.arange(idx.shape[0]), self.labels[idx]]))

    def gradient_sum(self, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
        x, hidden, logits = self._forward(weights, idx)
        _, _, output_w, _ = self._unpack(weights)
        probs = np.exp(self._log_softmax(logits))
        dlogits = probs
        dlogits[np.arange(idx.shape[0]), self.labels[idx]] -= 1.0
        grad_output_w = hidden.T @ dlogits
        grad_output_b = dlogits.sum(axis=0)
        dhidden = dlogits @ output_w.T
        dpre = dhidden * (1.0 - hidden**2)
        grad_hidden_w = x.T @ dpre
        grad_hidden_b = dpre.sum(axis=0)
        return np.concatenate(
            [grad_hidden_w.ravel(), grad_hidden_b, grad_output_w.ravel(), grad_output_b]
        )

    def evaluate(self, weights: np.ndarray) -> tuple[float, float | None]:
        idx = np.arange(self.n_samples)
        _, _, logits = self._forward(weights, idx)
        log_probs = self._log_softmax(logits)
        loss = float(-np.mean(log_probs[np.arange(self.n_samples), self.labels]))
        accuracy = float(np.mean(np.argmax(logits, axis=1) == self.labels))
        return loss, accuracy


TASK_KINDS = {
    "linear_regression_synthetic": LinearRegressionTask,
    "mlp_classification_synthetic": MlpClassificationTask,
}


def make_task(kind: str, **fields) -> SyntheticTask:
    if kind not in TASK_KINDS:
        raise ConfigError(
            f"unknown task kind '{kind}'; expected one of {sorted(TASK_KINDS)}"
        )
    return TASK_KINDS[kind](**fields)
