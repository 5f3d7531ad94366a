"""Synthetic desk-scale training tasks.

Two stand-ins for real workloads: a convex least-squares problem used for
exactness checks, and a two-layer tanh classifier whose four parameter
groups exercise the layer-wise threshold machinery. Dataset generation,
sharding, and batch selection are all deterministic functions of the task
seed, the node id, and the step, so distributed runs can be replayed and
cross-checked against single-process oracles.

The classifier's evaluation and gradient run in place: one forward pass
writes the bias and the tanh into the matmul's own result, evaluation
multiplies the dataset itself (no gathered copy) and takes the log-softmax
at the labels only, and the gradient writes its four layer groups into one
preallocated (..., P) output. They keep the floating-point operations and
their order of the plain formulas, so every output is bit-identical to
those. The gradient gathers all of a call's sample rows once, as (M, D),
and runs each row-wise product (features @ hidden weights, hidden @ output
weights, logit gradient @ output weights transposed) as one 2-D GEMM over
all M rows, or per batch where only the whole GEMM would cross OpenBLAS's
small-matrix line (``row_product``); the weight-gradient products and sums
run per batch. The row maximum over the few classes, and the row sum
below PAIRWISE_LANES classes, run as folds over the class columns in
numpy's own order, one long call per column instead of one short
reduction per row; the accuracy's argmax, and the row sum from
PAIRWISE_LANES classes on, are numpy's own calls.
Bit-identity with the per-batch products rests on the BLAS computing a
row block of a GEMM as the GEMM of that block alone; the pinned artifact
digests hold for numpy 2.4.6 with its AVX-512 loops and its bundled
OpenBLAS's SkylakeX kernels.
Wide work runs as two halves through ``in_halves``, the first on a helper
thread: the evaluation's rows once each half's products pass
SMALL_GEMM_MACS, the gradient's chunks once one node fills a chunk. The
cuts, and so the results, do not depend on the CPU count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .layout import LayerLayout
from .seeds import DATA_STREAM, substream


# Float64 elements allowed in the widest activation of one gradient_sum
# call (nodes x batch x width; 256 KiB). Stacking nodes into one call saves
# per-call overhead, but past about this size the temporaries leave the
# cache and the stacked call runs slower than one node at a time. Where one
# node's activation alone reaches this size, the nodes run as two halves on
# two threads: there, at 64 x 1,024 (wide4-pruned), node_gradient ran about
# 1.25x faster on two threads, while two-node chunks of 256 x 48 (the mlp_*
# configs) ran about 1.5x slower, their numpy calls too short to overlap.
GRADIENT_CHUNK_ELEMENTS = 1 << 15

# OpenBLAS multiplies a product of at most this many multiply-adds with its
# small-matrix kernel and a larger one with its blocked kernel, and on its
# AVX-512 kernels the two sum an inner dimension of 512 or more in different
# orders. So a block of a product's rows gets the product's bits only when
# both fall on the same side of this line.
SMALL_GEMM_MACS = 10**6

# Numpy adds a row of fewer than PAIRWISE_LANES entries one by one, and a
# longer one pairwise.
PAIRWISE_LANES = 8


def row_product(rows: np.ndarray, matrix: np.ndarray, batch_rows: int, out=None) -> np.ndarray:
    """``rows @ matrix`` for (M, K) ``rows`` that form batches of
    ``batch_rows`` rows, with each row's bits those of its batch's own
    product: one 2-D GEMM over all M rows, unless that GEMM would cross
    SMALL_GEMM_MACS where a batch's would not; then one GEMM per batch.
    ``out``, which only a caller with one batch of all M rows passes,
    receives the one GEMM's result."""
    m, k = rows.shape
    row_macs = k * matrix.shape[1]
    if batch_rows * row_macs <= SMALL_GEMM_MACS < m * row_macs:
        return np.matmul(rows.reshape(-1, batch_rows, k), matrix).reshape(m, -1)
    return np.matmul(rows, matrix, out=out)


def column_fold(ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of (M, C) ``values``, first to
    last, one row result each: one long call per column costs far less than
    numpy's per-row reduction over a few classes."""
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        ufunc(out, values[:, j], out=out)
    return out


def class_sum(values: np.ndarray) -> np.ndarray:
    """The row sums of (M, C) ``values``, equal to np.sum(values, axis=-1)
    bit for bit (up to the sign of a zero sum, which numpy starts from
    +0.0): a column fold below PAIRWISE_LANES classes, where numpy adds one
    by one, and np.sum itself from there on."""
    if values.shape[1] < PAIRWISE_LANES:
        return column_fold(np.add, values)
    return np.sum(values, axis=-1)


def shift_log_sum_exp(logits: np.ndarray) -> np.ndarray:
    """Shift (M, C) ``logits`` in place by their row maximum; return the
    shifted rows' log-sum-exp (M,), which the log-softmax subtracts."""
    logits -= column_fold(np.maximum, logits)[:, None]
    return np.log(class_sum(np.exp(logits)))


def in_halves(work, n: int, split: bool) -> None:
    """Call ``work(0, n)``; or, when ``split``, ``work(0, n // 2)`` on a
    helper thread and ``work(n // 2, n)`` on this one, returning once both
    are done. An exception of the helper's is raised here."""
    if not split:
        return work(0, n)
    errors = []

    def helper_body():
        try:
            work(0, n // 2)
        except BaseException as exc:
            errors.append(exc)

    helper = threading.Thread(target=helper_body)
    helper.start()
    try:
        work(n // 2, n)
    finally:
        helper.join()
    if errors:
        raise errors[0]


class SyntheticTask:
    """Shared sharding and batching plumbing.

    Node k's shard is samples k, k + N, k + 2N, ...; a step's batch walks
    the shard cyclically starting at position step * batch_size. Both
    choices are deliberate: they need no extra randomness, and a single
    process can reproduce the union of all nodes' batches exactly.

    A task declares its parameter groups once, in ``layer_shapes`` (name ->
    shape, in flat order); the layout, the group views and the activation
    width all follow from it.
    """

    layer_shapes: dict[str, tuple[int, ...]]
    n_samples: int

    @cached_property
    def layout(self) -> LayerLayout:
        return LayerLayout.from_sizes(
            (name, math.prod(shape)) for name, shape in self.layer_shapes.items()
        )

    @cached_property
    def activation_width(self) -> int:
        """The widest per-sample activation: in a dense net every activation
        is as wide as one of the group dimensions."""
        return max(max(shape) for shape in self.layer_shapes.values())

    def _unpack(self, weights: np.ndarray) -> list[np.ndarray]:
        """The layer groups of ``weights`` (..., P), as views of shape
        (...,) + the declared shape, in ``layer_shapes`` order."""
        lead = weights.shape[:-1]
        return [
            weights[..., sl].reshape(lead + shape)
            for sl, shape in zip(self.layout.slices, self.layer_shapes.values())
        ]

    def batch_indices(self, step: int, n_nodes: int, batch_size: int) -> np.ndarray:
        """Every node's sample rows for one step, as (N, B): node k's shard
        holds ceil((S - k) / N) samples, and row k, column j is shard
        position (step * B + j) mod that size, i.e. sample
        k + N * ((step * B + j) % ceil((S - k) / N))."""
        nodes = np.arange(n_nodes)[:, None]
        shard_sizes = (self.n_samples - nodes + n_nodes - 1) // n_nodes
        positions = (step * batch_size + np.arange(batch_size)) % shard_sizes
        return nodes + n_nodes * positions

    def node_gradient(
        self, weights: np.ndarray, step: int, n_nodes: int, batch_size: int
    ) -> np.ndarray:
        """Every node's mini-batch gradient scaled by 1 / (n_nodes *
        batch_size), as (N, P) rows.

        Nodes go to ``gradient_sum`` in chunks whose widest activation stays
        within ``GRADIENT_CHUNK_ELEMENTS``, one node per call at the least,
        and each chunk writes straight into its rows of the result. When one
        node's activation alone fills a chunk and there are two or more
        nodes, the chunks run as two halves (``in_halves``); a chunk's call
        is the same either way, so the rows do not depend on the CPU count.
        """
        idx = self.batch_indices(step, n_nodes, batch_size)
        node_elements = batch_size * self.activation_width
        chunk = max(1, GRADIENT_CHUNK_ELEMENTS // node_elements)
        grads = np.empty((n_nodes, self.layout.total_length))
        starts = range(0, n_nodes, chunk)

        def chunks(lo: int, hi: int) -> None:
            for start in starts[lo:hi]:
                rows = slice(start, start + chunk)
                self.gradient_sum(weights, idx[rows], out=grads[rows])

        in_halves(chunks, len(starts), len(starts) > 1 and node_elements >= GRADIENT_CHUNK_ELEMENTS)
        grads /= float(n_nodes * batch_size)
        return grads

    # Subclasses provide: layer_shapes, gradient_sum, init_weights,
    # evaluate. gradient_sum takes sample rows of shape (..., B) and returns
    # one batch-summed (P,) gradient per batch of B rows; a (B,) index
    # vector is the one-batch case of the same code. Given ``out``, an
    # (..., P) array whose rows are contiguous, it writes the gradients
    # there and returns it.


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
        self.layer_shapes = {"coef": (self.n_features,), "intercept": (1,)}

    def init_weights(self, rng: np.random.Generator) -> np.ndarray:
        return 0.1 * rng.standard_normal(self.layout.total_length)

    def _predict(self, weights: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
        coef, intercept = self._unpack(weights)
        return self.features[idx] @ coef + intercept

    def loss_sum(self, weights: np.ndarray, idx: np.ndarray | slice) -> float:
        residual = self._predict(weights, idx) - self.targets[idx]
        return float(0.5 * np.sum(residual**2))

    def gradient_sum(
        self, weights: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        x = self.features[idx]
        residual = self._predict(weights, idx) - self.targets[idx]
        if out is None:
            out = np.empty(idx.shape[:-1] + (self.layout.total_length,))
        grad_coef, grad_intercept = self._unpack(out)
        np.matmul(np.swapaxes(x, -1, -2), residual[..., None], out=grad_coef[..., None])
        np.sum(residual, axis=-1, keepdims=True, out=grad_intercept)
        return out

    def evaluate(self, weights: np.ndarray) -> tuple[float, float | None]:
        return self.loss_sum(weights, slice(None)) / self.n_samples, None

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
        self.layer_shapes = {
            "hidden_weight": (d, h),
            "hidden_bias": (h,),
            "output_weight": (h, c),
            "output_bias": (c,),
        }

    def init_weights(self, rng: np.random.Generator) -> np.ndarray:
        """Each group drawn in layout order: a weight matrix of fan-in n as
        standard normals / sqrt(n), a bias as 0.01 * standard normals."""
        weights = np.empty(self.layout.total_length)
        for group in self._unpack(weights):
            if group.ndim == 2:
                group[...] = rng.standard_normal(group.shape) / np.sqrt(group.shape[0])
            else:
                group[...] = 0.01 * rng.standard_normal(group.shape)
        return weights

    def _forward(
        self, weights: np.ndarray, x: np.ndarray, batch_rows: int, hidden=None, logits=None
    ):
        """Hidden activations and logits of the (M, D) sample rows ``x``,
        each computed in one buffer that the caller may overwrite:
        ``hidden`` and ``logits`` if given, else a fresh one. The rows form
        batches of ``batch_rows``, and each row's bits are those of its
        batch's own products."""
        hidden_w, hidden_b, output_w, output_b = self._unpack(weights)
        hidden = row_product(x, hidden_w, batch_rows, out=hidden)
        hidden += hidden_b
        np.tanh(hidden, out=hidden)
        logits = row_product(hidden, output_w, batch_rows, out=logits)
        logits += output_b
        return hidden, logits

    def gradient_sum(
        self, weights: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Row-wise products run over all of the call's rows at once, as
        (M, ...) with M = idx.size (see ``row_product``); the weight-gradient
        products and sums run per batch of B rows, on (..., B, ...) views of
        the same buffers."""
        batch_rows = idx.shape[-1]
        batches = idx.shape[:-1] + (batch_rows, -1)
        rows = idx.reshape(-1)
        x = self.features.take(rows, axis=0)
        hidden, dlogits = self._forward(weights, x, batch_rows)
        # softmax as exp(log_softmax): exp(shifted) / sum is not bit-identical
        dlogits -= shift_log_sum_exp(dlogits)[:, None]
        np.exp(dlogits, out=dlogits)
        dlogits.reshape(-1)[self.n_classes * np.arange(rows.size) + self.labels[rows]] -= 1.0
        if out is None:
            out = np.empty(idx.shape[:-1] + (self.layout.total_length,))
        grad_hidden_w, grad_hidden_b, grad_output_w, grad_output_b = self._unpack(out)
        np.matmul(
            np.swapaxes(hidden.reshape(batches), -1, -2),
            dlogits.reshape(batches),
            out=grad_output_w,
        )
        np.sum(dlogits.reshape(batches), axis=-2, out=grad_output_b)
        _, _, output_w, _ = self._unpack(weights)
        dpre = row_product(dlogits, output_w.T, batch_rows)
        # 1 - hidden**2, in hidden's buffer
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        dpre *= hidden
        dpre = dpre.reshape(batches)
        np.matmul(np.swapaxes(x.reshape(batches), -1, -2), dpre, out=grad_hidden_w)
        np.sum(dpre, axis=-2, out=grad_hidden_b)
        return out

    def evaluate(self, weights: np.ndarray) -> tuple[float, float | None]:
        """Mean cross-entropy and accuracy over the whole dataset. The forward
        pass fills preallocated buffers, in two row halves (``in_halves``)
        once each half's smaller product, S // 2 x hidden x min(features,
        classes), is past SMALL_GEMM_MACS, so that each half runs the
        whole's kernel."""
        hidden = np.empty((self.n_samples, self.hidden_units))
        logits = np.empty((self.n_samples, self.n_classes))

        def forward(lo: int, hi: int) -> None:
            self._forward(weights, self.features[lo:hi], hi - lo, hidden[lo:hi], logits[lo:hi])

        half = (self.n_samples // 2) * self.hidden_units * min(self.n_features, self.n_classes)
        in_halves(forward, self.n_samples, half > SMALL_GEMM_MACS)
        # the accuracy first: the shift below runs in place
        accuracy = np.count_nonzero(np.argmax(logits, axis=1) == self.labels) / self.n_samples
        lse = shift_log_sum_exp(logits)
        at_labels = self.n_classes * np.arange(self.n_samples) + self.labels
        log_probs = logits.reshape(-1).take(at_labels) - lse
        return float(-np.mean(log_probs)), accuracy


TASK_KINDS = {
    "linear_regression_synthetic": LinearRegressionTask,
    "mlp_classification_synthetic": MlpClassificationTask,
}
