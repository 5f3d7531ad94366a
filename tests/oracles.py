"""Reference implementations the tests check the package against.

Each one restates a rule of the simulator the plain way (one node, one layer
or one message at a time) or is a small helper that more than one test file
shares. None of them is used by the program itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ringprune import (
    EpochSchedule,
    InputError,
    StructuralError,
    ThresholdPolicy,
    clip_gradient,
    or_masks,
)
from ringprune.importance import STAT_EPS
from ringprune.ring import PHASE_ALLGATHER, PHASE_SCATTER
from ringprune.seeds import MASK_STREAM, substream

REDUCE_PHASES = (PHASE_SCATTER, PHASE_ALLGATHER)


@dataclass(frozen=True)
class ParamStream:
    """Per-(node, step) family of mask-draw streams, one substream per layer:
    the reference for the streams :func:`ringprune.importance.build_local_mask`
    draws from."""

    seed: int
    node: int
    step: int

    def layer(self, layer_index: int) -> np.random.Generator:
        return substream(self.seed, MASK_STREAM, self.node, self.step, layer_index)


def reference_thresholds(scores, layout, policy, epoch):
    """The threshold rule one row and one layer at a time: a two-pass mean
    and population variance (exactly 0 for a constant layer), the ratio
    variance / max(mean, STAT_EPS), then the pivot branch (a zero weight adds
    no term, even to an infinite ratio) and the [thr_min, thr_max] clamp.
    Returns the (R, L) ratios and thresholds of the (R, P) score rows: the
    reference for ``thresholds_for``."""
    ratios = np.empty((scores.shape[0], layout.n_layers))
    thresholds = np.empty_like(ratios)
    base = policy.base.value_at(epoch)
    weight = policy.ratio_weight.value_at(epoch)
    for k, row in enumerate(scores):
        for j in range(layout.n_layers):
            s = row[layout.slices[j]]
            mean = s.mean()
            variance = 0.0 if np.all(s == s[0]) else np.mean((s - mean) ** 2)
            ratio = float(variance) / max(float(mean), STAT_EPS)
            term = weight * ratio if weight else 0.0
            if ratio > policy.ratio_pivot:
                thr = base + term
            else:
                thr = base - term
            ratios[k, j] = ratio
            thresholds[k, j] = min(max(thr, policy.thr_min), policy.thr_max)
    return ratios, thresholds


def reference_masks(scores, layout, thr, streams):
    """The mask rule on (R, P) score rows and (R, L) thresholds with every
    draw taken from the reference stream ``ParamStream(seed, node,
    step).layer(j)``, one node and layer at a time."""
    masks = []
    for k, stream in enumerate(streams):
        bits = np.empty(layout.total_length, dtype=bool)
        for j in range(layout.n_layers):
            s, t = scores[k, layout.slices[j]], thr[k, j]
            u = stream.layer(j).random(s.shape[0]) if 0 < t < math.inf else np.zeros(s.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                bits[layout.slices[j]] = (s >= t) | (u < s / t)
        masks.append(bits)
    return masks


def batch_indices(task, node: int, step: int, n_nodes: int, batch_size: int) -> np.ndarray:
    """Node ``node``'s batch, walked cyclically through its shard (samples
    node, node + N, node + 2N, ...) from position step * batch_size: the
    reference for one row of ``SyntheticTask.batch_indices``."""
    shard = np.arange(node, task.n_samples, n_nodes)
    positions = (step * batch_size + np.arange(batch_size)) % shard.shape[0]
    return shard[positions]


def local_gradient(task, weights: np.ndarray, node: int, cfg, step: int) -> np.ndarray:
    """Node ``node``'s (1/NB)-scaled mini-batch gradient, computed alone."""
    idx = batch_indices(task, node, step, cfg.n_nodes, cfg.batch_size)
    return task.gradient_sum(weights, idx) / float(cfg.n_nodes * cfg.batch_size)


def node_gradients(task, weights: np.ndarray, cfg, step: int) -> np.ndarray:
    """Every node's gradient, clipped when ``cfg.clip_norm`` is set, one node
    at a time: the reference for the trainer's batched gradient rows."""
    grads = np.empty((cfg.n_nodes, weights.shape[0]))
    for k in range(cfg.n_nodes):
        grad = local_gradient(task, weights, k, cfg, step)
        if cfg.clip_norm is not None:
            grad = clip_gradient(grad, cfg.clip_norm)
        grads[k] = grad
    return grads


def mlp_init_weights(task, rng: np.random.Generator) -> np.ndarray:
    """The MLP's initial weights drawn group by group and joined by
    ``np.concatenate``: the reference for ``MlpClassificationTask.init_weights``."""
    d, h, c = task.n_features, task.hidden_units, task.n_classes
    hidden_w = rng.standard_normal((d, h)) / np.sqrt(d)
    hidden_b = 0.01 * rng.standard_normal(h)
    output_w = rng.standard_normal((h, c)) / np.sqrt(h)
    output_b = 0.01 * rng.standard_normal(c)
    return np.concatenate([hidden_w.ravel(), hidden_b, output_w.ravel(), output_b])


def mlp_layers(task, weights: np.ndarray):
    """The MLP's hidden weight (d, h) and bias, and output weight (h, c) and
    bias, cut from ``weights`` by the task's layout."""
    d, h, c = task.n_features, task.hidden_units, task.n_classes
    hidden_w, hidden_b, output_w, output_b = (
        weights[task.layout.slices[j]] for j in range(4)
    )
    return hidden_w.reshape(d, h), hidden_b, output_w.reshape(h, c), output_b


def mlp_forward(task, weights: np.ndarray, idx: np.ndarray):
    """The MLP's sample rows, hidden activations and logits, each a fresh
    array: the reference forward pass of ``MlpClassificationTask``."""
    hidden_w, hidden_b, output_w, output_b = mlp_layers(task, weights)
    x = task.features[idx]
    hidden = np.tanh(x @ hidden_w + hidden_b)
    logits = hidden @ output_w + output_b
    return x, hidden, logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def mlp_loss_sum(task, weights: np.ndarray, idx: np.ndarray) -> float:
    """Summed cross-entropy of the (B,) sample rows ``idx``."""
    _, _, logits = mlp_forward(task, weights, idx)
    log_probs = log_softmax(logits)
    return float(-np.sum(log_probs[np.arange(idx.shape[0]), task.labels[idx]]))


def mlp_evaluate(task, weights: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over the whole dataset, from the full
    (S, C) log-softmax: the reference for ``MlpClassificationTask.evaluate``."""
    idx = np.arange(task.n_samples)
    _, _, logits = mlp_forward(task, weights, idx)
    log_probs = log_softmax(logits)
    loss = float(-np.mean(log_probs[idx, task.labels]))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == task.labels))
    return loss, accuracy


def mlp_gradient_sum(task, weights: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Batch-summed gradients of the (..., B) sample rows ``idx``, one (P,)
    row per batch, from fresh temporaries joined by ``np.concatenate``: the
    reference for ``MlpClassificationTask.gradient_sum``."""
    x, hidden, logits = mlp_forward(task, weights, idx)
    _, _, output_w, _ = mlp_layers(task, weights)
    dlogits = np.exp(log_softmax(logits))
    rows = dlogits.reshape(-1, task.n_classes)
    rows[np.arange(rows.shape[0]), task.labels[idx].ravel()] -= 1.0
    grad_output_w = np.swapaxes(hidden, -1, -2) @ dlogits
    grad_output_b = dlogits.sum(axis=-2)
    dhidden = dlogits @ output_w.T
    dpre = dhidden * (1.0 - hidden**2)
    grad_hidden_w = np.swapaxes(x, -1, -2) @ dpre
    grad_hidden_b = dpre.sum(axis=-2)
    lead = idx.shape[:-1]
    return np.concatenate(
        [
            g.reshape(lead + (-1,))
            for g in (grad_hidden_w, grad_hidden_b, grad_output_w, grad_output_b)
        ],
        axis=-1,
    )


def fixed_threshold_policy(
    threshold: float, *, warmup_epochs: int = 1, thr_max: float = 1.0
) -> ThresholdPolicy:
    """Constant threshold for every layer and epoch (dispersion ignored)."""
    return ThresholdPolicy(
        base=EpochSchedule.constant(threshold),
        ratio_weight=EpochSchedule.constant(0.0),
        thr_max=max(thr_max, threshold),
        warmup_epochs=warmup_epochs,
    )


class PresetGradientTask:
    """Stub task whose per-(node, step) gradients are preset, for driving the
    step functions and the trainer with hand-chosen values. Its weights start
    at a copy of ``initial_weights`` and its loss is sum(w**2)."""

    def __init__(self, layout, grads, initial_weights):
        self.layout = layout
        self.n_samples = 10_000
        self._grads = grads
        self._initial = np.asarray(initial_weights, dtype=float)

    def init_weights(self, rng):
        return self._initial.copy()

    def preset(self, node, step):
        return np.asarray(self._grads(node, step), dtype=float)

    def node_gradient(self, weights, step, n_nodes, batch_size):
        return np.stack([self.preset(k, step) for k in range(n_nodes)])

    def evaluate(self, weights):
        return float(np.sum(weights**2)), None


def mean_compression_ratio(result) -> float:
    """Mean per-step payload compression of a run over steps that sent anything.

    Steps with an empty payload have unbounded per-step ratios; excluding
    them can only lower the mean, so this is a conservative summary.
    """
    ratios = [
        m.compression_ratio
        for m in result.metrics
        if m.compression_ratio is not None and np.isfinite(m.compression_ratio)
    ]
    if not ratios:
        return float("nan")
    return float(np.mean(ratios))


def closed_form_weight_change(
    grad_history: list[np.ndarray], momentum: float, learning_rate: float
) -> np.ndarray:
    """Weight change after applying a gradient history with momentum.

    Starting from zero velocity, T steps of velocity = m * velocity + g_j
    move the weights by -lr * sum_j (sum_{tau=0}^{T-1-j} m^tau) g_j. The
    oracle for the iterated dense trajectory.
    """
    if not grad_history:
        raise InputError("grad_history must contain at least one gradient")
    horizon = len(grad_history)
    delta = np.zeros_like(np.asarray(grad_history[0], dtype=np.float64))
    for j, grad in enumerate(grad_history):
        coefficient = 0.0
        power = 1.0
        for _ in range(horizon - j):
            coefficient += power
            power *= momentum
        delta += coefficient * np.asarray(grad, dtype=np.float64)
    return -learning_rate * delta


def dgc_union_contrast(per_node_masks, topo=None) -> float:
    """Density after a reduce in which nodes picked indices independently.

    Each hop of such a reduce unions the index sets it carries, so the final
    density is that of the OR of all local masks, growing toward
    min(1, N * d) as node count rises. ``topo`` is optional and only
    validated against the mask count when given, so the single-node
    degenerate case can be expressed.
    """
    masks = list(per_node_masks)
    if topo is not None and len(masks) != topo.n_nodes:
        raise StructuralError(f"got {len(masks)} masks for {topo.n_nodes} nodes")
    return or_masks(masks).density()


def densify(sparse) -> np.ndarray:
    """The dense vector of a ``SparseGradient``, zero off its indices, or
    the (N, total_length) stack of them for a node-stacked block."""
    dense = np.zeros(sparse.values.shape[:-1] + (sparse.total_length,))
    dense[..., sparse.indices] = sparse.values
    return dense


def successor(topo, node: int) -> int:
    """The node that ``node`` sends to on the ring."""
    return (node + 1) % topo.n_nodes


def chunk_slice(topo, chunk: int) -> slice:
    """The parameter range of chunk ``chunk``; empty past a short vector's end."""
    return slice(topo.chunk_bounds[chunk], topo.chunk_bounds[chunk + 1])


def message_count(stats, node: int | None = None, phases=REDUCE_PHASES) -> int:
    """Messages of ``phases`` sent by ``node`` (any if None), counted from
    the per-message ``records`` view."""
    return sum(
        1 for _step, sender, phase, _ in stats.records
        if phase in phases and (node is None or sender == node)
    )


def stored_integers(stats) -> int:
    """Integers held in the arrays of ``stats``' blocks, whatever a block's
    layout: what the accounting costs in memory."""
    return sum(
        value.size
        for block in stats._blocks
        for value in block
        if isinstance(value, np.ndarray)
    )
