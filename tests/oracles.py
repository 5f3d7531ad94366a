"""Reference implementations the tests check the package against.

Each one restates a rule of the simulator the plain way (one node, one layer
or one message at a time) or is a small helper that more than one test file
shares. None of them is used by the program itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ringprune import EpochSchedule, InputError, StructuralError, ThresholdPolicy, or_masks
from ringprune.ring import PHASE_ALLGATHER, PHASE_SCATTER
from ringprune.seeds import MASK_STREAM, substream

REDUCE_PHASES = (PHASE_SCATTER, PHASE_ALLGATHER)


@dataclass(frozen=True)
class ParamStream:
    """Per-(node, step) family of mask-draw streams, one substream per layer:
    the reference for :func:`ringprune.seeds.mask_stream_words`."""

    seed: int
    node: int
    step: int

    def layer(self, layer_index: int) -> np.random.Generator:
        return substream(self.seed, MASK_STREAM, self.node, self.step, layer_index)


def reference_masks(imp, thr, streams):
    """The mask rule with every draw taken from the reference stream
    ``ParamStream(seed, node, step).layer(j)``, one node and layer at a time."""
    layout = imp.layout
    scores = imp.scores.reshape(-1, layout.total_length)
    thr = np.asarray(thr, dtype=float).reshape(scores.shape[0], layout.n_layers)
    masks = []
    for k, stream in enumerate(streams):
        bits = np.empty(layout.total_length, dtype=bool)
        for j in range(layout.n_layers):
            s, t = scores[k, layout.slice_of(j)], thr[k, j]
            u = stream.layer(j).random(s.shape[0]) if 0 < t < math.inf else np.zeros(s.shape)
            with np.errstate(divide="ignore", invalid="ignore"):
                bits[layout.slice_of(j)] = (s >= t) | (u < s / t)
        masks.append(bits)
    return masks


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


def successor(topo, node: int) -> int:
    """The node that ``node`` sends to on the ring."""
    return (node + 1) % topo.n_nodes


def chunk_slice(topo, chunk: int) -> slice:
    """The parameter range of chunk ``chunk``, padding included."""
    return slice(topo.chunk_bounds[chunk], topo.chunk_bounds[chunk + 1])


def message_count(stats, node: int | None = None, phases=REDUCE_PHASES) -> int:
    """Messages of ``phases`` sent by ``node`` (any if None), counted from
    the per-message ``records`` view."""
    return sum(
        1 for _step, sender, phase, _ in stats.records
        if phase in phases and (node is None or sender == node)
    )
