"""Per-parameter importance scores, layer thresholds, and send masks.

A parameter's importance is the magnitude of its accumulated gradient
relative to the magnitude of the weight it would change. Each layer gets its
own send threshold, derived from the dispersion (variance / mean) of the
layer's scores: a disordered layer raises its threshold, a uniformly
important one lowers it. Parameters at or above the layer threshold are
always selected; parameters below it are selected with probability
score / threshold, which keeps long-unsent residuals from going stale.

Every function here takes either one node's vector or a node-stacked array
with one row per node, and reduces along the last axis. A one-dimensional
call is the single-row case of the same code, so any set of nodes is scored,
thresholded and masked in one pass per step with bit-identical results to
separate calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import BitMask
from .errors import ConfigError, InputError, StructuralError
from .layout import LayerLayout
from .seeds import MASK_STREAM, substream

# Guard for |weight| when scoring; keeps scores finite for zero weights
# without disturbing the ranking of normal-magnitude ones.
DEFAULT_WEIGHT_EPS = 1e-8

# Guard for the variance/mean ratio when a layer's mean score is zero.
STAT_EPS = 1e-12

# Open-ended schedule spans run "to the end"; stored as a very large epoch.
SCHEDULE_OPEN_END = 2**62


@dataclass(frozen=True)
class EpochSchedule:
    """Piecewise-constant value over epoch ranges [start, end)."""

    spans: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        prev_end = None
        for start, end, value in self.spans:
            if start >= end:
                raise ConfigError(f"schedule span [{start}, {end}) is empty")
            if value != value:
                raise ConfigError("schedule value must be a number, got nan")
            if prev_end is not None and start < prev_end:
                raise ConfigError("schedule spans overlap or are out of order")
            prev_end = end

    @classmethod
    def constant(cls, value: float) -> "EpochSchedule":
        return cls(((0, SCHEDULE_OPEN_END, float(value)),))

    def value_at(self, epoch: int) -> float:
        for start, end, value in self.spans:
            if start <= epoch < end:
                return value
        raise ConfigError(f"epoch {epoch} is not covered by the schedule")

    def covers(self, first_epoch: int, last_epoch: int) -> bool:
        try:
            for epoch in range(first_epoch, last_epoch + 1):
                self.value_at(epoch)
        except ConfigError:
            return False
        return True


@dataclass(frozen=True)
class ThresholdPolicy:
    """Layer-wise threshold rule plus the length of warm-up.

    threshold(layer) = base(epoch) + ratio_weight(epoch) * dispersion  when
    the dispersion ratio exceeds ``ratio_pivot``, and base - weight * ratio
    otherwise, clamped into [thr_min, thr_max]. The first ``warmup_epochs``
    epochs send every entry; the trainer decides warm-up and skips the rule
    for those epochs.
    """

    base: EpochSchedule = EpochSchedule.constant(0.01)
    ratio_weight: EpochSchedule = EpochSchedule.constant(0.0)
    ratio_pivot: float = 1.0
    thr_min: float = 1e-6
    thr_max: float = 1.0
    warmup_epochs: int = 1

    def __post_init__(self) -> None:
        # Written as "not (valid)" so that NaN, which compares false, fails.
        if not self.ratio_pivot > 0:
            raise ConfigError(f"ratio_pivot must be > 0, got {self.ratio_pivot}")
        if not self.thr_min > 0:
            raise ConfigError(f"thr_min must be > 0, got {self.thr_min}")
        if not self.thr_min <= self.thr_max:
            raise ConfigError(
                f"thr_min {self.thr_min} exceeds thr_max {self.thr_max}"
            )
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")


@dataclass(frozen=True)
class ImportanceVector:
    """Non-negative per-parameter scores tied to a layer layout: shape (P,)
    for one node, or (N, P) with one row per node."""

    scores: np.ndarray
    layout: LayerLayout

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.scores, dtype=np.float64))
        if arr.ndim not in (1, 2):
            raise StructuralError("scores must be one row or a stack of rows")
        if arr.shape[-1] != self.layout.total_length:
            raise StructuralError(
                f"score count {arr.shape[-1]} does not match layout length "
                f"{self.layout.total_length}"
            )
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise StructuralError("scores must be finite and non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)


def check_finite(accumulated_grad: np.ndarray, weights: np.ndarray) -> None:
    """Raise InputError at the first non-finite residual entry or weight,
    naming the node too for a node-stacked residual."""
    for name, arr in (("gradient", accumulated_grad), ("weight", weights)):
        bad = ~np.isfinite(arr)
        if bad.any():
            *node, index = np.unravel_index(int(np.argmax(bad)), arr.shape)
            where = f"node {node[0]}, index {index}" if node else f"index {index}"
            raise InputError(f"non-finite {name} at {where}")


def compute_importance(
    accumulated_grad: np.ndarray,
    weights: np.ndarray,
    layout: LayerLayout,
) -> ImportanceVector:
    """Score each parameter as |accumulated gradient| / max(|weight|,
    DEFAULT_WEIGHT_EPS).

    ``accumulated_grad`` is one node's (P,) buffer or the (N, P) stack of all
    nodes' buffers; ``weights`` is the (P,) vector they share, checked once.
    """
    g = np.asarray(accumulated_grad, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or g.ndim not in (1, 2) or g.shape[-1] != w.shape[0]:
        raise StructuralError(
            f"gradient shape {g.shape} does not match weight shape {w.shape}"
        )
    if w.shape[0] != layout.total_length:
        raise StructuralError(
            f"vector length {w.shape[0]} does not match layout length {layout.total_length}"
        )
    check_finite(g, w)
    scores = np.abs(g)
    scores /= np.maximum(np.abs(w), DEFAULT_WEIGHT_EPS)
    return ImportanceVector(scores=scores, layout=layout)


def thresholds_for(imp: ImportanceVector, policy: ThresholdPolicy, epoch: int) -> np.ndarray:
    """Per-layer send thresholds: shape (L,) for one row of scores, (R, L)
    for R rows.

    A layer's dispersion ratio is the population variance of its scores over
    their mean, with the mean floored at STAT_EPS; it is exactly 0 for a
    constant layer. The rule is :class:`ThresholdPolicy`'s.
    """
    layout = imp.layout
    rows = imp.scores.reshape(-1, layout.total_length)
    ratio = np.empty((rows.shape[0], layout.n_layers))
    for j in range(layout.n_layers):
        scores = rows[:, layout.slice_of(j)]
        mean = scores.mean(axis=1)
        # exact 0 for constant layers, including single-parameter ones
        constant = np.all(scores == scores[:, :1], axis=1)
        variance = np.where(constant, 0.0, np.mean((scores - mean[:, None]) ** 2, axis=1))
        ratio[:, j] = variance / np.maximum(mean, STAT_EPS)
    base = policy.base.value_at(epoch)
    weight = policy.ratio_weight.value_at(epoch)
    thr = np.where(ratio > policy.ratio_pivot, base + weight * ratio, base - weight * ratio)
    thr = np.minimum(np.maximum(thr, policy.thr_min), policy.thr_max)
    return thr.reshape(imp.scores.shape[:-1] + (layout.n_layers,))


def build_local_mask(
    imp: ImportanceVector,
    thr_by_layer,
    seed: int,
    step: int,
    nodes: Sequence[int] | None = None,
) -> BitMask | list[BitMask]:
    """Send-candidate mask of one node, or of each node for stacked scores.

    A parameter is selected deterministically when its score reaches the
    layer threshold, and otherwise independently with probability
    score / threshold. A zero threshold selects the whole layer; an infinite
    threshold selects nothing. ``nodes`` names the node of each row, in row
    order; without it row k is node k, and a one-dimensional call is node 0.
    Node k's draws in layer j come from the mask stream keyed (seed, node k,
    step, layer j), so a node's mask is the same whichever other rows are
    built with it, and bit-reproducible for a fixed seed. Stacked scores
    take (R, L) thresholds and give one mask per row.
    """
    layout = imp.layout
    rows = imp.scores.reshape(-1, layout.total_length)
    thr = np.asarray(thr_by_layer, dtype=np.float64)
    if thr.shape != imp.scores.shape[:-1] + (layout.n_layers,):
        raise StructuralError(
            f"thresholds of shape {thr.shape} supplied for {layout.n_layers} layers "
            f"and scores of shape {imp.scores.shape}"
        )
    if nodes is None:
        nodes = range(rows.shape[0])
    elif len(nodes) != rows.shape[0]:
        raise StructuralError(f"got {len(nodes)} node ids for {rows.shape[0]} score rows")
    thr = thr.reshape(rows.shape[0], layout.n_layers)
    bad = ~(thr >= 0)  # negative or NaN
    if bad.any():
        node, j = np.argwhere(bad)[0]
        raise InputError(f"threshold for layer {j} of row {node} must be >= 0, got {thr[node, j]}")
    bits = np.empty(rows.shape, dtype=bool)
    for j in range(layout.n_layers):
        sl = layout.slice_of(j)
        scores = rows[:, sl]
        layer_thr = thr[:, j : j + 1]
        uniforms = np.empty(scores.shape)
        for k, node in enumerate(nodes):
            substream(seed, MASK_STREAM, node, step, j).random(out=uniforms[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            bits[:, sl] = (scores >= layer_thr) | (uniforms < scores / layer_thr)
    if imp.scores.ndim == 1:
        return BitMask(bits[0])
    return [BitMask(row) for row in bits]
