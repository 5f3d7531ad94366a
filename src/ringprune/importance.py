"""Per-parameter importance scores, layer thresholds, and send masks.

A parameter's importance is the magnitude of its accumulated gradient
relative to the magnitude of the weight it would change. Each layer gets its
own send threshold, derived from the dispersion (variance / mean) of the
layer's scores: a disordered layer raises its threshold, a uniformly
important one lowers it. Parameters at or above the layer threshold are
always selected; parameters below it are selected with probability
score / threshold. That gives every nonzero score a positive chance on each
step, but it does not keep residuals fresh: at small scores the chance is
tiny, and the bundled ``mlp_compressed`` run never sends 973 of its 1,204
entries in its 250 pruned steps.

Every function here takes an (R, P) stack of score or residual rows, one
row per scored node, and reduces along the last axis, so any set of nodes is
scored, thresholded and masked in one pass per step, bit-identical to
separate calls; :func:`build_local_mask` returns one (R, P) bool stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        """Whether a span holds every epoch of first..last. The spans are
        sorted and disjoint, so one pass moves the first uncovered epoch
        past each span that holds it."""
        for start, end, _value in self.spans:
            if start <= first_epoch < end:
                first_epoch = end
        return first_epoch > last_epoch


@dataclass(frozen=True)
class ThresholdPolicy:
    """Layer-wise threshold rule plus the length of warm-up.

    threshold(layer) = base(epoch) + ratio_weight(epoch) * dispersion  when
    the dispersion ratio exceeds ``ratio_pivot``, and base - weight * ratio
    otherwise, clamped into [thr_min, thr_max]; a zero weight adds nothing,
    even to an infinite ratio. The first ``warmup_epochs``
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
        # An infinite weight times a layer's zero dispersion would be NaN.
        for _start, _end, value in self.ratio_weight.spans:
            if not math.isfinite(value):
                raise ConfigError(f"threshold.ratio_weight must be finite, got {value}")
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


def check_finite(accumulated_grad: np.ndarray, weights: np.ndarray) -> None:
    """Raise InputError at the first non-finite entry of the (R, P) residual
    rows or of the (P,) weights, naming the residual's node."""
    for name, arr in (("gradient", accumulated_grad), ("weight", weights)):
        bad = ~np.isfinite(arr)
        if bad.any():
            *node, index = np.unravel_index(int(np.argmax(bad)), arr.shape)
            where = f"node {node[0]}, index {index}" if node else f"index {index}"
            raise InputError(f"non-finite {name} at {where}")


def _score_rows(scores, layout: LayerLayout) -> np.ndarray:
    """``scores`` as a float array, checked to be (R, P) for the layout."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != layout.total_length:
        raise StructuralError(
            f"expected (rows, {layout.total_length}) for the layout, got shape {arr.shape}"
        )
    return arr


def compute_importance(
    residuals: np.ndarray,
    weights: np.ndarray,
    layout: LayerLayout,
) -> np.ndarray:
    """The (R, P) scores |residual| / max(|weight|, DEFAULT_WEIGHT_EPS) of
    an (R, P) stack of residual rows against the (P,) weights they share.
    The caller checks both for non-finite entries with :func:`check_finite`.
    """
    g = _score_rows(residuals, layout)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (layout.total_length,):
        raise StructuralError(
            f"weight shape {w.shape} does not match layout length {layout.total_length}"
        )
    scores = np.abs(g)
    scores /= np.maximum(np.abs(w), DEFAULT_WEIGHT_EPS)
    return scores


def thresholds_for(
    scores: np.ndarray, layout: LayerLayout, policy: ThresholdPolicy, epoch: int
) -> np.ndarray:
    """The (R, L) per-layer send thresholds of (R, P) score rows.

    A layer's dispersion ratio is the population variance of its scores over
    their mean, with the mean floored at STAT_EPS; it is exactly 0 for a
    constant layer. The rule is :class:`ThresholdPolicy`'s.
    """
    rows = _score_rows(scores, layout)
    ratio = np.empty((rows.shape[0], layout.n_layers))
    for j, sl in enumerate(layout.slices):
        layer = rows[:, sl]
        mean = layer.mean(axis=1)
        # exact 0 for constant layers, including single-parameter ones
        constant = np.all(layer == layer[:, :1], axis=1)
        variance = np.where(constant, 0.0, np.mean((layer - mean[:, None]) ** 2, axis=1))
        ratio[:, j] = variance / np.maximum(mean, STAT_EPS)
    base = policy.base.value_at(epoch)
    weight = policy.ratio_weight.value_at(epoch)
    # A zero weight adds no term, also where the ratio overflowed to inf
    # (0 * inf would be NaN).
    term = weight * ratio if weight else 0.0
    thr = np.where(ratio > policy.ratio_pivot, base + term, base - term)
    return np.minimum(np.maximum(thr, policy.thr_min), policy.thr_max)


def build_local_mask(
    scores: np.ndarray,
    layout: LayerLayout,
    thresholds,
    seed: int,
    step: int,
    nodes: Sequence[int],
) -> np.ndarray:
    """The (R, P) bool stack of send-candidate masks of (R, P) score rows
    under (R, L) thresholds, one row per score row.

    A parameter is selected deterministically when its score reaches the
    layer threshold, and otherwise independently with probability
    score / threshold. A zero threshold selects the whole layer; an infinite
    threshold selects nothing. ``nodes`` names the node of each row, in row
    order. Node k's draws in layer j come from the mask stream keyed (seed,
    node k, step, layer j), so a node's mask is the same whichever other rows
    are built with it, and bit-reproducible for a fixed seed.
    """
    rows = _score_rows(scores, layout)
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.shape != (rows.shape[0], layout.n_layers):
        raise StructuralError(
            f"thresholds of shape {thr.shape} supplied for {layout.n_layers} layers "
            f"and scores of shape {rows.shape}"
        )
    if len(nodes) != rows.shape[0]:
        raise StructuralError(f"got {len(nodes)} node ids for {rows.shape[0]} score rows")
    bad = ~(thr >= 0)  # negative or NaN
    if bad.any():
        node, j = np.argwhere(bad)[0]
        raise InputError(f"threshold for layer {j} of row {node} must be >= 0, got {thr[node, j]}")
    bits = np.empty(rows.shape, dtype=bool)
    for j, sl in enumerate(layout.slices):
        layer = rows[:, sl]
        layer_thr = thr[:, j : j + 1]
        uniforms = np.empty(layer.shape)
        for k, node in enumerate(nodes):
            substream(seed, MASK_STREAM, node, step, j).random(out=uniforms[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            bits[:, sl] = (layer >= layer_thr) | (uniforms < layer / layer_thr)
    return bits
