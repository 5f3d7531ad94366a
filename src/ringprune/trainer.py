"""Momentum SGD over the simulated ring, dense and pruned variants.

Every node applies the same reduced update to the same starting weights, so
the replicas are one weight vector in :class:`TrainState`; what differs per
node, the residual buffer and the staleness counters, is one row per node.
One training super-step runs compute, mask agreement, reduce, and update as
lock-step phases. The pruned pipeline:

1. compute each node's (1/NB)-scaled mini-batch gradient, optionally
   clipped, one node at a time (the dense baseline takes the same gradients);
2. fold them into the residual rows, u <- momentum * u + g, in one pass;
3. score all rows against the current weights, pick per-(node, layer)
   thresholds, and build every node's local candidate mask, one call each
   over the (N, P) residuals (warm-up skips the scoring: its thresholds are
   0, so every entry is a candidate; the mask draws' N x L generators are
   seeded from words derived for the whole step at once);
4. agree on a shared mask (random broadcasters, OR-combine);
5. split all residual rows under the shared mask in one call: the sent
   entries form one (N, nnz) block on the shared index set and are zeroed
   in place, the rest stays as the residual;
6. ring-reduce the sent block and apply the update.

The reduce hands back the sum of the sent contributions in the same
owner-first order as the dense baseline's reduce of (1/NB)-scaled
gradients, which is what makes a warm-up step (threshold 0, momentum 0)
bit-identical to the dense baseline for every node count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .codec import (
    INDEX_BYTES,
    VALUE_BYTES,
    BitMask,
    SparseGradient,
    compression_ratio,
    split_by_mask,
)
from .errors import ConfigError, DivergenceError, InputError, ProtocolError
from .importance import (
    EpochSchedule,
    ThresholdPolicy,
    build_local_mask,
    check_finite,
    compute_importance,
    thresholds_for,
)
from .ring import (
    LinkStats,
    MaskAgreementConfig,
    RingTopology,
    dense_allreduce,
    mask_agreement_round,
    naive_sparse_allreduce,
    sparse_allreduce,
)
from .seeds import INIT_STREAM, substream

MODE_DENSE = "dense"
MODE_COMPRESSED = "compressed"
MODE_DGC_CONTRAST = "dgc_contrast"
MODES = (MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST)

METRICS_CSV_HEADER = (
    "step",
    "epoch",
    "mode",
    "loss",
    "accuracy",
    "mean_density",
    "compression_ratio",
    "bytes_total",
    "staleness_p50",
    "staleness_p90",
    "staleness_max",
)


@dataclass(frozen=True)
class TrainingConfig:
    momentum: float = 0.9
    learning_rate: float = 0.05
    lr_schedule: EpochSchedule | None = None
    batch_size: int = 8
    n_nodes: int = 4
    clip_norm: float | None = None
    seed: int = 0
    epochs: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"training.momentum must be in [0, 1), got {self.momentum}")
        # Written as "not (valid)" so that NaN, which compares false, fails.
        if not self.learning_rate > 0:
            raise ConfigError(
                f"training.learning_rate must be > 0, got {self.learning_rate}"
            )
        if self.lr_schedule is not None:
            for _start, _end, value in self.lr_schedule.spans:
                if not 0 <= value < math.inf:
                    raise ConfigError(
                        f"training.lr_schedule must be finite and >= 0, got {value}"
                    )
        if self.batch_size < 1:
            raise ConfigError(f"training.batch_size must be >= 1, got {self.batch_size}")
        if self.n_nodes < 2:
            raise ConfigError(f"training.n_nodes must be >= 2, got {self.n_nodes}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"training.clip_norm must be > 0, got {self.clip_norm}")
        if self.epochs < 0:
            raise ConfigError(f"training.epochs must be >= 0, got {self.epochs}")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule is None:
            return self.learning_rate
        return self.lr_schedule.value_at(epoch)


@dataclass
class TrainState:
    """The ring's training state.

    ``weights`` (P,) is every node's replica. Row k of ``accum`` (N, P) is
    node k's residual buffer, and row k of ``staleness`` (N, P) counts the
    steps since node k last sent each entry. In dense mode every node holds
    the same momentum velocity, so it is kept once, in row 0 of ``accum``;
    the other rows stay zero.
    """

    weights: np.ndarray
    accum: np.ndarray
    staleness: np.ndarray


def init_state(task, cfg: TrainingConfig) -> TrainState:
    """All nodes start from identical weights and empty buffers."""
    shape = (cfg.n_nodes, task.layout.total_length)
    return TrainState(
        weights=task.init_weights(substream(cfg.seed, INIT_STREAM)),
        accum=np.zeros(shape),
        staleness=np.zeros(shape, dtype=np.int64),
    )


def local_gradient(
    task, weights: np.ndarray, node: int, cfg: TrainingConfig, step: int
) -> np.ndarray:
    """Node ``node``'s (1/NB)-scaled mini-batch gradient for one step."""
    grad = task.node_gradient(weights, node, step, cfg.n_nodes, cfg.batch_size)
    if grad.shape != weights.shape:
        raise ProtocolError(
            f"task gradient shape {grad.shape} does not match weights {weights.shape}"
        )
    return grad


def clip_gradient(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale to L2 norm clip_norm when the gradient exceeds it."""
    if clip_norm <= 0:
        raise InputError(f"clip_norm must be > 0, got {clip_norm}")
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm:
        return grad * (clip_norm / norm)
    return grad


@dataclass
class StepOutcome:
    """What one super-step produced, for metrics and assertions."""

    stats: LinkStats
    shared_mask: BitMask | None = None
    # compressed: node 0's sent entries; dgc_contrast: the reduced sum
    sent: SparseGradient | None = None


def baseline_dense_step(
    state: TrainState,
    cfg: TrainingConfig,
    step: int,
    *,
    task,
    topo: RingTopology,
    epoch: int = 0,
) -> StepOutcome:
    """Vanilla momentum SGD: velocity = m * velocity + sum of node gradients.

    The velocity, the same on every node, is updated in place in row 0 of
    ``state.accum``.
    """
    total, stats = dense_allreduce(_node_gradients(state, cfg, step, task), topo, step=step)
    velocity = state.accum[0]
    velocity *= cfg.momentum
    velocity += total
    state.weights = state.weights - cfg.lr_at(epoch) * velocity
    return StepOutcome(stats=stats)


def _node_gradients(state: TrainState, cfg: TrainingConfig, step: int, task) -> np.ndarray:
    """Every node's gradient, clipped when ``clip_norm`` is set, as (N, P) rows.

    Gradients and their clipping run per node, since a batched matmul or a
    2-D norm can round differently.
    """
    grads = np.empty_like(state.accum)
    for k in range(cfg.n_nodes):
        grad = local_gradient(task, state.weights, k, cfg, step)
        if cfg.clip_norm is not None:
            grad = clip_gradient(grad, cfg.clip_norm)
        grads[k] = grad
    return grads


def _local_masks(
    state: TrainState,
    policy: ThresholdPolicy,
    cfg: TrainingConfig,
    step: int,
    epoch: int,
    task,
) -> list[BitMask]:
    """Steps 1-3 of the pruned pipeline: fold the gradients into the residual
    rows, u <- momentum * u + g, then score, threshold and mask all nodes in
    one pass over the (N, P) residuals.

    Warm-up thresholds are 0 whatever the scores, so warm-up skips scoring
    and makes every entry a candidate.
    """
    grads = _node_gradients(state, cfg, step, task)
    state.accum *= cfg.momentum
    state.accum += grads
    if epoch < policy.warmup_epochs:
        check_finite(state.accum, state.weights)
        return [BitMask.ones(task.layout.total_length)] * cfg.n_nodes
    imp = compute_importance(state.accum, state.weights, task.layout)
    thresholds = thresholds_for(imp, policy, epoch)
    return build_local_mask(imp, thresholds, cfg.seed, step)


def compressed_step(
    state: TrainState,
    policy: ThresholdPolicy,
    mask_cfg: MaskAgreementConfig,
    cfg: TrainingConfig,
    step: int,
    epoch: int,
    *,
    task,
    topo: RingTopology,
) -> StepOutcome:
    """One pruned super-step; see the module docstring for the pipeline."""
    local_masks = _local_masks(state, policy, cfg, step, epoch, task)
    shared, stats = mask_agreement_round(local_masks, mask_cfg, step)
    sent, _ = split_by_mask(state.accum, shared, out=state.accum)
    total, reduce_stats = sparse_allreduce(sent, topo, step=step)
    stats.extend(reduce_stats)
    state.weights = state.weights - cfg.lr_at(epoch) * total.densify()
    state.staleness += 1
    state.staleness[:, shared.bits] = 0
    # Only node 0's row is kept, so the (N, nnz) block is freed with the step.
    node0 = SparseGradient(sent.indices, sent.values[0].copy(), sent.total_length)
    return StepOutcome(stats=stats, shared_mask=shared, sent=node0)


def dgc_contrast_step(
    state: TrainState,
    policy: ThresholdPolicy,
    cfg: TrainingConfig,
    step: int,
    epoch: int,
    *,
    task,
    topo: RingTopology,
) -> StepOutcome:
    """Pruned step without mask agreement: every node sends its own picks.

    Index sets union as partials travel the ring, so the applied update and
    the wire traffic densify with node count. The union plays the shared
    mask's role for residual-free bookkeeping of what was applied.
    """
    local_masks = _local_masks(state, policy, cfg, step, epoch, task)
    total, stats = naive_sparse_allreduce(state.accum, local_masks, topo, step=step)
    sent_bits = np.stack([mask.bits for mask in local_masks])
    state.accum = np.where(sent_bits, 0.0, state.accum)
    state.weights = state.weights - cfg.lr_at(epoch) * total.densify()
    state.staleness += 1
    state.staleness[sent_bits] = 0
    union_bits = np.zeros(topo.length, dtype=bool)
    union_bits[total.indices] = True
    return StepOutcome(stats=stats, shared_mask=BitMask(union_bits), sent=total)


@dataclass
class StepMetrics:
    step: int
    epoch: int
    mode: str
    loss: float
    accuracy: float | None
    mean_density: float | None
    compression_ratio: float | None
    bytes_total: int
    staleness_p50: int
    staleness_p90: int
    staleness_max: int


@dataclass
class RunResult:
    metrics: list[StepMetrics]
    stats: LinkStats

    def final_loss(self) -> float:
        return self.metrics[-1].loss

    def total_bytes(self) -> int:
        return sum(m.bytes_total for m in self.metrics)


def _staleness_percentiles(staleness: np.ndarray) -> tuple[int, int, int]:
    p50 = int(np.percentile(staleness, 50, method="lower"))
    p90 = int(np.percentile(staleness, 90, method="lower"))
    return p50, p90, int(staleness.max())


def run_experiment(
    task,
    cfg: TrainingConfig,
    policy: ThresholdPolicy,
    mask_cfg: MaskAgreementConfig,
    mode: str,
) -> RunResult:
    """Run epochs of super-steps and collect per-step metrics.

    Emits an initial evaluation row (step 0) before any training, then one
    row per step. Aborts with DivergenceError on a non-finite loss.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'; expected one of {MODES}")
    length = task.layout.total_length
    topo = RingTopology.create(cfg.n_nodes, length)
    state = init_state(task, cfg)
    steps_per_epoch = max(1, task.n_samples // (cfg.n_nodes * cfg.batch_size))
    dense_bytes = length * VALUE_BYTES

    loss, accuracy = task.evaluate(state.weights)
    metrics = [
        StepMetrics(
            step=0,
            epoch=0,
            mode=mode,
            loss=loss,
            accuracy=accuracy,
            mean_density=None,
            compression_ratio=None,
            bytes_total=0,
            staleness_p50=0,
            staleness_p90=0,
            staleness_max=0,
        )
    ]
    all_stats = LinkStats()
    step = 0
    for epoch in range(cfg.epochs):
        for _ in range(steps_per_epoch):
            if mode == MODE_DENSE:
                outcome = baseline_dense_step(
                    state, cfg, step, task=task, topo=topo, epoch=epoch
                )
                density: float | None = 1.0
                ratio: float | None = 1.0
            else:
                if mode == MODE_COMPRESSED:
                    outcome = compressed_step(
                        state, policy, mask_cfg, cfg, step, epoch, task=task, topo=topo
                    )
                else:
                    outcome = dgc_contrast_step(
                        state, policy, cfg, step, epoch, task=task, topo=topo
                    )
                density = outcome.shared_mask.density()
                ratio = compression_ratio(
                    outcome.sent, 0, VALUE_BYTES, INDEX_BYTES, dense_bytes
                )
            loss, accuracy = task.evaluate(state.weights)
            step += 1
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at step {step} (epoch {epoch}); "
                    "the run diverged"
                )
            p50, p90, pmax = _staleness_percentiles(state.staleness[0])
            all_stats.extend(outcome.stats)
            metrics.append(
                StepMetrics(
                    step=step,
                    epoch=epoch,
                    mode=mode,
                    loss=loss,
                    accuracy=accuracy,
                    mean_density=density,
                    compression_ratio=ratio,
                    bytes_total=outcome.stats.total_bytes(),
                    staleness_p50=p50,
                    staleness_p90=p90,
                    staleness_max=pmax,
                )
            )
    return RunResult(metrics=metrics, stats=all_stats)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_metrics_csv(metrics: list[StepMetrics], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        for m in metrics:
            writer.writerow(
                [
                    m.step,
                    m.epoch,
                    m.mode,
                    _format_cell(m.loss),
                    _format_cell(m.accuracy),
                    _format_cell(m.mean_density),
                    _format_cell(m.compression_ratio),
                    m.bytes_total,
                    m.staleness_p50,
                    m.staleness_p90,
                    m.staleness_max,
                ]
            )
