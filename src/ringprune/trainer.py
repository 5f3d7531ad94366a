"""Momentum SGD over the simulated ring, dense and pruned variants.

Every node applies the same reduced update to the same starting weights, so
the replicas are one weight vector in :class:`TrainState`. In the pruned
modes each node's residual buffer differs, so it is one row per node; the
dense baseline's momentum velocity is the same on every node and is kept
once. Staleness is read from node 0 only, so only its last-send steps are
kept. One training super-step runs compute, mask agreement, reduce, and
update as lock-step phases. The pruned pipeline:

1. compute every node's (1/NB)-scaled mini-batch gradient as (N, P) rows,
   in one task call, then clip each row when ``clip_norm`` is set (the
   dense baseline takes the same gradients);
2. fold them into the residual rows, u <- momentum * u + g, in one pass;
3. draw the step's broadcasters, which depend on the shared seed and the
   step alone; check every residual row for non-finite values; then score
   only the broadcasters' rows against the current weights, pick their
   per-(node, layer) thresholds and build their local candidate masks, one
   call each. A node's mask depends only on its own row and its own mask
   streams, and no other node's mask reaches the shared one, so the
   non-broadcasters' masks are never built. Warm-up skips the scoring and
   makes every entry a candidate;
4. agree on a shared mask: the broadcasters' masks, OR-combined;
5. split all residual rows under the shared mask in one call: the sent
   entries form one (N, nnz) block on the shared index set and are zeroed
   in place, the rest stays as the residual;
6. ring-reduce the sent block, subtract the update from the weights in
   place at the shared indices and record the step as the last send of
   every entry in the shared mask.

The reduce hands back the sum of the sent contributions in the same
owner-first order as the dense baseline's reduce of (1/NB)-scaled
gradients, which is what makes a warm-up step (every entry sent, momentum 0)
bit-identical to the dense baseline for every node count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .codec import VALUE_BYTES, BitMask, split_by_mask
from .errors import ConfigError, DivergenceError, InputError, StructuralError
from .importance import (
    EpochSchedule,
    ThresholdPolicy,
    build_local_mask,
    check_finite,
    compute_importance,
    thresholds_for,
)
from .ring import (
    PHASE_ALLGATHER,
    LinkStats,
    MaskAgreementConfig,
    RingTopology,
    dense_allreduce,
    mask_agreement_round,
    naive_sparse_allreduce,
    select_broadcast_nodes,
    sparse_allreduce,
)
from .seeds import INIT_STREAM, substream

# perfbench/child.py times runs by replacing attributes by name: this
# module's compute_importance, thresholds_for, build_local_mask,
# split_by_mask, dense_allreduce, mask_agreement_round, sparse_allreduce and
# step functions, and ring's encode_mask, decode_mask and or_masks. So the
# steps call them as globals, and run_experiment names each step in its call
# (a mode -> function table built at import would bypass the step hook). The
# hook on mask_agreement_round calls .density() on each local mask and
# or_masks on the list: the round takes BitMasks, not an (R, P) bool stack.

MODE_DENSE = "dense"
MODE_COMPRESSED = "compressed"
MODE_DGC_CONTRAST = "dgc_contrast"
MODES = (MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST)

@dataclass(frozen=True)
class TrainingConfig:
    momentum: float = 0.9
    learning_rate: EpochSchedule = EpochSchedule.constant(0.05)
    batch_size: int = 8
    n_nodes: int = 4
    clip_norm: float | None = None
    seed: int = 0
    epochs: int = 5

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"training.momentum must be in [0, 1), got {self.momentum}")
        for _start, _end, value in self.learning_rate.spans:
            if not 0 <= value < math.inf:
                raise ConfigError(f"training.learning_rate must be finite and >= 0, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"training.batch_size must be >= 1, got {self.batch_size}")
        if self.n_nodes < 2:
            raise ConfigError(f"training.n_nodes must be >= 2, got {self.n_nodes}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"training.clip_norm must be > 0, got {self.clip_norm}")
        if self.epochs < 0:
            raise ConfigError(f"training.epochs must be >= 0, got {self.epochs}")


@dataclass
class TrainState:
    """The ring's training state.

    ``weights`` (P,) is every node's replica, updated in place: a pruned
    step writes only the entries the reduce returned. In the pruned modes
    row k of ``accum`` (N, P) is node k's residual buffer; in dense mode
    ``accum`` (P,) is the momentum velocity, the same on every node.
    ``last_sent`` (P,) holds, per entry, the number of steps done when node 0
    last sent it (0 if never), so after ``step`` steps its staleness is
    ``step - last_sent``.
    """

    weights: np.ndarray
    accum: np.ndarray
    last_sent: np.ndarray


def init_state(task, cfg: TrainingConfig, mode: str) -> TrainState:
    """All nodes start from identical weights and empty buffers."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'; expected one of {MODES}")
    length = task.layout.total_length
    return TrainState(
        weights=task.init_weights(substream(cfg.seed, INIT_STREAM)),
        accum=np.zeros(length if mode == MODE_DENSE else (cfg.n_nodes, length)),
        last_sent=np.zeros(length, dtype=np.int64),
    )


def _check_accum(state: TrainState, shape: tuple[int, ...], step_kind: str) -> None:
    if state.accum.shape != shape:
        raise StructuralError(
            f"{step_kind} step needs an accum of shape {shape}, got {state.accum.shape}: "
            "the state was built for another mode"
        )


def clip_gradient(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale to L2 norm clip_norm when the gradient exceeds it."""
    if not clip_norm > 0:  # NaN fails too
        raise InputError(f"clip_norm must be > 0, got {clip_norm}")
    norm = float(np.linalg.norm(grad))
    if norm > clip_norm:
        return grad * (clip_norm / norm)
    return grad


@dataclass
class StepOutcome:
    """What one super-step produced, for metrics and assertions: its link
    traffic and the mask of the entries its reduce delivered (all ones in
    dense mode, the shared mask in compressed mode, the union of the
    nodes' masks in the contrast mode)."""

    stats: LinkStats
    shared_mask: BitMask


def baseline_dense_step(
    state: TrainState,
    cfg: TrainingConfig,
    step: int,
    epoch: int,
    *,
    task,
    topo: RingTopology,
) -> StepOutcome:
    """Vanilla momentum SGD: velocity = m * velocity + sum of node gradients.

    The velocity, the same on every node, is ``state.accum``, updated in
    place. Every entry is sent on every step, so the outcome's mask is all
    ones.
    """
    _check_accum(state, state.weights.shape, MODE_DENSE)
    total, stats = dense_allreduce(_node_gradients(state, cfg, step, task), topo, step=step)
    state.accum *= cfg.momentum
    state.accum += total
    state.weights -= cfg.learning_rate.value_at(epoch) * state.accum
    state.last_sent[:] = step + 1
    return StepOutcome(stats=stats, shared_mask=BitMask(np.ones(total.shape[0], dtype=bool)))


def _node_gradients(state: TrainState, cfg: TrainingConfig, step: int, task) -> np.ndarray:
    """Every node's (1/NB)-scaled gradient as (N, P) rows, from one task
    call, with each row clipped when ``clip_norm`` is set.

    The task stacks the nodes' batches into shared matmul calls; each row is
    bit-identical to that node's gradient computed alone (the tests hold the
    per-node loop as the oracle). Clipping stays per row, since a 2-D norm
    can round differently.
    """
    grads = task.node_gradient(state.weights, step, cfg.n_nodes, cfg.batch_size)
    shape = (cfg.n_nodes, state.weights.shape[0])
    if grads.shape != shape:
        raise StructuralError(
            f"task gradient shape {grads.shape} does not match {shape} (one row per node)"
        )
    if cfg.clip_norm is not None:
        for row in grads:
            row[:] = clip_gradient(row, cfg.clip_norm)
    return grads


def _local_masks(
    state: TrainState,
    policy: ThresholdPolicy,
    cfg: TrainingConfig,
    step: int,
    epoch: int,
    task,
    nodes: Sequence[int],
) -> np.ndarray:
    """Steps 1-3 of the pruned pipeline: fold the gradients into every
    residual row, u <- momentum * u + g, check every row, then score,
    threshold and mask the rows of ``nodes`` in one pass. Returns their
    masks as one (len(nodes), P) bool stack, rows in the order given.

    This is where warm-up is decided: a warm-up epoch skips scoring and
    makes every entry a candidate.
    """
    _check_accum(state, (cfg.n_nodes, state.weights.shape[0]), "pruned")
    grads = _node_gradients(state, cfg, step, task)
    state.accum *= cfg.momentum
    state.accum += grads
    check_finite(state.accum, state.weights)
    if epoch < policy.warmup_epochs:
        return np.ones((len(nodes), task.layout.total_length), dtype=bool)
    layout = task.layout
    scores = compute_importance(state.accum[list(nodes)], state.weights, layout)
    thresholds = thresholds_for(scores, layout, policy, epoch)
    return build_local_mask(scores, layout, thresholds, cfg.seed, step, nodes)


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
    broadcasters = select_broadcast_nodes(cfg.n_nodes, mask_cfg, step)
    bits = _local_masks(state, policy, cfg, step, epoch, task, nodes=broadcasters)
    masks = [BitMask(row) for row in bits]
    shared, stats = mask_agreement_round(masks, broadcasters, cfg.n_nodes, step)
    sent = split_by_mask(state.accum, shared)
    total, reduce_stats = sparse_allreduce(sent, topo, step=step)
    stats.extend(reduce_stats)
    state.weights[total.indices] -= cfg.learning_rate.value_at(epoch) * total.values
    state.last_sent[shared.bits] = step + 1
    return StepOutcome(stats=stats, shared_mask=shared)


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
    mask's role for residual-free bookkeeping of what was applied; node 0's
    last sends are those of its own mask.
    """
    bits = _local_masks(state, policy, cfg, step, epoch, task, range(cfg.n_nodes))
    total, stats = naive_sparse_allreduce(state.accum, bits, topo, step=step)
    state.accum[bits] = 0.0
    state.weights[total.indices] -= cfg.learning_rate.value_at(epoch) * total.values
    state.last_sent[bits[0]] = step + 1
    return StepOutcome(stats=stats, shared_mask=BitMask(bits.any(axis=0)))


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


METRICS_CSV_HEADER = tuple(f.name for f in fields(StepMetrics))


@dataclass
class RunResult:
    metrics: list[StepMetrics]
    stats: LinkStats

    def final_loss(self) -> float:
        return self.metrics[-1].loss

    def total_bytes(self) -> int:
        return sum(m.bytes_total for m in self.metrics)


def _staleness_percentiles(staleness: np.ndarray) -> tuple[int, int, int]:
    """The 50th and 90th percentiles (``np.percentile``'s method="lower")
    and the max of a non-empty, non-negative integer vector, from one count
    per value."""
    cumulative = np.cumsum(np.bincount(staleness))
    # method="lower" takes sorted position floor((n - 1) * q), in float64 as here
    ranks = [math.floor((staleness.shape[0] - 1) * q) for q in (0.5, 0.9)]
    p50, p90 = np.searchsorted(cumulative, ranks, side="right").tolist()
    return p50, p90, cumulative.shape[0] - 1


def run_experiment(
    task,
    cfg: TrainingConfig,
    policy: ThresholdPolicy,
    mask_cfg: MaskAgreementConfig,
    mode: str,
) -> RunResult:
    """Run epochs of super-steps and collect per-step metrics.

    Emits an initial evaluation row (step 0) before any training, then one
    row per step. Aborts with DivergenceError on a non-finite loss, and on
    the InputError a pruned step raises for a non-finite residual.
    """
    state = init_state(task, cfg, mode)
    topo = RingTopology.create(cfg.n_nodes, task.layout.total_length)
    steps_per_epoch = max(1, task.n_samples // (cfg.n_nodes * cfg.batch_size))
    metrics: list[StepMetrics] = []
    all_stats = LinkStats()
    # each reduced entry crosses N-1 allgather hops, dense at VALUE_BYTES
    dense_gather_bytes = (cfg.n_nodes - 1) * task.layout.total_length * VALUE_BYTES

    def record(step: int, epoch: int, outcome: StepOutcome | None) -> None:
        """Evaluate the weights after ``step`` steps and append their row.
        A None ``outcome`` marks the initial row: unchecked, no bytes sent."""
        loss, accuracy = task.evaluate(state.weights)
        if outcome is not None and not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss {loss} at step {step} (epoch {epoch}); "
                "the run diverged"
            )
        p50, p90, pmax = _staleness_percentiles(step - state.last_sent)
        density = ratio = None
        bytes_total = 0
        if outcome is not None:
            all_stats.extend(outcome.stats)
            bytes_total = outcome.stats.bytes_for()
            density = outcome.shared_mask.density()
            gathered = outcome.stats.bytes_for(PHASE_ALLGATHER)
            ratio = dense_gather_bytes / gathered if gathered else math.inf
        metrics.append(
            StepMetrics(
                step=step,
                epoch=epoch,
                mode=mode,
                loss=loss,
                accuracy=accuracy,
                mean_density=density,
                compression_ratio=ratio,
                bytes_total=bytes_total,
                staleness_p50=p50,
                staleness_p90=p90,
                staleness_max=pmax,
            )
        )

    record(0, 0, None)
    for step in range(cfg.epochs * steps_per_epoch):
        epoch = step // steps_per_epoch
        try:
            if mode == MODE_DENSE:
                outcome = baseline_dense_step(state, cfg, step, epoch, task=task, topo=topo)
            elif mode == MODE_COMPRESSED:
                outcome = compressed_step(
                    state, policy, mask_cfg, cfg, step, epoch, task=task, topo=topo
                )
            else:
                outcome = dgc_contrast_step(
                    state, policy, cfg, step, epoch, task=task, topo=topo
                )
        except InputError as exc:
            raise DivergenceError(f"{exc} at step {step + 1} (epoch {epoch})") from exc
        record(step + 1, epoch, outcome)
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
            writer.writerow([_format_cell(getattr(m, name)) for name in METRICS_CSV_HEADER])
