"""Deterministic desk-scale simulator for threshold-pruned gradient exchange
over ring all-reduce: importance scoring, shared-mask agreement, sparse
reduction, residual accumulation, and per-link bandwidth accounting."""

from .codec import (
    INDEX_BYTES,
    VALUE_BYTES,
    BitMask,
    SparseGradient,
    decode_mask,
    encode_mask,
    encoded_size,
    or_masks,
    split_by_mask,
)
from .errors import (
    CodecError,
    ConfigError,
    DivergenceError,
    InputError,
    RingPruneError,
    StructuralError,
)
from .importance import (
    EpochSchedule,
    ThresholdPolicy,
    build_local_mask,
    compute_importance,
    thresholds_for,
)
from .layout import LayerLayout
from .ring import (
    LinkStats,
    MaskAgreementConfig,
    RingTopology,
    dense_allreduce,
    mask_agreement_round,
    naive_sparse_allreduce,
    select_broadcast_nodes,
    sparse_allreduce,
    write_bandwidth_csv,
)
from .seeds import substream
from .tasks import LinearRegressionTask, MlpClassificationTask
from .trainer import (
    MODE_COMPRESSED,
    MODE_DENSE,
    MODE_DGC_CONTRAST,
    RunResult,
    StepMetrics,
    TrainingConfig,
    TrainState,
    baseline_dense_step,
    clip_gradient,
    compressed_step,
    init_state,
    run_experiment,
    write_metrics_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BitMask",
    "CodecError",
    "ConfigError",
    "DivergenceError",
    "EpochSchedule",
    "INDEX_BYTES",
    "InputError",
    "LayerLayout",
    "LinearRegressionTask",
    "LinkStats",
    "MaskAgreementConfig",
    "MlpClassificationTask",
    "MODE_COMPRESSED",
    "MODE_DENSE",
    "MODE_DGC_CONTRAST",
    "RingPruneError",
    "RingTopology",
    "RunResult",
    "SparseGradient",
    "StepMetrics",
    "StructuralError",
    "ThresholdPolicy",
    "TrainingConfig",
    "TrainState",
    "VALUE_BYTES",
    "baseline_dense_step",
    "build_local_mask",
    "clip_gradient",
    "compressed_step",
    "compute_importance",
    "decode_mask",
    "dense_allreduce",
    "encode_mask",
    "encoded_size",
    "init_state",
    "mask_agreement_round",
    "naive_sparse_allreduce",
    "or_masks",
    "run_experiment",
    "select_broadcast_nodes",
    "sparse_allreduce",
    "split_by_mask",
    "substream",
    "thresholds_for",
    "write_bandwidth_csv",
    "write_metrics_csv",
]
