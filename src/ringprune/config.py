"""Experiment configuration: strict parsing, defaults, and run manifests.

A config file is a single JSON document with sections ``task``, ``training``,
``threshold``, ``mask_agreement``, plus ``mode`` and ``out_dir``. Unknown
keys anywhere are rejected with the offending path in the message. Resolving
a config materialises every default, and the resolved form is written next
to the run's CSVs as ``manifest.json``; feeding a manifest back to ``run``
reproduces the CSVs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .importance import SCHEDULE_OPEN_END, EpochSchedule, ThresholdPolicy
from .ring import MaskAgreementConfig
from .tasks import TASK_KINDS, SyntheticTask, make_task
from .trainer import MODES, TrainingConfig

MANIFEST_FORMAT = "ringprune-run-manifest"
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.csv"
BANDWIDTH_NAME = "bandwidth.csv"


def _dataclass_defaults(cls) -> dict:
    """Field name -> default of a dataclass whose fields all have defaults."""
    return {f.name: f.default for f in fields(cls)}


_TASK_DEFAULTS = {kind: _dataclass_defaults(cls) for kind, cls in TASK_KINDS.items()}

_TRAINING_DEFAULTS = _dataclass_defaults(TrainingConfig)

# The threshold rule's base and ratio_weight have no dataclass default, and
# the config's shared_seed default differs from MaskAgreementConfig's.
_THRESHOLD_DEFAULTS = {
    "base": 0.01,
    "ratio_weight": 0.0,
    "ratio_pivot": 1.0,
    "thr_min": 1e-6,
    "thr_max": 1.0,
    "warmup_epochs": 1,
    "scale": 1.0,
}

_MASK_DEFAULTS = {
    "n_selected_nodes": 2,
    "shared_seed": 1234,
}

_TOP_LEVEL_KEYS = ("task", "training", "threshold", "mask_agreement", "mode", "out_dir")


@dataclass
class Experiment:
    """A fully validated, fully resolved experiment."""

    task: SyntheticTask
    training: TrainingConfig
    policy: ThresholdPolicy
    mask_cfg: MaskAgreementConfig
    mode: str
    out_dir: str
    resolved: dict


def _reject_unknown(section: dict, allowed, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key '{key}'")


def _section(raw: dict, name: str) -> dict:
    """The top-level section ``name``; an absent section is empty."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {section!r}")
    return section


def _merge_defaults(section: dict, defaults: dict, path: str) -> dict:
    _reject_unknown(section, defaults, path)
    merged = dict(defaults)
    merged.update(section)
    return merged


def _expect_number(value, path: str, *, allow_none: bool = False):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return value


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _expect_seed(value, path: str) -> int:
    """A seed keys numpy's SeedSequence, which takes non-negative integers."""
    if _expect_int(value, path) < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {value!r}")
    return value


def _parse_schedule(value, path: str) -> EpochSchedule:
    """A schedule is either a constant or a list of {start, end, value} spans
    (end null means open-ended)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [{"start": 0, "end": None, "value": value}]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a number or a non-empty list of spans")
    spans = []
    for i, span in enumerate(value):
        if not isinstance(span, dict):
            raise ConfigError(f"{path}[{i}]: expected an object with start/end/value")
        _reject_unknown(span, ("start", "end", "value"), f"{path}[{i}]")
        if "start" not in span or "value" not in span:
            raise ConfigError(f"{path}[{i}]: 'start' and 'value' are required")
        start = _expect_int(span["start"], f"{path}[{i}].start")
        end_raw = span.get("end")
        end = SCHEDULE_OPEN_END if end_raw is None else _expect_int(end_raw, f"{path}[{i}].end")
        val = float(_expect_number(span["value"], f"{path}[{i}].value"))
        spans.append((start, end, val))
    try:
        return EpochSchedule(tuple(spans))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _schedule_json(schedule: EpochSchedule | None):
    if schedule is None:
        return None
    spans = []
    for start, end, value in schedule.spans:
        spans.append(
            {
                "start": start,
                "end": None if end == SCHEDULE_OPEN_END else end,
                "value": value,
            }
        )
    return spans


def resolve_experiment(
    raw: dict,
    *,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> Experiment:
    """Validate a raw config dict and materialise every default."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("format") == MANIFEST_FORMAT:
        # A run manifest wraps the resolved config; unwrap and re-resolve.
        _reject_unknown(raw, ("format", "version", "experiment"), "manifest")
        raw = raw.get("experiment")
        if not isinstance(raw, dict):
            raise ConfigError("manifest: missing 'experiment' section")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "config")

    task_section = _section(raw, "task")
    if "kind" not in task_section:
        raise ConfigError("task: section with a 'kind' field is required")
    kind = task_section["kind"]
    if not isinstance(kind, str):
        raise ConfigError(f"task.kind: expected a string, got {kind!r}")
    if kind not in TASK_KINDS:
        raise ConfigError(
            f"task.kind: unknown kind '{kind}'; expected one of {sorted(TASK_KINDS)}"
        )
    task_fields = _merge_defaults(
        {k: v for k, v in task_section.items() if k != "kind"},
        _TASK_DEFAULTS[kind],
        "task",
    )
    _expect_seed(task_fields["data_seed"], "task.data_seed")
    task = make_task(kind, **task_fields)

    training_section = _merge_defaults(
        _section(raw, "training"), _TRAINING_DEFAULTS, "training"
    )
    lr_schedule = training_section["lr_schedule"]
    schedule_obj = (
        None if lr_schedule is None else _parse_schedule(lr_schedule, "training.lr_schedule")
    )
    training = TrainingConfig(
        momentum=float(_expect_number(training_section["momentum"], "training.momentum")),
        learning_rate=float(
            _expect_number(training_section["learning_rate"], "training.learning_rate")
        ),
        lr_schedule=schedule_obj,
        batch_size=_expect_int(training_section["batch_size"], "training.batch_size"),
        n_nodes=_expect_int(training_section["n_nodes"], "training.n_nodes"),
        clip_norm=_expect_number(
            training_section["clip_norm"], "training.clip_norm", allow_none=True
        ),
        seed=_expect_seed(
            seed_override if seed_override is not None else training_section["seed"],
            "training.seed",
        ),
        epochs=_expect_int(training_section["epochs"], "training.epochs"),
    )

    threshold_section = _merge_defaults(
        _section(raw, "threshold"), _THRESHOLD_DEFAULTS, "threshold"
    )
    policy = ThresholdPolicy(
        base=_parse_schedule(threshold_section["base"], "threshold.base"),
        ratio_weight=_parse_schedule(
            threshold_section["ratio_weight"], "threshold.ratio_weight"
        ),
        ratio_pivot=float(
            _expect_number(threshold_section["ratio_pivot"], "threshold.ratio_pivot")
        ),
        thr_min=float(_expect_number(threshold_section["thr_min"], "threshold.thr_min")),
        thr_max=float(_expect_number(threshold_section["thr_max"], "threshold.thr_max")),
        warmup_epochs=_expect_int(
            threshold_section["warmup_epochs"], "threshold.warmup_epochs"
        ),
        scale=float(_expect_number(threshold_section["scale"], "threshold.scale")),
    )

    mask_section = _merge_defaults(
        _section(raw, "mask_agreement"), _MASK_DEFAULTS, "mask_agreement"
    )
    mask_cfg = MaskAgreementConfig(
        n_selected_nodes=_expect_int(
            mask_section["n_selected_nodes"], "mask_agreement.n_selected_nodes"
        ),
        shared_seed=_expect_seed(mask_section["shared_seed"], "mask_agreement.shared_seed"),
    )
    if task.n_samples < training.n_nodes:
        raise ConfigError(
            f"task.n_samples: {task.n_samples} is below training.n_nodes {training.n_nodes}, "
            "which would leave a node without samples"
        )
    if mask_cfg.n_selected_nodes > training.n_nodes:
        raise ConfigError(
            f"mask_agreement.n_selected_nodes: {mask_cfg.n_selected_nodes} exceeds "
            f"training.n_nodes {training.n_nodes}"
        )

    mode = raw.get("mode", "compressed")
    if mode not in MODES:
        raise ConfigError(f"mode: unknown mode '{mode}'; expected one of {MODES}")

    last_epoch = max(training.epochs - 1, 0)
    if training.epochs > 0 and mode in ("compressed", "dgc_contrast"):
        if not policy.base.covers(0, last_epoch):
            raise ConfigError(
                f"threshold.base: schedule does not cover epochs 0..{last_epoch}"
            )
        if not policy.ratio_weight.covers(0, last_epoch):
            raise ConfigError(
                f"threshold.ratio_weight: schedule does not cover epochs 0..{last_epoch}"
            )
    if training.epochs > 0 and training.lr_schedule is not None:
        if not training.lr_schedule.covers(0, last_epoch):
            raise ConfigError(
                f"training.lr_schedule: schedule does not cover epochs 0..{last_epoch}"
            )

    out_dir = out_override if out_override is not None else raw.get("out_dir", "run_output")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir: expected a non-empty string")

    resolved = {
        "task": {"kind": kind, **task_fields},
        "training": {
            "momentum": training.momentum,
            "learning_rate": training.learning_rate,
            "lr_schedule": _schedule_json(training.lr_schedule),
            "batch_size": training.batch_size,
            "n_nodes": training.n_nodes,
            "clip_norm": training.clip_norm,
            "seed": training.seed,
            "epochs": training.epochs,
        },
        "threshold": {
            "base": _schedule_json(policy.base),
            "ratio_weight": _schedule_json(policy.ratio_weight),
            "ratio_pivot": policy.ratio_pivot,
            "thr_min": policy.thr_min,
            "thr_max": policy.thr_max,
            "warmup_epochs": policy.warmup_epochs,
            "scale": policy.scale,
        },
        "mask_agreement": {
            "n_selected_nodes": mask_cfg.n_selected_nodes,
            "shared_seed": mask_cfg.shared_seed,
        },
        "mode": mode,
        "out_dir": out_dir,
    }
    return Experiment(
        task=task,
        training=training,
        policy=policy,
        mask_cfg=mask_cfg,
        mode=mode,
        out_dir=out_dir,
        resolved=resolved,
    )


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def manifest_json(experiment: Experiment) -> str:
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "experiment": experiment.resolved,
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def write_manifest(experiment: Experiment, path) -> None:
    Path(path).write_text(manifest_json(experiment))
