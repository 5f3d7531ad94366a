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
from .tasks import TASK_KINDS, SyntheticTask
from .trainer import MODES, TrainingConfig

MANIFEST_FORMAT = "ringprune-run-manifest"
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.csv"
BANDWIDTH_NAME = "bandwidth.csv"

# The only defaults that are not the dataclass's own: the threshold rule's
# base and ratio_weight have no dataclass default, and the config's
# shared_seed default differs from MaskAgreementConfig's.
_CONFIG_DEFAULTS = {
    ThresholdPolicy: {"base": 0.01, "ratio_weight": 0.0},
    MaskAgreementConfig: {"shared_seed": 1234},
}

_SEED_FIELDS = ("seed", "data_seed", "shared_seed")

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


def _expect_number(value, path: str):
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


_PARSERS = {
    "int": _expect_int,
    "float": lambda value, path: float(_expect_number(value, path)),
    "EpochSchedule": _parse_schedule,
}


def _parse_field(f, value, path: str):
    """``value`` parsed by the annotation of dataclass field ``f``."""
    annotation = f.type
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if f.name in _SEED_FIELDS:
        return _expect_seed(value, path)
    return _PARSERS[annotation](value, path)


def _build(cls, section: dict, path: str):
    """Dataclass ``cls`` from a config section.

    The dataclass declares each field: its name, the annotation its value is
    parsed by, and the default an absent key takes unless
    ``_CONFIG_DEFAULTS`` names another. Range checks are left to the
    dataclass's ``__post_init__``.
    """
    declared = fields(cls)
    _reject_unknown(section, [f.name for f in declared], path)
    defaults = _CONFIG_DEFAULTS.get(cls, {})
    values = {}
    for f in declared:
        value = section.get(f.name, defaults.get(f.name, f.default))
        values[f.name] = _parse_field(f, value, f"{path}.{f.name}")
    return cls(**values)


def _manifest_fields(obj) -> dict:
    """Field name -> JSON value of a built config object; a schedule is
    written as its list of spans (end null means open-ended)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, EpochSchedule):
            value = [
                {"start": start, "end": None if end == SCHEDULE_OPEN_END else end, "value": val}
                for start, end, val in value.spans
            ]
        out[f.name] = value
    return out


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
    task_section = {k: v for k, v in task_section.items() if k != "kind"}
    task = _build(TASK_KINDS[kind], task_section, "task")
    training_section = _section(raw, "training")
    if seed_override is not None:
        training_section = {**training_section, "seed": seed_override}
    training = _build(TrainingConfig, training_section, "training")
    policy = _build(ThresholdPolicy, _section(raw, "threshold"), "threshold")
    mask_cfg = _build(MaskAgreementConfig, _section(raw, "mask_agreement"), "mask_agreement")

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
        "task": {"kind": kind, **_manifest_fields(task)},
        "training": _manifest_fields(training),
        "threshold": _manifest_fields(policy),
        "mask_agreement": _manifest_fields(mask_cfg),
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
