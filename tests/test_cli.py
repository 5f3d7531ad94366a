import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ringprune.cli import main
from ringprune.config import BANDWIDTH_NAME, METRICS_NAME, resolve_experiment
from ringprune.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]


def minimal_config(out_dir, mode="compressed", **training):
    cfg = {
        "task": {"kind": "linear_regression_synthetic", "n_samples": 32},
        "training": {
            "momentum": 0.9,
            "learning_rate": 0.02,
            "batch_size": 4,
            "n_nodes": 2,
            "seed": 7,
            "epochs": 2,
            **training,
        },
        "threshold": {"base": 0.05, "warmup_epochs": 1},
        "mask_agreement": {"n_selected_nodes": 1, "shared_seed": 5},
        "mode": mode,
        "out_dir": str(out_dir),
    }
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_bytes(run_dir):
    return (
        (Path(run_dir) / "metrics.csv").read_bytes(),
        (Path(run_dir) / "bandwidth.csv").read_bytes(),
    )


def test_run_writes_three_files(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path, minimal_config(out))
    assert main(["run", str(config), "--quiet"]) == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "bandwidth.csv").is_file()
    assert (out / "manifest.json").is_file()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["step"] == "0"
    assert rows[-1]["mode"] == "compressed"


def test_module_entry_point_runs_from_checkout(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path, minimal_config(out))
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "ringprune", "run", str(config), "--quiet"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (out / "metrics.csv").is_file()


# Two short runs that go through every branch of the pruned pipeline: a
# compressed run at N = 64 whose layer-wise thresholds (ratio_weight > 0) fall
# on both sides of ratio_pivot and clamp at thr_max, and a clipped
# dgc_contrast run. A third, clipped dense run at N = 6 (not a power of two)
# covers the baseline's momentum velocity. The next three are the benchmark's
# ring64-pruned, wide4-pruned and dense64 configs at run seed 16, written out
# here so that the pins do not move with the benchmark's workload definitions.
# The last is a compressed run whose learning rate drops when warm-up ends.
PINNED_RUNS = {
    "compressed64": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 1024,
                "n_features": 8,
                "hidden_units": 12,
                "n_classes": 3,
                "data_seed": 5,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 4,
                "n_nodes": 64,
                "seed": 11,
                "epochs": 4,
            },
            "threshold": {
                "base": 0.02,
                "ratio_weight": 0.01,
                "ratio_pivot": 1.0,
                "warmup_epochs": 1,
                "thr_max": 0.3,
            },
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 3},
            "mode": "compressed",
        },
        "44839d46dbc5365d355d6c1d7bb6308ef30b0cd2c4cbb65b074817ca21c817af",
        "737d4e403cee79cfbe33c6f20e1322af8ce3a5a2599d13d388d6f381befdb4bd",
    ),
    "dgc_contrast8": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 512,
                "n_features": 8,
                "hidden_units": 12,
                "n_classes": 3,
                "data_seed": 6,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 8,
                "n_nodes": 8,
                "seed": 12,
                "epochs": 5,
                "clip_norm": 0.5,
            },
            "threshold": {"base": 0.02, "warmup_epochs": 1, "ratio_weight": 0.005},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 4},
            "mode": "dgc_contrast",
        },
        "26d03370b06c26d3c7fb979f43311fcda3bf00f37c17bceacf33a1391674b22e",
        "75f9bdcc4c8b5baf84cc52953bb743ec3518dff29bc4fc61b0141c8fe6e19b93",
    ),
    "dense6": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 480,
                "n_features": 8,
                "hidden_units": 12,
                "n_classes": 3,
                "data_seed": 7,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 4,
                "n_nodes": 6,
                "seed": 13,
                "epochs": 4,
                "clip_norm": 0.3,
            },
            "threshold": {"base": 0.02, "warmup_epochs": 1},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 5},
            "mode": "dense",
        },
        "aa5c3c82aaded69ce3a791131ef2288d98effd506b354c4446b471606f4a8d38",
        "670d54e54d1ecd99108aea0c0b562f45528a8b580e0e6857223b783f9b82c4f6",
    ),
    "ring64-pruned": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 2048,
                "n_classes": 4,
                "n_features": 20,
                "hidden_units": 48,
                "data_seed": 16,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 8,
                "n_nodes": 64,
                "seed": 16,
                "epochs": 8,
            },
            "threshold": {"base": 0.01, "warmup_epochs": 1},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 16},
            "mode": "compressed",
        },
        "e00989bbe8939fabda1df205dc43f3bee8ec37268f134cac5a512309323fdb37",
        "8fe71fd7a56ebbcf59cc62d0b3c551ad5a10e4b9f17d32d8e217e0199a715376",
    ),
    "wide4-pruned": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 2048,
                "n_classes": 4,
                "n_features": 64,
                "hidden_units": 1024,
                "data_seed": 16,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 64,
                "n_nodes": 4,
                "seed": 16,
                "epochs": 4,
            },
            "threshold": {"base": 0.01, "warmup_epochs": 1},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 16},
            "mode": "compressed",
        },
        "023ee6e4fdc389344e2cb9f97e1fb4f81704de99eebe1a44fc00643d2c380c8e",
        "21ff28428ee2df2b589b56b1c35b31f3deb7d621fc4950af868ef623fb1cd73d",
    ),
    "dense64": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 2048,
                "n_classes": 4,
                "n_features": 20,
                "hidden_units": 48,
                "data_seed": 16,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": 0.1,
                "batch_size": 8,
                "n_nodes": 64,
                "seed": 16,
                "epochs": 8,
            },
            "threshold": {"base": 0.01, "warmup_epochs": 1},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 16},
            "mode": "dense",
        },
        "53cb9d74df3c65eb41e5b3497fab7d5452cee81f41965de9f2545ba4022cbc16",
        "594215685a362a2689fcc46b8f32b05a3bc9a15a8d913a2bf945bc91c7aba47c",
    ),
    "scheduled-lr4": (
        {
            "task": {
                "kind": "mlp_classification_synthetic",
                "n_samples": 512,
                "n_features": 8,
                "hidden_units": 12,
                "n_classes": 3,
                "data_seed": 8,
            },
            "training": {
                "momentum": 0.9,
                "learning_rate": [
                    {"start": 0, "end": 2, "value": 0.2},
                    {"start": 2, "end": None, "value": 0.03},
                ],
                "batch_size": 8,
                "n_nodes": 4,
                "seed": 14,
                "epochs": 5,
            },
            "threshold": {"base": 0.1, "warmup_epochs": 2},
            "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 6},
            "mode": "compressed",
        },
        "898e48d9d7d39e8f063a41af2a65203f7a6a1248e5f4a7c94674c35225cb90cc",
        "2c33a874c981d83306c1e8328c049873be273312a7965d5a159bc1122bb3d81e",
    ),
}


def test_artifacts_match_pinned_digests(tmp_path):
    """metrics.csv and bandwidth.csv are byte-identical to pinned runs.

    The pruned digests were recorded with the per-node scoring loop that
    the lock-step pass replaced, and the dense one with the velocity held
    in row 0 of an (N, P) buffer, on Python 3.11.7 with numpy 2.4.6; a refactor
    that shifts one ulp or one draw changes them. Another numpy version may
    legitimately change them too (its reductions or generator can round
    differently): re-record them then, from the code before the change.
    """
    for name, (raw, metrics_sha, bandwidth_sha) in PINNED_RUNS.items():
        config = write_config(tmp_path, raw, name=f"{name}.json")
        out = tmp_path / name
        assert main(["run", str(config), "--out", str(out), "--quiet"]) == 0
        digests = [hashlib.sha256(data).hexdigest() for data in read_bytes(out)]
        assert digests == [metrics_sha, bandwidth_sha], name


def test_run_rejects_negative_learning_rate(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run", learning_rate=-0.5)
    config = write_config(tmp_path, cfg)
    assert main(["run", str(config), "--quiet"]) == 2
    assert "training.learning_rate" in capsys.readouterr().err


NAN = float("nan")
INF = float("inf")
MLP = "mlp_classification_synthetic"


@pytest.mark.parametrize(
    "section, value, message, flags",
    [
        ("training", {"turbo": True}, "training: unknown key 'turbo'", []),
        ("training", 5, "training: expected a JSON object", []),
        ("training", [], "training: expected a JSON object", []),
        ("threshold", "abc", "threshold: expected a JSON object", []),
        ("mask_agreement", None, "mask_agreement: expected a JSON object", []),
        ("task", {"kind": ["x"]}, "task.kind: expected a string", []),
        ("task", {"data_seed": -1}, "task.data_seed: expected a non-negative integer", []),
        ("training", {"seed": -1}, "training.seed: expected a non-negative integer", []),
        (
            "mask_agreement",
            {"shared_seed": -1},
            "mask_agreement.shared_seed: expected a non-negative integer",
            [],
        ),
        ("training", {}, "training.seed: expected a non-negative integer", ["--seed", "-1"]),
        ("task", {"kind": MLP, "hidden_units": 0}, "hidden_units >= 1", []),
        ("task", {"kind": MLP, "n_features": 0}, "n_features >= 1", []),
        ("task", {"kind": MLP, "n_samples": 0}, "n_samples >= 1", []),
        (
            "task",
            {"n_samples": 1},
            "task.n_samples: 1 is below training.n_nodes 2, which would leave a node",
            [],
        ),
        ("task", {"kind": MLP, "center_scale": NAN}, "center_scale must be finite, got nan", []),
        ("task", {"kind": MLP, "center_scale": -INF}, "center_scale must be finite, got -inf", []),
        ("task", {"noise": NAN}, "noise must be finite, got nan", []),
        ("task", {"noise": INF}, "noise must be finite, got inf", []),
        (
            "training",
            {"learning_rate": NAN},
            "training.learning_rate: schedule value must be a number",
            [],
        ),
        (
            "training",
            {"learning_rate": INF},
            "training.learning_rate must be finite and >= 0, got inf",
            [],
        ),
        ("training", {"clip_norm": NAN}, "training.clip_norm must be > 0", []),
        ("threshold", {"ratio_pivot": NAN}, "ratio_pivot must be > 0", []),
        ("threshold", {"thr_min": NAN}, "thr_min must be > 0", []),
        ("threshold", {"thr_max": NAN}, "exceeds thr_max nan", []),
        ("threshold", {"scale": 1.0}, "threshold: unknown key 'scale'", []),
        ("threshold", {"base": NAN}, "threshold.base: schedule value must be a number", []),
        (
            "threshold",
            {"ratio_weight": [{"start": 0, "value": NAN}]},
            "threshold.ratio_weight: schedule value must be a number",
            [],
        ),
        # inf x the one-entry intercept layer's zero dispersion would be NaN
        ("threshold", {"ratio_weight": INF}, "threshold.ratio_weight must be finite, got inf", []),
        (
            "threshold",
            {"ratio_weight": [{"start": 0, "value": -INF}]},
            "threshold.ratio_weight must be finite, got -inf",
            [],
        ),
        (
            "training",
            {"learning_rate": [{"start": 0, "value": NAN}]},
            "training.learning_rate: schedule value must be a number",
            [],
        ),
        (
            "training",
            {"learning_rate": -0.05},
            "training.learning_rate must be finite and >= 0, got -0.05",
            [],
        ),
        (
            "training",
            {"learning_rate": [{"start": 0, "end": 1, "value": 0.1}, {"start": 1, "value": INF}]},
            "training.learning_rate must be finite and >= 0, got inf",
            [],
        ),
        ("training", {"lr_schedule": 0.05}, "training: unknown key 'lr_schedule'", []),
        ("task", {"n_samples": "12"}, "task.n_samples: expected an integer", []),
        ("task", {"n_samples": None}, "task.n_samples: expected an integer", []),
        ("task", {"kind": MLP, "hidden_units": 2.5}, "task.hidden_units: expected an integer", []),
        ("task", {"kind": MLP, "n_classes": "3"}, "task.n_classes: expected an integer", []),
        ("task", {"kind": MLP, "center_scale": "3"}, "task.center_scale: expected a number", []),
        ("task", {"kind": "resnet"}, "task.kind: unknown kind 'resnet'", []),
        (
            "training",
            {"momentum": 10**400},
            "training.momentum: number too large for a float",
            [],
        ),
        (
            "threshold",
            {"base": 10**400},
            "threshold.base[0].value: number too large for a float",
            [],
        ),
    ],
    ids=[
        "unknown-key",
        "int",
        "list",
        "string",
        "null",
        "list-kind",
        "negative-data-seed",
        "negative-training-seed",
        "negative-shared-seed",
        "negative-seed-flag",
        "zero-hidden-units",
        "zero-features",
        "zero-mlp-samples",
        "fewer-samples-than-nodes",
        "nan-center-scale",
        "inf-center-scale",
        "nan-noise",
        "inf-noise",
        "nan-learning-rate",
        "inf-learning-rate",
        "nan-clip-norm",
        "nan-ratio-pivot",
        "nan-thr-min",
        "nan-thr-max",
        "removed-scale-key",
        "nan-base",
        "nan-ratio-weight-span",
        "inf-ratio-weight",
        "neg-inf-ratio-weight-span",
        "nan-learning-rate-span",
        "negative-learning-rate",
        "inf-learning-rate-span",
        "removed-lr-schedule-key",
        "string-n-samples",
        "null-n-samples",
        "float-hidden-units",
        "string-n-classes",
        "string-center-scale",
        "unknown-kind",
        "huge-int-momentum",
        "huge-int-base",
    ],
)
def test_run_rejects_unknown_key(tmp_path, capsys, section, value, message, flags):
    # A dict value is merged into the section, anything else replaces it.
    # json writes NaN as the bare token NaN, which json.loads reads back.
    cfg = minimal_config(tmp_path / "run")
    if isinstance(value, dict):
        cfg[section].update(value)
    else:
        cfg[section] = value
    config = write_config(tmp_path, cfg)
    assert main(["run", str(config), "--quiet", *flags]) == 2
    assert message in capsys.readouterr().err


def test_run_rejects_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        # json.loads raises a plain ValueError past Python's 4,300-digit limit
        ('{"task": {"n_samples": 1' + "0" * 5000 + "}}", "cannot parse config file"),
        ("{" + '"a":[' * 100_000 + "]" * 100_000 + "}", "cannot parse config file"),
        (b"\xff\xfe{}", "cannot read config file"),
    ],
    ids=["huge-int-literal", "deep-nesting", "not-utf8"],
)
def test_run_rejects_unparsable_file(tmp_path, capsys, text, message):
    """A file json.loads cannot turn into values is a config error that
    names the file (exit 2), not a traceback."""
    config = tmp_path / "config.json"
    if isinstance(text, bytes):
        config.write_bytes(text)
    else:
        config.write_text(text)
    assert main(["run", str(config), "--quiet"]) == 2
    assert f"{message} {config}" in capsys.readouterr().err


def test_run_rejects_unwritable_out_before_training(tmp_path, capsys, monkeypatch):
    """An --out that names a regular file is a config error (exit 2) found
    before any step runs."""
    calls = []
    monkeypatch.setattr("ringprune.cli.run_experiment", lambda *args: calls.append(args))
    config = write_config(tmp_path, minimal_config(tmp_path / "run"))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", str(config), "--out", str(taken), "--quiet"]) == 2
    assert f"out_dir: cannot create {taken}" in capsys.readouterr().err
    assert calls == []


def test_run_exit_3_on_divergence(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run", learning_rate=1e6, epochs=30)
    cfg["mode"] = "dense"
    config = write_config(tmp_path, cfg)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", str(config), "--quiet"]) == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("mode", ["compressed", "dgc_contrast"])
def test_run_exit_3_on_non_finite_residual(tmp_path, capsys, mode):
    cfg = minimal_config(tmp_path / "run", mode, epochs=1, batch_size=8)
    # class centres near the float maximum overflow the first gradient
    cfg["task"] = {
        "kind": "mlp_classification_synthetic",
        "n_samples": 64,
        "center_scale": 1.7e308,
    }
    assert main(["run", str(write_config(tmp_path, cfg)), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "run diverged: non-finite gradient" in err and "at step 1 (epoch 0)" in err


def test_identical_configs_produce_identical_csvs(tmp_path):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    assert main(["run", str(config), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


def test_manifest_reproduces_run(tmp_path):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    manifest = tmp_path / "a" / "manifest.json"
    assert main(["run", str(manifest), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert read_bytes(tmp_path / "a") == read_bytes(tmp_path / "b")


def test_seed_override_changes_run(tmp_path):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    assert main(
        ["run", str(config), "--seed", "99", "--out", str(tmp_path / "b"), "--quiet"]
    ) == 0
    assert read_bytes(tmp_path / "a")[0] != read_bytes(tmp_path / "b")[0]
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["experiment"]["training"]["seed"] == 99


def _compare_rows(capsys):
    out = capsys.readouterr().out
    return {row["metric"]: row for row in csv.DictReader(io.StringIO(out))}


def test_compare_run_with_itself(tmp_path, capsys):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    rows = _compare_rows(capsys)
    assert float(rows["final_loss"]["delta"]) == 0.0
    assert float(rows["final_loss"]["ratio"]) == 1.0
    assert float(rows["total_bytes"]["ratio"]) == 1.0


def test_compare_dense_vs_compressed_bytes_ratio(tmp_path, capsys):
    # A run whose sparse phase dominates, so pruning genuinely saves bytes
    # (8-byte coordinate entries cost more than dense values at high density).
    base = {
        "task": {
            "kind": "mlp_classification_synthetic",
            "n_samples": 256,
            "n_features": 10,
            "hidden_units": 12,
            "n_classes": 3,
            "center_scale": 3.0,
            "label_noise": 0.0,
            "data_seed": 77,
        },
        "training": {
            "momentum": 0.0,
            "learning_rate": [
                {"start": 0, "end": 14, "value": 0.5},
                {"start": 14, "end": None, "value": 0.01},
            ],
            "batch_size": 64,
            "n_nodes": 4,
            "seed": 70,
            "epochs": 60,
        },
        "threshold": {"base": 0.05, "warmup_epochs": 14},
        "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 71},
    }
    dense_cfg = dict(base, mode="dense", out_dir=str(tmp_path / "dense"))
    pruned_cfg = dict(base, mode="compressed", out_dir=str(tmp_path / "pruned"))
    assert main(["run", str(write_config(tmp_path, dense_cfg, "d.json")), "--quiet"]) == 0
    assert main(["run", str(write_config(tmp_path, pruned_cfg, "c.json")), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "dense"), str(tmp_path / "pruned")]) == 0
    rows = _compare_rows(capsys)
    assert float(rows["total_bytes"]["ratio"]) > 1.0


def test_compare_bytes_ratio_reconciles_with_payload_accounting(tmp_path, capsys):
    """The dense/compressed bytes ratio from the CSVs, with mask-round bytes
    removed, must match the payload-weighted per-step compression ratio."""
    task = {
        "kind": "mlp_classification_synthetic",
        "n_samples": 256,
        "n_features": 10,
        "hidden_units": 12,
        "n_classes": 3,
        "data_seed": 77,
    }
    training = {
        "momentum": 0.9,
        "learning_rate": 0.05,
        "batch_size": 8,
        "n_nodes": 4,
        "seed": 70,
        "epochs": 4,
    }
    base = {
        "task": task,
        "training": training,
        "threshold": {"base": 0.02, "warmup_epochs": 1},
        "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 71},
    }
    dense_cfg = dict(base, mode="dense", out_dir=str(tmp_path / "dense"))
    pruned_cfg = dict(base, mode="compressed", out_dir=str(tmp_path / "pruned"))
    assert main(["run", str(write_config(tmp_path, dense_cfg, "d.json")), "--quiet"]) == 0
    assert main(["run", str(write_config(tmp_path, pruned_cfg, "c.json")), "--quiet"]) == 0

    def bandwidth_totals(run_dir):
        total = 0
        mask_bytes = 0
        with open(Path(run_dir) / "bandwidth.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                total += int(row["bytes"])
                if row["phase"] == "mask_round":
                    mask_bytes += int(row["bytes"])
        return total, mask_bytes

    dense_total, _ = bandwidth_totals(tmp_path / "dense")
    pruned_total, mask_total = bandwidth_totals(tmp_path / "pruned")
    adjusted_ratio = dense_total / (pruned_total - mask_total)

    with open(tmp_path / "pruned" / "metrics.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["mean_density"]]
    length = 171  # 10*12 + 12 + 12*3 + 3 parameters
    dense_payload = 0.0
    sparse_payload = 0.0
    for row in rows:
        nnz = round(float(row["mean_density"]) * length)
        dense_payload += 4 * length
        sparse_payload += 8 * nnz
    payload_ratio = dense_payload / sparse_payload
    assert adjusted_ratio == pytest.approx(payload_ratio, rel=0.10)


def test_compare_rejects_mismatched_tasks(tmp_path, capsys):
    cfg_a = minimal_config(tmp_path / "a")
    cfg_b = minimal_config(tmp_path / "b")
    cfg_b["task"]["n_samples"] = 64
    assert main(["run", str(write_config(tmp_path, cfg_a, "a.json")), "--quiet"]) == 0
    assert main(["run", str(write_config(tmp_path, cfg_b, "b.json")), "--quiet"]) == 0
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "task specs differ" in capsys.readouterr().err


def test_compare_rejects_unfinished_dir(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["compare", str(tmp_path / "empty"), str(tmp_path / "empty")]) == 2


def _edit_rows(edit):
    """A rewrite of a metrics.csv through ``edit`` on its rows."""

    def rewrite(path):
        with open(path, newline="") as fh:
            rows = edit(list(csv.DictReader(fh)))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    return rewrite


def _drop_bytes_total(rows):
    return [{k: v for k, v in row.items() if k != "bytes_total"} for row in rows]


def _spoil_final_loss(rows):
    rows[-1]["loss"] = "abc"  # the final row, the one the summary reads
    return rows


def _huge_final_loss(rows):
    rows[-1]["loss"] = "1" * 200_000  # past the csv module's field limit
    return rows


def _huge_bytes_total(rows):
    rows[-1]["bytes_total"] = "1" + "0" * 400  # an int, but past float's range
    return rows


def _prefix_utf16_bom(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_rows(_drop_bytes_total), "no 'bytes_total' column"),
        (_edit_rows(_spoil_final_loss), "bad 'loss' cell"),
        (_prefix_utf16_bom, "can't decode byte 0xff"),
        (_edit_rows(_huge_final_loss), "field larger than field limit"),
        (_edit_rows(_huge_bytes_total), "'bytes_total' sums past the float range"),
    ],
    ids=["missing-column", "non-numeric-cell", "not-utf8", "huge-cell", "huge-bytes-total"],
)
def test_compare_rejects_malformed_metrics(tmp_path, capsys, edit, message):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    metrics = tmp_path / "a" / "metrics.csv"
    edit(metrics)
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert str(metrics) in err and message in err


@pytest.mark.parametrize(
    "manifest", ["[1]", '{"format": "x", "experiment": 3}'], ids=["list", "experiment-not-object"]
)
def test_compare_rejects_malformed_manifest(tmp_path, capsys, manifest):
    config = write_config(tmp_path, minimal_config(tmp_path / "a"))
    assert main(["run", str(config), "--quiet"]) == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "manifest.json").write_text(manifest)
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert str(tmp_path / "b" / "manifest.json") in capsys.readouterr().err


# --- config resolution details ------------------------------------------------------


def test_resolver_fills_defaults_and_roundtrips():
    # Each raw config, and the float-typed fields its resolved form must
    # hold as floats (the second writes integers into them).
    cases = [
        ({"task": {"kind": "linear_regression_synthetic"}, "mode": "dense"}, {}),
        (
            {"task": {"kind": MLP, "center_scale": 2}, "training": {"clip_norm": 1}},
            {("task", "center_scale"): 2.0, ("training", "clip_norm"): 1.0},
        ),
    ]
    for raw, floats in cases:
        resolved = resolve_experiment(raw).resolved
        assert resolved["training"]["n_nodes"] == 4
        assert resolved["threshold"]["warmup_epochs"] == 1
        for (section, key), value in floats.items():
            assert resolved[section][key] == value
            assert type(resolved[section][key]) is float
        # Resolving the resolved form is a fixed point.
        again = resolve_experiment(json.loads(json.dumps(resolved)))
        assert again.resolved == resolved


def test_reference_config_lists_the_defaults():
    """configs/reference.json holds every field at its default value."""
    reference = json.loads((REPO_ROOT / "configs" / "reference.json").read_text())
    defaults = resolve_experiment({"task": {"kind": MLP}})
    assert resolve_experiment(reference).resolved == defaults.resolved


def test_digest_list_names_exactly_the_bundled_configs_artifacts():
    """configs/SHA256SUMS, which the CI checks the bundled runs against,
    lists metrics.csv and bandwidth.csv of every configs/*.json and nothing
    else: ``sha256sum -c`` skips a config it has no line for."""
    configs = REPO_ROOT / "configs"
    lines = (configs / "SHA256SUMS").read_text().splitlines()
    listed = [re.fullmatch(r"[0-9a-f]{64}  (\S+)", line) for line in lines]
    assert all(listed), lines
    expected = [
        f"{path.stem}/{name}"
        for path in configs.glob("*.json")
        for name in (METRICS_NAME, BANDWIDTH_NAME)
    ]
    assert sorted(m.group(1) for m in listed) == sorted(expected)


def test_resolver_rejects_schedule_gap():
    raw = {
        "task": {"kind": "linear_regression_synthetic"},
        "training": {"epochs": 10},
        "threshold": {"base": [{"start": 0, "end": 5, "value": 0.01}]},
        "mode": "compressed",
    }
    with pytest.raises(ConfigError, match="threshold.base"):
        resolve_experiment(raw)


def test_resolver_rejects_overselection():
    raw = {
        "task": {"kind": "linear_regression_synthetic"},
        "training": {"n_nodes": 2},
        "mask_agreement": {"n_selected_nodes": 3},
    }
    with pytest.raises(ConfigError, match="n_selected_nodes"):
        resolve_experiment(raw)


def test_resolver_rejects_bad_types():
    raw = {
        "task": {"kind": "linear_regression_synthetic"},
        "training": {"batch_size": "eight"},
    }
    with pytest.raises(ConfigError, match="training.batch_size"):
        resolve_experiment(raw)


def test_resolver_parses_span_schedules():
    raw = {
        "task": {"kind": "mlp_classification_synthetic"},
        "training": {
            "epochs": 6,
            "learning_rate": [
                {"start": 0, "end": 4, "value": 0.2},
                {"start": 4, "end": None, "value": 0.0},
            ],
        },
        "threshold": {
            "base": [
                {"start": 0, "end": 3, "value": 0.01},
                {"start": 3, "end": None, "value": 0.05},
            ]
        },
        "mode": "compressed",
    }
    experiment = resolve_experiment(raw)
    assert experiment.policy.base.value_at(2) == 0.01
    assert experiment.policy.base.value_at(5) == 0.05
    assert experiment.training.learning_rate.value_at(3) == 0.2
    assert experiment.training.learning_rate.value_at(4) == 0.0


def test_resolver_checks_that_schedules_cover_the_run():
    # The learning rate is read in every mode, the threshold schedules only
    # in the pruned modes; a run of 0 epochs reads none of them.
    short = [{"start": 0, "end": 1, "value": 0.1}]
    late = [{"start": 1, "end": None, "value": 0.1}]

    def resolve(mode, epochs=2, training=(), threshold=()):
        return resolve_experiment(
            {
                "task": {"kind": "mlp_classification_synthetic"},
                "training": {"epochs": epochs, **dict(training)},
                "threshold": dict(threshold),
                "mode": mode,
            }
        )

    for mode in ("dense", "compressed", "dgc_contrast"):
        with pytest.raises(ConfigError, match=r"^training.learning_rate: .* epochs 0\.\.1$"):
            resolve(mode, training={"learning_rate": short})
        resolve(mode, epochs=0, training={"learning_rate": late})
    for key in ("base", "ratio_weight"):
        resolve("dense", threshold={key: short})
        for mode in ("compressed", "dgc_contrast"):
            with pytest.raises(ConfigError, match=rf"^threshold.{key}: schedule does not cover"):
                resolve(mode, threshold={key: short})
