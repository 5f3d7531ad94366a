import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringprune.cli import main
from ringprune.config import resolve_experiment
from ringprune.errors import ConfigError


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
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
# dgc_contrast run.
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
}


def test_artifacts_match_pinned_digests(tmp_path):
    """metrics.csv and bandwidth.csv are byte-identical to pinned runs.

    The digests were recorded with the per-node scoring loop that the
    lock-step pass replaced, on Python 3.11.7 with numpy 2.4.6; a refactor
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


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("training", {"turbo": True}, "training: unknown key 'turbo'"),
        ("training", 5, "training: expected a JSON object"),
        ("training", [], "training: expected a JSON object"),
        ("threshold", "abc", "threshold: expected a JSON object"),
        ("mask_agreement", None, "mask_agreement: expected a JSON object"),
        ("task", {"kind": ["x"]}, "task.kind: expected a string"),
    ],
    ids=["unknown-key", "int", "list", "string", "null", "list-kind"],
)
def test_run_rejects_unknown_key(tmp_path, capsys, section, value, message):
    # A dict value is merged into the section, anything else replaces it.
    cfg = minimal_config(tmp_path / "run")
    if isinstance(value, dict):
        cfg[section].update(value)
    else:
        cfg[section] = value
    config = write_config(tmp_path, cfg)
    assert main(["run", str(config), "--quiet"]) == 2
    assert message in capsys.readouterr().err


def test_run_rejects_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 2


def test_run_exit_3_on_divergence(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run", learning_rate=1e6, epochs=30)
    cfg["mode"] = "dense"
    config = write_config(tmp_path, cfg)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run", str(config), "--quiet"]) == 3
    assert "diverged" in capsys.readouterr().err


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
            "learning_rate": 0.5,
            "lr_schedule": [
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


# --- config resolution details ------------------------------------------------------


def test_resolver_fills_defaults_and_roundtrips():
    raw = {"task": {"kind": "linear_regression_synthetic"}, "mode": "dense"}
    experiment = resolve_experiment(raw)
    resolved = experiment.resolved
    assert resolved["training"]["n_nodes"] == 4
    assert resolved["threshold"]["warmup_epochs"] == 1
    # Resolving the resolved form is a fixed point.
    again = resolve_experiment(json.loads(json.dumps(resolved)))
    assert again.resolved == resolved


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
        "training": {"epochs": 6},
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
