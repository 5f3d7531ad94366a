"""Each benchmark correctness check passes on a real run and fails on a
tampered one.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "task": {
        "kind": "mlp_classification_synthetic",
        "n_samples": 128,
        "n_features": 6,
        "hidden_units": 8,
        "data_seed": 3,
    },
    "training": {"batch_size": 4, "n_nodes": 4, "seed": 3, "epochs": 3, "learning_rate": 0.1},
    "threshold": {"base": 0.2, "warmup_epochs": 1},
    "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 3},
}


def tiny_run(tmp_path, mode, traced=False):
    out = tmp_path / f"{mode}{'-traced' if traced else ''}"
    return (
        child.run_once(dict(TINY, mode=mode), out, traced, time.perf_counter()),
        out,
    )


@pytest.fixture(scope="module")
def pruned(tmp_path_factory):
    return tiny_run(tmp_path_factory.mktemp("pruned"), "compressed")


@pytest.mark.parametrize("mode", ["compressed", "dense"])
def test_real_runs_pass_and_tracing_keeps_outputs(tmp_path, mode):
    (plain, _, _), _ = tiny_run(tmp_path, mode)
    (traced, _, _), _ = tiny_run(tmp_path, mode, traced=True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert run.tally([dict(plain, seed=3), dict(traced, seed=3)]) == (2, 0)


def test_changed_byte_in_bandwidth_csv_fails(pruned, tmp_path):
    (report, _, _), out = pruned
    tampered = tmp_path / "bandwidth.csv"
    text = (out / "bandwidth.csv").read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    digit = last[-1]
    assert digit.isdigit()
    tampered.write_text(text[: text.rindex(last)] + last[:-1] + str((int(digit) + 1) % 10) + "\n")
    assert checks.check_bandwidth_total(out / "bandwidth.csv", report["wire_bytes"]) == []
    assert checks.check_bandwidth_total(tampered, report["wire_bytes"])


def test_dropped_message_record_fails(pruned):
    (report, result, _), _ = pruned
    records = list(result.stats.records)
    n_steps = report["steps"]
    assert checks.check_reduce_messages(records, 4, n_steps) == []
    i = next(i for i, r in enumerate(records) if r[2] in checks.REDUCE_PHASES)
    dropped = records[:i] + records[i + 1:]
    assert checks.check_reduce_messages(dropped, 4, n_steps)


def test_mismatched_digest_fails(pruned):
    (report, _, _), _ = pruned
    changed = dict(report["digest"], **{"metrics.csv": "0" * 64})
    other = dict(report, seed=3, digest=changed, failures=[])
    runs = [dict(report, seed=3, failures=[]), other, dict(report, seed=3, failures=[])]
    assert run.tally(runs) == (3, 1)
    assert other["failures"]
    # runs of another seed are compared only with each other
    runs = [dict(report, seed=3, failures=[]), dict(report, seed=4, digest=changed, failures=[])]
    assert run.tally(runs) == (2, 0)


def test_failed_child_counts_as_failed():
    assert run.tally([{"seed": 3, "traced": False, "failures": ["run exited with code 1: boom"]}]) == (1, 1)


def test_dense_total_off_analytic_fails(tmp_path):
    (report, _, _), _ = tiny_run(tmp_path, "dense")
    n_steps, wire = report["steps"], report["wire_bytes"]
    padded = 6 * 8 + 8 + 8 * 4 + 4
    assert checks.check_dense_bytes(wire, 4, padded, n_steps) == []
    assert checks.check_dense_bytes(wire + 4, 4, padded, n_steps)


def test_sparsity_checks_fail(pruned):
    (_, _, log), _ = pruned
    steps = log.steps
    assert checks.check_sparsity(steps) == []
    first_pruned = next(i for i, s in enumerate(steps) if not s["warmup"])
    dense_step = [dict(s) for s in steps]
    dense_step[first_pruned]["shared_popcount"] = dense_step[first_pruned]["length"]
    assert checks.check_sparsity(dense_step)
    densified = [dict(s) for s in steps]
    densified[first_pruned]["support_ok"] = False
    assert checks.check_sparsity(densified)
    assert checks.check_sparsity([s for s in steps if s["warmup"]])


def test_nonfinite_loss_fails():
    assert checks.check_final_loss(0.5) == []
    assert checks.check_final_loss(math.nan)
    assert checks.check_final_loss(math.inf)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["s"] - totals["inner"]["s"]
    )
    assert totals["outer"]["self_s"] < totals["inner"]["s"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense64", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
