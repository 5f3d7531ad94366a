"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone shows the same verdicts through the test names.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ringprune import (
    BitMask,
    CodecError,
    EpochSchedule,
    LayerLayout,
    LinearRegressionTask,
    MaskAgreementConfig,
    MlpClassificationTask,
    RingTopology,
    SparseGradient,
    ThresholdPolicy,
    TrainingConfig,
    baseline_dense_step,
    build_local_mask,
    compressed_step,
    compute_importance,
    decode_mask,
    dense_allreduce,
    encode_mask,
    init_state,
    mask_agreement_round,
    run_experiment,
    select_broadcast_nodes,
    sparse_allreduce,
)
from ringprune.codec import encoded_size
from ringprune.cli import main as cli_main
from ringprune.ring import PHASE_MASK
from ringprune.trainer import MODE_COMPRESSED, MODE_DENSE

from oracles import (
    PresetGradientTask,
    chunk_slice,
    closed_form_weight_change,
    dgc_union_contrast,
    fixed_threshold_policy,
    mean_compression_ratio,
    message_count,
)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {verdict} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_sparsity_preservation():
    length = 100_000
    target = 0.01
    rng = np.random.default_rng(101)
    keep = rng.choice(length, size=int(length * target), replace=False)
    bits = np.zeros(length, dtype=bool)
    bits[keep] = True
    shared_local = BitMask(bits)
    idx = np.flatnonzero(bits)

    failures = []
    for n in (2, 8, 32, 96):
        topo = RingTopology.create(n, length)
        cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=55)
        nodes = select_broadcast_nodes(n, cfg, 0)
        shared, _ = mask_agreement_round([shared_local] * len(nodes), nodes, n, step=0)
        parts = SparseGradient(idx, rng.standard_normal((n, idx.shape[0])), length)
        mean, _ = sparse_allreduce(parts, topo, step=0)
        if shared.density() != target or mean.indices.shape[0] / length != target:
            failures.append(f"N={n}: shared density {mean.indices.shape[0] / length}")

        independent = [BitMask(rng.random(length) < target) for _ in range(n)]
        union_density = dgc_union_contrast(independent, topo)
        expected = 1.0 - (1.0 - target) ** n
        sigma = math.sqrt(expected * (1.0 - expected) / length)
        if abs(union_density - expected) > 3 * sigma:
            failures.append(
                f"N={n}: union density {union_density:.4f} vs {expected:.4f} +-3sigma"
            )
    report(
        1,
        "sparsity preservation",
        not failures,
        failures[0] if failures else "post-reduce density exactly 1% for N in {2,8,32,96}; "
        "independent-mask union tracks 1-0.99^N",
    )


@pytest.mark.parametrize("clip_norm", [None, 0.01])
@pytest.mark.parametrize("n_nodes", [3, 4, 5, 6])
def test_criterion_2_zero_threshold_equivalence(n_nodes, clip_norm):
    task = LinearRegressionTask(n_samples=128, n_features=8, data_seed=202)
    cfg = TrainingConfig(
        momentum=0.0,
        learning_rate=EpochSchedule.constant(0.05),
        batch_size=8,
        n_nodes=n_nodes,
        clip_norm=clip_norm,
        seed=21,
        epochs=50,
    )
    policy = ThresholdPolicy(
        base=EpochSchedule.constant(0.0),
        ratio_weight=EpochSchedule.constant(0.0),
        warmup_epochs=10**9,
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=23)
    topo = RingTopology.create(cfg.n_nodes, task.layout.total_length)
    dense_state = init_state(task, cfg, MODE_DENSE)
    pruned_state = init_state(task, cfg, MODE_COMPRESSED)
    steps = 200
    mismatch = None
    for step in range(steps):
        baseline_dense_step(dense_state, cfg, step, task=task, topo=topo)
        compressed_step(
            pruned_state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        if pruned_state.weights.tobytes() != dense_state.weights.tobytes():
            mismatch = f"trajectories differ at step {step}"
            break
    report(
        2,
        "zero-threshold equivalence",
        mismatch is None,
        mismatch
        or f"{steps} steps bit-identical to the dense baseline (N={n_nodes}, clip_norm={clip_norm})",
    )


def test_criterion_3_closed_form_weight_change():
    rng = np.random.default_rng(303)
    length = 16
    layout = LayerLayout.from_sizes([("w", length)])
    worst = 0.0
    for trial in range(50):
        horizon = int(rng.integers(1, 51))
        momentum = float(rng.choice([0.0, 0.5, 0.9]))
        lr = float(rng.uniform(0.01, 0.2))
        history = [rng.standard_normal(length) for _ in range(horizon)]
        task = PresetGradientTask(
            layout,
            lambda node, step, h=history: h[step] if node == 0 else np.zeros(length),
            rng.standard_normal(length),
        )
        cfg = TrainingConfig(
            momentum=momentum, learning_rate=EpochSchedule.constant(lr), n_nodes=2, seed=trial
        )
        state = init_state(task, cfg, MODE_DENSE)
        topo = RingTopology.create(2, length)
        start = state.weights.copy()
        for step in range(horizon):
            baseline_dense_step(state, cfg, step, task=task, topo=topo)
        iterated = state.weights - start
        predicted = closed_form_weight_change(history, momentum, lr)
        rel = float(
            np.linalg.norm(iterated - predicted) / np.linalg.norm(predicted)
        )
        worst = max(worst, rel)
    report(
        3,
        "closed-form weight change",
        worst <= 1e-10,
        f"worst relative deviation {worst:.2e} over 50 histories (T<=50)",
    )


def _criterion_4_setup():
    task = MlpClassificationTask(
        n_samples=2048,
        n_features=20,
        hidden_units=48,
        n_classes=4,
        center_scale=2.0,
        label_noise=0.0,
        data_seed=3,
    )
    cfg = TrainingConfig(
        momentum=0.0,
        learning_rate=EpochSchedule(((0, 550, 1.0), (550, 2**62, 0.02))),
        batch_size=256,
        n_nodes=8,
        seed=7,
        epochs=800,
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=5)
    return task, cfg, mask_cfg


def test_criterion_4_compression_and_accuracy_analog():
    task, cfg, mask_cfg = _criterion_4_setup()
    warmup = 550
    thresholds = (0.005, 0.01, 0.05, 0.1)

    dense = run_experiment(
        task, cfg, fixed_threshold_policy(0.1, warmup_epochs=warmup), mask_cfg, MODE_DENSE
    )
    fixed_results = {}
    for thr in thresholds:
        policy = fixed_threshold_policy(thr, warmup_epochs=warmup)
        fixed_results[thr] = run_experiment(task, cfg, policy, mask_cfg, MODE_COMPRESSED)

    qualifying = {
        thr: res
        for thr, res in fixed_results.items()
        if mean_compression_ratio(res) >= 20.0
        and res.final_loss() <= 1.05 * dense.final_loss()
    }
    best_thr = min(fixed_results, key=lambda thr: fixed_results[thr].final_loss())
    best_loss = fixed_results[best_thr].final_loss()

    layerwise_policy = ThresholdPolicy(
        base=EpochSchedule.constant(0.05),
        ratio_weight=EpochSchedule.constant(0.01),
        ratio_pivot=1.0,
        warmup_epochs=warmup,
    )
    layerwise = run_experiment(task, cfg, layerwise_policy, mask_cfg, MODE_COMPRESSED)

    detail = (
        f"dense loss {dense.final_loss():.5f}; "
        + "; ".join(
            f"thr {thr}: ratio {mean_compression_ratio(res):.1f}x loss {res.final_loss():.5f}"
            for thr, res in fixed_results.items()
        )
        + f"; layer-wise loss {layerwise.final_loss():.5f} vs best fixed {best_loss:.5f}"
    )
    passed = bool(qualifying) and layerwise.final_loss() <= best_loss * 1.02
    report(4, "desk-scale compression/accuracy analog", passed, detail)


def test_criterion_5_ring_correctness():
    rng = np.random.default_rng(505)
    failures = []
    for case in range(100):
        n = int(rng.integers(2, 17))
        length = int(rng.integers(n, 200))
        topo = RingTopology.create(n, length)
        contribs = [rng.standard_normal(length) for _ in range(n)]
        result, stats = dense_allreduce(contribs, topo, step=case)

        # Independent sequential-sum oracle in the documented owner-first order.
        expected = np.zeros(length)
        for c in range(n):
            sl = chunk_slice(topo, c)
            acc = contribs[c][sl].copy()
            for i in range(1, n):
                acc = acc + contribs[(c + i) % n][sl]
            expected[sl] = acc
        if not np.array_equal(result, expected):
            failures.append(f"case {case}: sum mismatch (N={n}, L={length})")
            break
        if any(message_count(stats, node=k) != 2 * (n - 1) for k in range(n)):
            failures.append(f"case {case}: message count != 2(N-1)")
            break
    report(
        5,
        "ring correctness",
        not failures,
        failures[0] if failures else "100 random cases exact; 2(N-1) messages per node",
    )


def test_criterion_6_codec_roundtrip():
    rng = np.random.default_rng(606)
    lengths = list(range(8)) + [10_000 - k for k in range(8)]
    while len(lengths) < 1000:
        lengths.append(int(rng.integers(0, 10_001)))
    failures = []
    for length in lengths:
        mask = BitMask(rng.random(length) < rng.random())
        payload = encode_mask(mask)
        if len(payload) != encoded_size(length) or decode_mask(payload, length) != mask:
            failures.append(f"roundtrip failed at length {length}")
            break
    # Corrupted padding must be rejected.
    if not failures:
        payload = encode_mask(BitMask(np.ones(12, dtype=bool)))
        corrupted = payload[:1] + bytes([payload[1] | 0xF0])
        try:
            decode_mask(corrupted, 12)
            failures.append("corrupted padding accepted")
        except CodecError:
            pass
    report(
        6,
        "mask codec roundtrip",
        not failures,
        failures[0] if failures else "1000 masks across lengths 0..10000; padding corruption rejected",
    )


def test_criterion_7_probabilistic_inclusion():
    trials = 10_000
    layout = LayerLayout.from_sizes([("all", trials)])
    threshold = 0.01
    failures = []
    details = []
    for i, p in enumerate((0.1, 0.5, 0.7, 0.9)):
        scores = compute_importance(
            np.full((1, trials), p * threshold), np.ones(trials), layout
        )
        (mask,) = build_local_mask(scores, layout, [[threshold]], 700 + i, 0, (0,))
        density = np.count_nonzero(mask) / trials
        sigma = math.sqrt(p * (1 - p) / trials)
        deviation = abs(density - p)
        details.append(f"p={p}: {density:.4f} ({deviation / sigma:.2f} sigma)")
        if deviation > 3 * sigma:
            failures.append(f"p={p}: empirical {density:.4f} off by >3 sigma")
    report(
        7,
        "probabilistic update rule",
        not failures,
        failures[0] if failures else "; ".join(details),
    )


def test_criterion_8_bandwidth_accounting():
    rng = np.random.default_rng(808)
    n, length, steps = 8, 50_000, 100
    topo = RingTopology.create(n, length)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=88)
    vectors = [rng.standard_normal(length) for _ in range(n)]
    failures = []
    details = []
    for density in (0.01, 0.02):
        keep = rng.choice(length, size=int(length * density), replace=False)
        bits = np.zeros(length, dtype=bool)
        bits[keep] = True
        idx = np.flatnonzero(bits)
        local = BitMask(bits)

        dense_total = 0
        sparse_total = 0
        mask_total = 0
        ratio_sum = 0.0
        for step in range(steps):
            _, dstats = dense_allreduce(vectors, topo, step=step)
            dense_total += dstats.total_bytes()
            nodes = select_broadcast_nodes(n, mask_cfg, step)
            shared, mstats = mask_agreement_round([local] * len(nodes), nodes, n, step)
            parts = SparseGradient(idx, np.stack(vectors)[:, idx], length)
            _, sstats = sparse_allreduce(parts, topo, step=step)
            mask_total += mstats.bytes_for(phase=PHASE_MASK)
            sparse_total += mstats.total_bytes() + sstats.total_bytes()
            ratio_sum += length * 4 / (idx.shape[0] * 8)
        bytes_ratio = dense_total / sparse_total
        adjusted = dense_total / (sparse_total - mask_total)
        mean_step_ratio = ratio_sum / steps
        reconciliation = abs(adjusted / mean_step_ratio - 1.0)
        details.append(
            f"density {density:.0%}: bytes ratio {bytes_ratio:.1f}x, "
            f"reconciliation off {reconciliation:.2%}"
        )
        if bytes_ratio < 10.0:
            failures.append(f"density {density:.0%}: bytes ratio {bytes_ratio:.1f}x < 10x")
        if reconciliation > 0.10:
            failures.append(
                f"density {density:.0%}: reconciliation off {reconciliation:.2%}"
            )
    report(
        8,
        "bandwidth accounting",
        not failures,
        failures[0] if failures else "; ".join(details),
    )


def test_criterion_9_manifest_determinism(tmp_path):
    config = {
        "task": {
            "kind": "mlp_classification_synthetic",
            "n_samples": 256,
            "n_features": 10,
            "hidden_units": 12,
            "n_classes": 3,
            "data_seed": 909,
        },
        "training": {
            "momentum": 0.9,
            "learning_rate": 0.05,
            "batch_size": 8,
            "n_nodes": 4,
            "seed": 90,
            "epochs": 3,
        },
        "threshold": {"base": 0.02, "warmup_epochs": 1},
        "mask_agreement": {"n_selected_nodes": 2, "shared_seed": 91},
        "mode": "compressed",
        "out_dir": str(tmp_path / "a"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    failures = []
    if cli_main(["run", str(config_path), "--quiet"]) != 0:
        failures.append("first run failed")
    if cli_main(["run", str(config_path), "--out", str(tmp_path / "b"), "--quiet"]) != 0:
        failures.append("second run failed")
    manifest = tmp_path / "a" / "manifest.json"
    if cli_main(["run", str(manifest), "--out", str(tmp_path / "c"), "--quiet"]) != 0:
        failures.append("manifest rerun failed")

    def files(run_dir):
        return (
            (Path(run_dir) / "metrics.csv").read_bytes(),
            (Path(run_dir) / "bandwidth.csv").read_bytes(),
        )

    if not failures:
        if files(tmp_path / "a") != files(tmp_path / "b"):
            failures.append("identical config produced different CSVs")
        if files(tmp_path / "a") != files(tmp_path / "c"):
            failures.append("manifest rerun produced different CSVs")
    report(
        9,
        "manifest determinism",
        not failures,
        failures[0] if failures else "rerun and manifest replay byte-identical",
    )
