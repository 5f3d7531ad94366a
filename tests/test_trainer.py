import numpy as np
import pytest

from ringprune import (
    ConfigError,
    DivergenceError,
    EpochSchedule,
    InputError,
    LayerLayout,
    LinearRegressionTask,
    MaskAgreementConfig,
    MlpClassificationTask,
    ParamStream,
    RingTopology,
    ThresholdPolicy,
    TrainingConfig,
    baseline_dense_step,
    build_local_mask,
    clip_gradient,
    closed_form_weight_change,
    compressed_step,
    compute_importance,
    dgc_contrast_step,
    init_state,
    layer_stats,
    local_gradient,
    run_experiment,
    thresholds_for,
)
from ringprune.trainer import MODE_COMPRESSED, MODE_DENSE, MODE_DGC_CONTRAST, _local_masks


class FixedGradientTask:
    """Stub task whose per-node gradients are preset, for driving the step
    functions with hand-chosen values."""

    def __init__(self, layout, grads, initial_weights):
        self.layout = layout
        self.n_samples = 10_000
        self._grads = grads
        self._initial = np.asarray(initial_weights, dtype=float)

    def init_weights(self, rng):
        return self._initial.copy()

    def node_gradient(self, weights, node, step, n_nodes, batch_size):
        return np.asarray(self._grads(node, step), dtype=float)

    def evaluate(self, weights):
        return float(np.sum(weights**2)), None


def warmup_policy():
    """Threshold 0 forever: dense sends."""
    return ThresholdPolicy(
        base=EpochSchedule.constant(0.0),
        ratio_weight=EpochSchedule.constant(0.0),
        warmup_epochs=10**9,
    )


def fixed_policy(threshold):
    return ThresholdPolicy.fixed(threshold, warmup_epochs=0)


# --- clip_gradient --------------------------------------------------------------


def test_clip_below_threshold_is_identity():
    grad = np.array([3.0, 4.0])
    assert np.array_equal(clip_gradient(grad, 10.0), grad)


def test_clip_rescales_to_norm():
    clipped = clip_gradient(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(clipped, [0.6, 0.8])


def test_clip_norm_bound_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        grad = rng.standard_normal(int(rng.integers(1, 40))) * rng.random() * 10
        clip = float(rng.random() * 5 + 0.01)
        assert np.linalg.norm(clip_gradient(grad, clip)) <= clip + 1e-12


def test_clip_requires_positive_norm():
    with pytest.raises(InputError):
        clip_gradient(np.ones(3), 0.0)


# --- TrainingConfig ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainingConfig(n_nodes=1)
    with pytest.raises(ConfigError):
        TrainingConfig(clip_norm=-1.0)
    with pytest.raises(ConfigError):
        TrainingConfig(epochs=-1)


def test_lr_schedule_overrides_constant():
    cfg = TrainingConfig(
        learning_rate=0.5,
        lr_schedule=EpochSchedule(((0, 2, 0.5), (2, 10, 0.05))),
    )
    assert cfg.lr_at(1) == 0.5
    assert cfg.lr_at(2) == 0.05


# --- baseline dense step -------------------------------------------------------------


def test_baseline_one_step_arithmetic():
    # Node gradients sum to 0.5; velocity = 0.9 * 0 + 0.5; w = 1 - 0.1 * 0.5.
    layout = LayerLayout.from_sizes([("w", 1)])
    task = FixedGradientTask(
        layout,
        lambda node, step: [0.25],
        initial_weights=[1.0],
    )
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.1, n_nodes=2, seed=0)
    state = init_state(task, cfg)
    topo = RingTopology.create(2, 1)
    baseline_dense_step(state, cfg, 0, task=task, topo=topo)
    assert state.weights[0] == pytest.approx(0.95)
    for k in range(2):
        assert state.accum[k, 0] == pytest.approx(0.5)


def test_baseline_zero_step_size_freezes_weights():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = FixedGradientTask(layout, lambda n, s: [1.0, -2.0, 3.0], [0.5, 0.5, 0.5])
    cfg = TrainingConfig(
        learning_rate=1.0,
        lr_schedule=EpochSchedule.constant(0.0),
        n_nodes=2,
    )
    state = init_state(task, cfg)
    topo = RingTopology.create(2, 3)
    for step in range(5):
        baseline_dense_step(state, cfg, step, task=task, topo=topo)
    assert np.array_equal(state.weights, [0.5, 0.5, 0.5])


def test_baseline_matches_single_process_oracle():
    task = MlpClassificationTask(
        n_samples=128, n_features=8, hidden_units=10, n_classes=3, data_seed=13
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=0.05, batch_size=4, n_nodes=4, seed=3, epochs=1
    )
    state = init_state(task, cfg)
    topo = RingTopology.create(4, task.layout.total_length)

    # Single-process oracle: momentum SGD on the concatenation of all four
    # nodes' batches, normalised by the global batch size.
    w = state.weights.copy()
    vel = np.zeros_like(w)
    for step in range(100):
        union = np.concatenate(
            [task.batch_indices(k, step, 4, 4) for k in range(4)]
        )
        total = task.gradient_sum(w, union) / 16.0
        vel = 0.9 * vel + total
        w = w - 0.05 * vel

    for step in range(100):
        baseline_dense_step(state, cfg, step, task=task, topo=topo)
    assert np.allclose(state.weights, w, rtol=1e-6, atol=1e-9)


# --- lock-step scoring pass ---------------------------------------------------------


def per_node_local_masks(state, policy, cfg, step, epoch, task):
    """Steps 1-3 of the pruned pipeline as the trainer ran them before the
    lock-step pass, one loop iteration per node: the oracle for
    ``_local_masks``. Also returns each node's thresholds."""
    local_masks = []
    node_thresholds = []
    for k in range(cfg.n_nodes):
        grad = local_gradient(task, state.weights, k, cfg, step)
        if cfg.clip_norm is not None:
            grad = clip_gradient(grad, cfg.clip_norm)
        state.accum[k] = cfg.momentum * state.accum[k] + grad
        imp = compute_importance(state.accum[k], state.weights, task.layout)
        thresholds = thresholds_for(imp, policy, epoch)
        node_thresholds.append(thresholds)
        local_masks.append(build_local_mask(imp, thresholds, ParamStream(cfg.seed, k, step)))
    return local_masks, node_thresholds


# Score shapes per layer, before a per-node scale in [0.8, 1.2]. With the
# "layerwise" policy below (base 0.05, ratio_weight 0.1, pivot 1) they give:
#   const    constant scores, the variance-0 branch: threshold = base
#   floor    dispersion below pivot, base - 0.1 * ratio < thr_min
#   ceiling  dispersion ~10 > pivot, base + 0.1 * ratio > thr_max
#   upper    dispersion above pivot, unclamped, many scores below the threshold
#   lower    dispersion below pivot, unclamped, about half the scores below it
LOCKSTEP_LAYOUT = LayerLayout.from_sizes(
    [("const", 6), ("floor", 40), ("ceiling", 40), ("upper", 40), ("lower", 40)]
)


def _lockstep_task(n_nodes):
    rng = np.random.default_rng(n_nodes)
    upper = np.concatenate([np.full(10, 3.0), np.zeros(30)])
    shapes = [
        lambda: np.full(6, 0.3),
        lambda: rng.uniform(0.0, 5.0, 40),
        lambda: rng.uniform(0.0, 60.0, 40),
        lambda: upper + np.concatenate([np.zeros(10), rng.uniform(0.0, 0.6, 30)]),
        lambda: rng.uniform(0.0, 0.1, 40),
    ]
    grads = {}
    for k in range(n_nodes):
        signs = rng.choice([-1.0, 1.0], LOCKSTEP_LAYOUT.total_length)
        for step in range(2):
            grads[k, step] = rng.uniform(0.8, 1.2) * signs * np.concatenate([f() for f in shapes])
    weights = rng.choice([-1.0, 1.0], LOCKSTEP_LAYOUT.total_length)
    return FixedGradientTask(LOCKSTEP_LAYOUT, lambda k, step: grads[k, step], weights)


def _lockstep_policy(name):
    if name == "infinite":
        return ThresholdPolicy(
            base=EpochSchedule.constant(np.inf),
            ratio_weight=EpochSchedule.constant(0.0),
            thr_max=np.inf,
            warmup_epochs=0,
        )
    return ThresholdPolicy(
        base=EpochSchedule.constant(0.05),
        ratio_weight=EpochSchedule.constant(0.1),
        ratio_pivot=1.0,
        thr_min=1e-4,
        thr_max=0.5,
        warmup_epochs=1 if name == "warmup" else 0,
    )


@pytest.mark.parametrize("case", ["layerwise", "clipped", "infinite", "warmup"])
@pytest.mark.parametrize("n_nodes", [2, 3, 5, 17, 64])
def test_lockstep_pass_matches_per_node_oracle(n_nodes, case):
    task = _lockstep_task(n_nodes)
    policy = _lockstep_policy(case)
    cfg = TrainingConfig(
        momentum=0.5,
        n_nodes=n_nodes,
        seed=29,
        clip_norm=20.0 if case == "clipped" else None,
    )
    batched = init_state(task, cfg)
    oracle = init_state(task, cfg)
    epoch = 0
    for step in range(2):  # the second step folds onto a non-zero residual
        masks = _local_masks(batched, policy, cfg, step, epoch, task)
        expected_masks, expected_thresholds = per_node_local_masks(
            oracle, policy, cfg, step, epoch, task
        )
        assert np.array_equal(batched.accum, oracle.accum)
        assert len(masks) == n_nodes
        for k in range(n_nodes):
            assert np.array_equal(masks[k].bits, expected_masks[k].bits), f"node {k}"
        imp = compute_importance(batched.accum, batched.weights, task.layout)
        thresholds = thresholds_for(imp, policy, epoch)
        assert thresholds.shape == (n_nodes, LOCKSTEP_LAYOUT.n_layers)
        assert np.array_equal(thresholds, np.stack(expected_thresholds))

    # The cases reach the branches they are meant to.
    bits = np.stack([m.bits for m in masks])
    if case == "infinite":
        assert np.all(np.isinf(thresholds)) and not bits.any()
    elif case == "warmup":
        assert np.all(thresholds == 0.0) and bits.all()
    elif case == "layerwise":
        ratios = np.stack([layer_stats(imp, j).ratio for j in range(5)], axis=1)
        unclamped = (thresholds > policy.thr_min) & (thresholds < policy.thr_max)
        assert np.all(ratios[:, 0] == 0.0) and np.all(thresholds[:, 0] == 0.05)
        assert np.any(thresholds[:, 1] == policy.thr_min)
        assert np.any(thresholds[:, 2] == policy.thr_max)
        assert np.any((ratios > policy.ratio_pivot) & unclamped)
        assert np.any((ratios < policy.ratio_pivot) & unclamped)
        below = imp.scores < np.repeat(thresholds, LOCKSTEP_LAYOUT.lengths, axis=1)
        assert (bits & below).any() and (~bits & below).any()


def test_warmup_skips_scoring_but_rejects_nonfinite_residual():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = FixedGradientTask(
        layout,
        lambda node, step: [0.1, np.nan, 0.2] if node == 1 else [0.1, 0.1, 0.1],
        initial_weights=[1.0, 1.0, 1.0],
    )
    cfg = TrainingConfig(n_nodes=3)
    state = init_state(task, cfg)
    with pytest.raises(InputError, match="node 1, index 1"):
        _local_masks(state, warmup_policy(), cfg, 0, 0, task)


# --- closed-form weight change ---------------------------------------------------------


def test_closed_form_single_step():
    grad = np.array([1.0, -2.0])
    assert np.array_equal(
        closed_form_weight_change([grad], momentum=0.9, learning_rate=0.1),
        -0.1 * grad,
    )


def test_closed_form_two_step_coefficients():
    g0 = np.array([1.0])
    g1 = np.array([0.0])
    delta = closed_form_weight_change([g0, g1], momentum=0.9, learning_rate=1.0)
    assert delta[0] == pytest.approx(-1.9)  # 1 + m on the first gradient
    delta = closed_form_weight_change([g1, g0], momentum=0.9, learning_rate=1.0)
    assert delta[0] == pytest.approx(-1.0)  # bare coefficient on the last


def test_closed_form_matches_iterated_baseline():
    rng = np.random.default_rng(17)
    length, horizon = 12, 10
    history = [rng.standard_normal(length) for _ in range(horizon)]
    layout = LayerLayout.from_sizes([("w", length)])
    task = FixedGradientTask(
        layout,
        lambda node, step: history[step] if node == 0 else np.zeros(length),
        initial_weights=rng.standard_normal(length),
    )
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.07, n_nodes=2, seed=0)
    state = init_state(task, cfg)
    topo = RingTopology.create(2, length)
    start = state.weights.copy()
    for step in range(horizon):
        baseline_dense_step(state, cfg, step, task=task, topo=topo)
    iterated = state.weights - start
    predicted = closed_form_weight_change(history, momentum=0.9, learning_rate=0.07)
    assert np.linalg.norm(iterated - predicted) <= 1e-10 * np.linalg.norm(predicted)


# --- compressed step ----------------------------------------------------------------


def test_compressed_warmup_equals_baseline_exactly():
    task = LinearRegressionTask(n_samples=64, n_features=6, data_seed=2)
    cfg = TrainingConfig(
        momentum=0.0, learning_rate=0.02, batch_size=8, n_nodes=2, seed=5
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=3)
    topo = RingTopology.create(2, task.layout.total_length)
    dense_state = init_state(task, cfg)
    pruned_state = init_state(task, cfg)
    policy = warmup_policy()
    for step in range(20):
        baseline_dense_step(dense_state, cfg, step, task=task, topo=topo)
        outcome = compressed_step(
            pruned_state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.shared_mask.density() == 1.0
        assert (
            pruned_state.weights.tobytes() == dense_state.weights.tobytes()
        )  # bit-for-bit
        assert int(pruned_state.staleness[0].max()) == 0


def test_compressed_zero_gradients_change_nothing():
    layout = LayerLayout.from_sizes([("a", 3), ("b", 2)])
    task = FixedGradientTask(layout, lambda n, s: np.zeros(5), np.ones(5))
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.1, n_nodes=2, seed=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=9)
    topo = RingTopology.create(2, 5)
    state = init_state(task, cfg)
    for step in range(7):
        outcome = compressed_step(
            state, fixed_policy(0.1), mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.sent.nnz == 0
    assert np.array_equal(state.weights, np.ones(5))
    assert np.array_equal(state.accum[0], np.zeros(5))
    # Nothing was ever in a shared mask, so staleness equals the step count.
    assert np.array_equal(state.staleness[0], np.full(5, 7))


def _reject_sample(seed, step, n_nodes, count):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, step)))
    chosen = []
    while len(chosen) < count:
        candidate = int(rng.integers(0, n_nodes))
        if candidate not in chosen:
            chosen.append(candidate)
    return chosen


def test_compressed_matches_scalar_transcript():
    """Drive three steps against an independent scalar reimplementation.

    Gradients are chosen so every score is either 0 or at or above the fixed
    threshold, keeping the probabilistic rule inactive and the transcript
    exact in every selection branch.
    """
    length = 4
    layout = LayerLayout.from_sizes([("a", 2), ("b", 2)])
    grads = {
        (0, 0): [0.2, 0.0, 0.0, 0.5],
        (1, 0): [0.0, 0.3, 0.0, 0.0],
        (0, 1): [0.2, 0.0, 0.0, 0.0],
        (1, 1): [0.0, 0.0, 0.0, 0.0],
        (0, 2): [0.0, 0.0, 0.0, 0.0],
        (1, 2): [0.0, 0.3, 0.0, 0.0],
    }
    task = FixedGradientTask(layout, lambda n, s: grads[(n, s)], np.ones(length))
    momentum, eta, thr, shared_seed = 0.9, 0.5, 0.1, 17
    cfg = TrainingConfig(momentum=momentum, learning_rate=eta, n_nodes=2, seed=4)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=shared_seed)
    topo = RingTopology.create(2, length)
    state = init_state(task, cfg)

    # Scalar transcript, plain Python floats.
    w = [1.0] * length
    u = [[0.0] * length for _ in range(2)]
    stale = [0] * length
    for step in range(3):
        masks = []
        for k in range(2):
            for i in range(length):
                u[k][i] = momentum * u[k][i] + grads[(k, step)][i]
            masks.append(
                [abs(u[k][i]) / max(abs(w[i]), 1e-8) >= thr for i in range(length)]
            )
        selected = _reject_sample(shared_seed, step, 2, 1)[0]
        shared = masks[selected]
        for i in range(length):
            if shared[i]:
                update = u[0][i] + u[1][i]
                w[i] = w[i] - eta * update
                u[0][i] = 0.0
                u[1][i] = 0.0
                stale[i] = 0
            else:
                stale[i] += 1

        compressed_step(
            state, fixed_policy(thr), mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert state.weights.tolist() == w
        assert state.accum[0].tolist() == u[0]
        assert state.accum[1].tolist() == u[1]
        assert state.staleness[0].tolist() == stale


def test_compressed_per_step_conservation_exact():
    # Integer-valued gradients and momentum 0.5 keep every quantity exactly
    # representable: densify(sent) + kept must equal m * u_prev + g.
    rng = np.random.default_rng(23)
    length = 32
    layout = LayerLayout.from_sizes([("w", length)])
    presets = {
        (node, step): rng.integers(-4, 5, size=length).astype(float)
        for node in range(2)
        for step in range(6)
    }
    task = FixedGradientTask(layout, lambda n, s: presets[(n, s)], np.ones(length))
    for momentum in (0.0, 0.5):
        cfg = TrainingConfig(momentum=momentum, learning_rate=0.01, n_nodes=2, seed=6)
        mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=8)
        topo = RingTopology.create(2, length)
        state = init_state(task, cfg)
        for step in range(6):
            u_prev = state.accum[0].copy()
            outcome = compressed_step(
                state, fixed_policy(1.5), mask_cfg, cfg, step, 0, task=task, topo=topo
            )
            expected = momentum * u_prev + presets[(0, step)]
            assert np.array_equal(
                outcome.sent.densify() + state.accum[0], expected
            )
            if momentum == 0.0:
                # Each step is self-contained: sent + kept is exactly g.
                assert np.array_equal(
                    outcome.sent.densify() + state.accum[0], presets[(0, step)]
                )


def test_compressed_infinite_threshold_freezes_everything():
    # With an unreachable threshold nothing is ever selected, so weights
    # stay put and every staleness counter equals the step count.
    import math

    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=23
    )
    policy = ThresholdPolicy(
        base=EpochSchedule.constant(math.inf),
        ratio_weight=EpochSchedule.constant(0.0),
        thr_max=math.inf,
        warmup_epochs=0,
    )
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.05, batch_size=4, n_nodes=2, seed=8)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=4)
    topo = RingTopology.create(2, task.layout.total_length)
    state = init_state(task, cfg)
    start = state.weights.copy()
    for step in range(6):
        outcome = compressed_step(
            state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.sent.nnz == 0
    assert np.array_equal(state.weights, start)
    assert np.all(state.staleness[0] == 6)


def test_compressed_staleness_zero_iff_in_shared_mask():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=19
    )
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.05, batch_size=4, n_nodes=2, seed=7)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=2)
    topo = RingTopology.create(2, task.layout.total_length)
    state = init_state(task, cfg)
    for step in range(5):
        outcome = compressed_step(
            state, fixed_policy(0.05), mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        zeroed = state.staleness[0] == 0
        assert np.array_equal(zeroed, outcome.shared_mask.bits)


# --- dgc contrast step -------------------------------------------------------------


def test_dgc_step_updates_union_support_only():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=29
    )
    cfg = TrainingConfig(momentum=0.9, learning_rate=0.05, batch_size=4, n_nodes=4, seed=9)
    topo = RingTopology.create(4, task.layout.total_length)
    state = init_state(task, cfg)
    before = state.weights.copy()
    outcome = dgc_contrast_step(
        state, fixed_policy(0.05), cfg, 0, 0, task=task, topo=topo
    )
    changed = state.weights != before
    assert not np.any(changed & ~outcome.shared_mask.bits)


# --- run_experiment ------------------------------------------------------------------


def test_run_zero_epochs_emits_initial_row_only():
    task = LinearRegressionTask(n_samples=32)
    cfg = TrainingConfig(epochs=0, n_nodes=2)
    result = run_experiment(
        task, cfg, warmup_policy(), MaskAgreementConfig(n_selected_nodes=1), MODE_DENSE
    )
    assert len(result.metrics) == 1
    assert result.metrics[0].step == 0
    assert result.metrics[0].bytes_total == 0


def test_run_dense_linear_loss_monotone():
    # Full-batch descent on a convex quadratic with a small step.
    task = LinearRegressionTask(n_samples=64, n_features=4, data_seed=31)
    # batch_size 32 on 2 nodes is the whole shard, so every step is exact
    # full-batch descent.
    cfg = TrainingConfig(
        momentum=0.0, learning_rate=0.001, batch_size=32, n_nodes=2, epochs=25, seed=11
    )
    result = run_experiment(
        task, cfg, warmup_policy(), MaskAgreementConfig(n_selected_nodes=1), MODE_DENSE
    )
    losses = [m.loss for m in result.metrics]
    assert len(losses) > 20
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_run_rejects_unknown_mode():
    task = LinearRegressionTask(n_samples=16)
    with pytest.raises(ConfigError):
        run_experiment(
            task,
            TrainingConfig(n_nodes=2),
            warmup_policy(),
            MaskAgreementConfig(n_selected_nodes=1),
            "turbo",
        )


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize(
    "mode, policy",
    [
        (MODE_DENSE, warmup_policy()),
        (MODE_COMPRESSED, warmup_policy()),
        (MODE_COMPRESSED, fixed_policy(0.05)),
        (MODE_DGC_CONTRAST, fixed_policy(0.05)),
    ],
    ids=["dense", "compressed-warmup", "compressed-pruned", "dgc_contrast"],
)
def test_run_divergence_aborts_with_diagnostic(mode, policy):
    # A convex quadratic diverges geometrically once the step is too large.
    # The loss overflows before any residual does, so every mode stops at
    # the loss check of the same step rather than at a non-finite score.
    task = LinearRegressionTask(n_samples=64, n_features=4, data_seed=37)
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=1e6, batch_size=8, n_nodes=2, epochs=50, seed=13
    )
    with pytest.raises(DivergenceError, match=r"at step 26 \(epoch 6\)"):
        run_experiment(task, cfg, policy, MaskAgreementConfig(n_selected_nodes=1), mode)


def test_run_is_deterministic():
    task = MlpClassificationTask(
        n_samples=128, n_features=8, hidden_units=10, n_classes=3, data_seed=41
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=0.05, batch_size=8, n_nodes=2, epochs=3, seed=15
    )
    policy = ThresholdPolicy.fixed(0.02, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=21)
    a = run_experiment(task, cfg, policy, mask_cfg, MODE_COMPRESSED)
    b = run_experiment(task, cfg, policy, mask_cfg, MODE_COMPRESSED)
    assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]
    assert a.stats.records == b.stats.records


def test_run_modes_emit_schema_fields():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=43
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=0.02, batch_size=8, n_nodes=2, epochs=2, seed=17
    )
    policy = ThresholdPolicy.fixed(0.05, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=23)
    for mode in (MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST):
        result = run_experiment(task, cfg, policy, mask_cfg, mode)
        row = result.metrics[-1]
        assert row.mode == mode
        assert row.bytes_total > 0
        assert row.accuracy is not None
        assert set(row.layer_density) == set(task.layout.names)


# --- local_gradient ------------------------------------------------------------------


def test_local_gradient_shape_checked():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = FixedGradientTask(layout, lambda n, s: np.zeros(4), np.zeros(3))
    cfg = TrainingConfig(n_nodes=2)
    with pytest.raises(Exception):
        local_gradient(task, np.zeros(3), 0, cfg, 0)
