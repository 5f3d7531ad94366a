import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringprune import (
    BitMask,
    ConfigError,
    DivergenceError,
    EpochSchedule,
    InputError,
    LayerLayout,
    LinearRegressionTask,
    MaskAgreementConfig,
    MlpClassificationTask,
    RingTopology,
    StructuralError,
    ThresholdPolicy,
    TrainingConfig,
    baseline_dense_step,
    clip_gradient,
    compressed_step,
    compute_importance,
    init_state,
    or_masks,
    run_experiment,
    select_broadcast_nodes,
    thresholds_for,
)
from ringprune.ring import PHASE_MASK
from ringprune.trainer import (
    MODE_COMPRESSED,
    MODE_DENSE,
    MODE_DGC_CONTRAST,
    StepMetrics,
    _local_masks,
    _node_gradients,
    _staleness_percentiles,
)

from oracles import (
    ParamStream,
    PresetGradientTask,
    batch_indices,
    closed_form_weight_change,
    fixed_threshold_policy,
    node_gradients,
    reference_masks,
    reference_thresholds,
)


def warmup_policy():
    """Threshold 0 forever: dense sends."""
    return ThresholdPolicy(
        base=EpochSchedule.constant(0.0),
        ratio_weight=EpochSchedule.constant(0.0),
        warmup_epochs=10**9,
    )


def fixed_policy(threshold):
    return fixed_threshold_policy(threshold, warmup_epochs=0)


def staleness(state, steps_done):
    """Steps since node 0 last sent each entry, after ``steps_done`` steps."""
    return steps_done - state.last_sent


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


@pytest.mark.parametrize("clip", [0.0, -1.0, float("nan")])
def test_clip_requires_positive_norm(clip):
    with pytest.raises(InputError):
        clip_gradient(np.ones(3), clip)


# --- TrainingConfig ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainingConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainingConfig(learning_rate=EpochSchedule.constant(-0.05))
    with pytest.raises(ConfigError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainingConfig(n_nodes=1)
    with pytest.raises(ConfigError):
        TrainingConfig(clip_norm=-1.0)
    with pytest.raises(ConfigError):
        TrainingConfig(epochs=-1)


# --- state ---------------------------------------------------------------------------


def test_init_state_holds_per_node_rows_only_in_pruned_modes():
    layout = LayerLayout.from_sizes([("a", 3), ("b", 2)])
    task = PresetGradientTask(layout, lambda n, s: np.zeros(5), np.ones(5))
    cfg = TrainingConfig(n_nodes=4)
    for mode, accum_shape in [
        (MODE_DENSE, (5,)),
        (MODE_COMPRESSED, (4, 5)),
        (MODE_DGC_CONTRAST, (4, 5)),
    ]:
        state = init_state(task, cfg, mode)
        assert state.weights.shape == (5,)
        assert state.accum.shape == accum_shape and not state.accum.any()
        assert state.last_sent.shape == (5,) and state.last_sent.dtype == np.int64
        assert not state.last_sent.any()
    with pytest.raises(ConfigError, match="unknown mode 'turbo'"):
        init_state(task, cfg, "turbo")


def test_steps_reject_a_state_built_for_another_mode():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = PresetGradientTask(layout, lambda n, s: [0.1, 0.2, 0.3], np.ones(3))
    cfg = TrainingConfig(n_nodes=2)
    topo = RingTopology.create(2, 3)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1)
    dense = init_state(task, cfg, MODE_DENSE)
    pruned = init_state(task, cfg, MODE_COMPRESSED)
    with pytest.raises(StructuralError, match=r"dense step needs .* \(3,\), got \(2, 3\)"):
        baseline_dense_step(pruned, cfg, 0, 0, task=task, topo=topo)
    with pytest.raises(StructuralError, match=r"pruned step needs .* \(2, 3\), got \(3,\)"):
        compressed_step(dense, warmup_policy(), mask_cfg, cfg, 0, 0, task=task, topo=topo)
    with pytest.raises(StructuralError, match="built for another mode"):
        compressed_step(dense, warmup_policy(), None, cfg, 0, 0, task=task, topo=topo)
    # A rejected step leaves the state as it was.
    assert np.array_equal(pruned.weights, np.ones(3)) and not pruned.accum.any()
    assert np.array_equal(dense.weights, np.ones(3)) and not dense.accum.any()


# --- baseline dense step -------------------------------------------------------------


def test_baseline_one_step_arithmetic():
    # Node gradients sum to 0.5; velocity = 0.9 * 0 + 0.5; w = 1 - 0.1 * 0.5.
    layout = LayerLayout.from_sizes([("w", 1)])
    task = PresetGradientTask(
        layout,
        lambda node, step: [0.25],
        initial_weights=[1.0],
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.1), n_nodes=2, seed=0
    )
    state = init_state(task, cfg, MODE_DENSE)
    topo = RingTopology.create(2, 1)
    baseline_dense_step(state, cfg, 0, 0, task=task, topo=topo)
    assert state.weights[0] == pytest.approx(0.95)
    assert state.accum.shape == (1,)
    assert state.accum[0] == pytest.approx(0.5)


def test_baseline_zero_step_size_freezes_weights():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = PresetGradientTask(layout, lambda n, s: [1.0, -2.0, 3.0], [0.5, 0.5, 0.5])
    cfg = TrainingConfig(learning_rate=EpochSchedule.constant(0.0), n_nodes=2)
    state = init_state(task, cfg, MODE_DENSE)
    topo = RingTopology.create(2, 3)
    for step in range(5):
        baseline_dense_step(state, cfg, step, 0, task=task, topo=topo)
    assert np.array_equal(state.weights, [0.5, 0.5, 0.5])


def test_baseline_matches_single_process_oracle():
    task = MlpClassificationTask(
        n_samples=128, n_features=8, hidden_units=10, n_classes=3, data_seed=13
    )
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.05),
        batch_size=4,
        n_nodes=4,
        seed=3,
        epochs=1,
    )
    state = init_state(task, cfg, MODE_DENSE)
    topo = RingTopology.create(4, task.layout.total_length)

    # Single-process oracle: momentum SGD on the concatenation of all four
    # nodes' batches, normalised by the global batch size.
    w = state.weights.copy()
    vel = np.zeros_like(w)
    for step in range(100):
        union = np.concatenate(
            [batch_indices(task, k, step, 4, 4) for k in range(4)]
        )
        total = task.gradient_sum(w, union) / 16.0
        vel = 0.9 * vel + total
        w = w - 0.05 * vel

    for step in range(100):
        baseline_dense_step(state, cfg, step, 0, task=task, topo=topo)
    assert np.allclose(state.weights, w, rtol=1e-6, atol=1e-9)


# --- lock-step scoring pass ---------------------------------------------------------


def per_node_local_masks(state, policy, cfg, step, epoch, task):
    """Steps 1-3 of the pruned pipeline as the trainer ran them before the
    lock-step pass, one loop iteration per node, with each node's thresholds
    from the rule oracle and its draws from its reference stream: the oracle
    for ``_local_masks``. Also returns each node's thresholds, None in
    warm-up, where every entry is a candidate and no threshold is taken."""
    local_masks = []
    node_thresholds = []
    for k in range(cfg.n_nodes):
        grad = task.preset(k, step)
        if cfg.clip_norm is not None:
            grad = clip_gradient(grad, cfg.clip_norm)
        state.accum[k] = cfg.momentum * state.accum[k] + grad
        if epoch < policy.warmup_epochs:
            node_thresholds.append(None)
            local_masks.append(BitMask(np.ones(task.layout.total_length, dtype=bool)))
            continue
        scores = compute_importance(state.accum[k : k + 1], state.weights, task.layout)
        thresholds = reference_thresholds(scores, task.layout, policy, epoch)[1]
        node_thresholds.append(thresholds[0])
        (bits,) = reference_masks(
            scores, task.layout, thresholds, [ParamStream(cfg.seed, k, step)]
        )
        local_masks.append(BitMask(bits))
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
    return PresetGradientTask(LOCKSTEP_LAYOUT, lambda k, step: grads[k, step], weights)


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
    batched = init_state(task, cfg, MODE_COMPRESSED)
    oracle = init_state(task, cfg, MODE_COMPRESSED)
    epoch = 0
    for step in range(2):  # the second step folds onto a non-zero residual
        masks = _local_masks(batched, policy, cfg, step, epoch, task, range(n_nodes))
        expected_masks, expected_thresholds = per_node_local_masks(
            oracle, policy, cfg, step, epoch, task
        )
        assert np.array_equal(batched.accum, oracle.accum)
        assert len(masks) == n_nodes
        for k in range(n_nodes):
            assert np.array_equal(masks[k], expected_masks[k].bits), f"node {k}"
        if case == "warmup":
            continue  # warm-up takes no thresholds
        scores = compute_importance(batched.accum, batched.weights, task.layout)
        thresholds = thresholds_for(scores, task.layout, policy, epoch)
        assert thresholds.shape == (n_nodes, LOCKSTEP_LAYOUT.n_layers)
        assert np.array_equal(thresholds, np.stack(expected_thresholds))

    # The cases reach the branches they are meant to.
    if case == "infinite":
        assert np.all(np.isinf(thresholds)) and not masks.any()
    elif case == "warmup":
        assert masks.all()
    elif case == "layerwise":
        ratios, _ = reference_thresholds(scores, task.layout, policy, epoch)
        unclamped = (thresholds > policy.thr_min) & (thresholds < policy.thr_max)
        assert np.all(ratios[:, 0] == 0.0) and np.all(thresholds[:, 0] == 0.05)
        assert np.any(thresholds[:, 1] == policy.thr_min)
        assert np.any(thresholds[:, 2] == policy.thr_max)
        assert np.any((ratios > policy.ratio_pivot) & unclamped)
        assert np.any((ratios < policy.ratio_pivot) & unclamped)
        below = scores < np.repeat(thresholds, LOCKSTEP_LAYOUT.lengths, axis=1)
        assert (masks & below).any() and (~masks & below).any()


def test_warmup_skips_scoring_but_rejects_nonfinite_residual():
    layout = LayerLayout.from_sizes([("w", 3)])
    task = PresetGradientTask(
        layout,
        lambda node, step: [0.1, np.nan, 0.2] if node == 1 else [0.1, 0.1, 0.1],
        initial_weights=[1.0, 1.0, 1.0],
    )
    cfg = TrainingConfig(n_nodes=3)
    state = init_state(task, cfg, MODE_COMPRESSED)
    with pytest.raises(InputError, match="node 1, index 1"):
        _local_masks(state, warmup_policy(), cfg, 0, 0, task, range(3))


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
    task = PresetGradientTask(
        layout,
        lambda node, step: history[step] if node == 0 else np.zeros(length),
        initial_weights=rng.standard_normal(length),
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.07), n_nodes=2, seed=0
    )
    state = init_state(task, cfg, MODE_DENSE)
    topo = RingTopology.create(2, length)
    start = state.weights.copy()
    for step in range(horizon):
        baseline_dense_step(state, cfg, step, 0, task=task, topo=topo)
    iterated = state.weights - start
    predicted = closed_form_weight_change(history, momentum=0.9, learning_rate=0.07)
    assert np.linalg.norm(iterated - predicted) <= 1e-10 * np.linalg.norm(predicted)


# --- compressed step ----------------------------------------------------------------


def test_compressed_warmup_equals_baseline_exactly():
    task = LinearRegressionTask(n_samples=64, n_features=6, data_seed=2)
    cfg = TrainingConfig(
        momentum=0.0, learning_rate=EpochSchedule.constant(0.02), batch_size=8, n_nodes=2, seed=5
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=3)
    topo = RingTopology.create(2, task.layout.total_length)
    dense_state = init_state(task, cfg, MODE_DENSE)
    pruned_state = init_state(task, cfg, MODE_COMPRESSED)
    policy = warmup_policy()
    for step in range(20):
        baseline_dense_step(dense_state, cfg, step, 0, task=task, topo=topo)
        outcome = compressed_step(
            pruned_state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.shared_mask.density() == 1.0
        assert (
            pruned_state.weights.tobytes() == dense_state.weights.tobytes()
        )  # bit-for-bit
        assert int(staleness(pruned_state, step + 1).max()) == 0


@pytest.mark.parametrize(
    "n_nodes, length",
    [(2, 1), (2, 37), (3, 2), (3, 100), (5, 3), (5, 100), (64, 63), (64, 1204)],
)
def test_compressed_warmup_step_sends_dense_bytes_plus_its_mask_round(n_nodes, length):
    # An all-ones shared mask makes the agreed reduce's chunks the dense
    # reduce's, and its messages carry values only, so the step's reduce
    # rows are the dense step's node by node, empty chunks (P < N) included.
    # The only other rows are the mask round's: each broadcaster's
    # ceil(P / 8)-byte mask, forwarded by every node but the one before it.
    rng = np.random.default_rng(n_nodes * 10_000 + length)
    grads = rng.standard_normal((n_nodes, length))
    task = PresetGradientTask(
        LayerLayout.from_sizes([("w", length)]), lambda node, step: grads[node], np.zeros(length)
    )
    cfg = TrainingConfig(momentum=0.0, batch_size=8, n_nodes=n_nodes)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=9)
    topo = RingTopology.create(n_nodes, length)
    step = 3
    dense = baseline_dense_step(
        init_state(task, cfg, MODE_DENSE), cfg, step, 0, task=task, topo=topo
    )
    pruned = compressed_step(
        init_state(task, cfg, MODE_COMPRESSED),
        warmup_policy(),
        mask_cfg,
        cfg,
        step,
        0,
        task=task,
        topo=topo,
    )
    assert pruned.shared_mask.density() == 1.0
    broadcasters = select_broadcast_nodes(n_nodes, mask_cfg, step)
    mask_bytes = {
        k: sum(-(-length // 8) for o in broadcasters if k != (o - 1) % n_nodes)
        for k in range(n_nodes)
    }
    mask_rows = [(step, k, PHASE_MASK, b) for k, b in mask_bytes.items() if b]
    assert list(pruned.stats.iter_aggregated_rows()) == sorted(
        [*dense.stats.iter_aggregated_rows(), *mask_rows]
    )


def test_compressed_zero_gradients_change_nothing():
    layout = LayerLayout.from_sizes([("a", 3), ("b", 2)])
    task = PresetGradientTask(layout, lambda n, s: np.zeros(5), np.ones(5))
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.1), n_nodes=2, seed=1
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=9)
    topo = RingTopology.create(2, 5)
    state = init_state(task, cfg, MODE_COMPRESSED)
    for step in range(7):
        outcome = compressed_step(
            state, fixed_policy(0.1), mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.shared_mask.popcount() == 0
    assert np.array_equal(state.weights, np.ones(5))
    assert np.array_equal(state.accum[0], np.zeros(5))
    # Nothing was ever in a shared mask, so staleness equals the step count.
    assert np.array_equal(staleness(state, 7), np.full(5, 7))


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
    task = PresetGradientTask(layout, lambda n, s: grads[(n, s)], np.ones(length))
    momentum, eta, thr, shared_seed = 0.9, 0.5, 0.1, 17
    cfg = TrainingConfig(
        momentum=momentum, learning_rate=EpochSchedule.constant(eta), n_nodes=2, seed=4
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=shared_seed)
    topo = RingTopology.create(2, length)
    state = init_state(task, cfg, MODE_COMPRESSED)

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
        assert staleness(state, step + 1).tolist() == stale


@pytest.mark.parametrize("mode", [MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_compressed_per_step_conservation_exact(mode):
    # Integer-valued gradients and momentum 0.5 keep every quantity exactly
    # representable. Each node's folded residual u_k = m * u_prev + g is
    # split exactly under the mask node k sent (the shared mask, or in the
    # contrast mode node k's own): the kept residual is u_k off that mask and
    # 0 on it, and the weights move by exactly -lr * sum_k u_k on it and not
    # at all off the masks, so nothing is lost or applied twice.
    rng = np.random.default_rng(23)
    length = 32
    layout = LayerLayout.from_sizes([("w", length)])
    presets = {
        (node, step): rng.integers(-4, 5, size=length).astype(float)
        for node in range(2)
        for step in range(6)
    }
    task = PresetGradientTask(layout, lambda n, s: presets[(n, s)], np.ones(length))
    policy = fixed_policy(1.5)
    for momentum in (0.0, 0.5):
        cfg = TrainingConfig(
            momentum=momentum, learning_rate=EpochSchedule.constant(0.01), n_nodes=2, seed=6
        )
        mask_cfg = None
        if mode == MODE_COMPRESSED:
            mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=8)
        topo = RingTopology.create(2, length)
        state = init_state(task, cfg, mode)
        for step in range(6):
            u = [momentum * state.accum[k] + presets[(k, step)] for k in range(2)]
            own = _local_masks(copy.deepcopy(state), policy, cfg, step, 0, task, range(2))
            w_prev = state.weights.copy()
            outcome = compressed_step(
                state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
            )
            mask = outcome.shared_mask.bits
            if mask_cfg is None:
                sent = list(own)
                assert np.array_equal(mask, own[0] | own[1])
                assert np.any(own[0] != own[1])  # some entries only one node sent
            else:
                sent = [mask, mask]
            for k in range(2):
                assert 0 < sent[k].sum() < length  # both sides of the split are checked
                assert np.array_equal(state.accum[k], np.where(sent[k], 0.0, u[k]))
            applied = np.where(sent[0], u[0], 0.0) + np.where(sent[1], u[1], 0.0)
            assert np.array_equal(state.weights, w_prev - cfg.learning_rate.value_at(0) * applied)
            if momentum == 0.0:
                # Each step is self-contained: it applies exactly this
                # step's gradients on the masks.
                g = sum(np.where(sent[k], presets[(k, step)], 0.0) for k in range(2))
                expected = w_prev - cfg.learning_rate.value_at(0) * g
                assert np.array_equal(state.weights, expected)


def test_compressed_step_splits_all_residuals_in_place():
    # One split of the (N, P) residuals under the shared mask: the sent
    # entries are zeroed in the state's own buffer, and their sum moves the
    # weights on the mask only.
    rng = np.random.default_rng(24)
    n, length = 5, 30
    layout = LayerLayout.from_sizes([("a", 12), ("b", 18)])
    grads = rng.standard_normal((n, length)) * 0.005
    task = PresetGradientTask(layout, lambda node, step: grads[node], np.ones(length))
    cfg = TrainingConfig(
        momentum=0.0, learning_rate=EpochSchedule.constant(0.01), n_nodes=n, seed=6
    )
    state = init_state(task, cfg, MODE_COMPRESSED)
    accum = state.accum
    outcome = compressed_step(
        state,
        fixed_policy(0.03),
        MaskAgreementConfig(n_selected_nodes=2, shared_seed=8),
        cfg,
        0,
        0,
        task=task,
        topo=RingTopology.create(n, length),
    )
    shared = outcome.shared_mask.bits
    assert 0 < shared.sum() < length
    assert state.accum is accum
    assert np.array_equal(state.accum, np.where(shared, 0.0, grads))
    assert np.all(state.weights[~shared] == 1.0)
    assert np.allclose(state.weights[shared], 1.0 - 0.01 * grads[:, shared].sum(axis=0))


@pytest.mark.parametrize("mode", [MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_step_updates_weights_in_place_and_keeps_unsent_bits(mode):
    # The update is written into the state's own weight array, and an entry
    # the step did not send keeps its exact bits. Entry 0 starts at -0.0 with
    # a zero gradient: the pruned modes never send it, and dense sends 0.0.
    rng = np.random.default_rng(26)
    n, length = 4, 30
    layout = LayerLayout.from_sizes([("a", 12), ("b", 18)])
    grads = rng.standard_normal((n, length)) * 0.005
    grads[:, 0] = 0.0
    start = rng.standard_normal(length)
    start[0] = -0.0
    task = PresetGradientTask(layout, lambda node, step: grads[node], start)
    cfg = TrainingConfig(
        momentum=0.0, learning_rate=EpochSchedule.constant(0.01), n_nodes=n, seed=6
    )
    topo = RingTopology.create(n, length)
    state = init_state(task, cfg, mode)
    weights = state.weights
    if mode == MODE_DENSE:
        outcome = baseline_dense_step(state, cfg, 0, 0, task=task, topo=topo)
    elif mode == MODE_COMPRESSED:
        mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=8)
        outcome = compressed_step(
            state, fixed_policy(0.03), mask_cfg, cfg, 0, 0, task=task, topo=topo
        )
    else:
        outcome = compressed_step(
            state, fixed_policy(0.03), None, cfg, 0, 0, task=task, topo=topo
        )
    assert state.weights is weights
    if mode == MODE_DENSE:
        sent = np.ones(length, dtype=bool)
    else:
        sent = outcome.shared_mask.bits
        assert 0 < sent.sum() < length
    assert state.weights[~sent].tobytes() == start[~sent].tobytes()
    assert np.signbit(state.weights[0]) and state.weights[0] == 0.0
    assert np.any(state.weights[sent] != start[sent])


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
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.05), batch_size=4, n_nodes=2, seed=8
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=4)
    topo = RingTopology.create(2, task.layout.total_length)
    state = init_state(task, cfg, MODE_COMPRESSED)
    start = state.weights.copy()
    for step in range(6):
        outcome = compressed_step(
            state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        assert outcome.shared_mask.popcount() == 0
    assert np.array_equal(state.weights, start)
    assert np.all(staleness(state, 6) == 6)


def test_compressed_staleness_zero_iff_in_shared_mask():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=19
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.05), batch_size=4, n_nodes=2, seed=7
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=2)
    topo = RingTopology.create(2, task.layout.total_length)
    state = init_state(task, cfg, MODE_COMPRESSED)
    for step in range(5):
        outcome = compressed_step(
            state, fixed_policy(0.05), mask_cfg, cfg, step, 0, task=task, topo=topo
        )
        zeroed = staleness(state, step + 1) == 0
        assert np.array_equal(zeroed, outcome.shared_mask.bits)


@pytest.mark.parametrize("case", ["layerwise", "warmup"])
@pytest.mark.parametrize("n_nodes", [2, 3, 5, 17, 64])
def test_compressed_step_matches_all_node_oracle(n_nodes, case):
    # The oracle builds every node's local mask, as the pipeline did before
    # it built the broadcasters' only, and OR-combines the drawn ones.
    task = _lockstep_task(n_nodes)
    policy = _lockstep_policy(case)
    cfg = TrainingConfig(
        momentum=0.5, learning_rate=EpochSchedule.constant(0.01), n_nodes=n_nodes, seed=31
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=min(2, n_nodes), shared_seed=n_nodes)
    topo = RingTopology.create(n_nodes, LOCKSTEP_LAYOUT.total_length)
    state = init_state(task, cfg, MODE_COMPRESSED)
    oracle = init_state(task, cfg, MODE_COMPRESSED)
    for step in range(2):
        outcome = compressed_step(state, policy, mask_cfg, cfg, step, 0, task=task, topo=topo)
        every_mask = _local_masks(oracle, policy, cfg, step, 0, task, range(n_nodes))
        nodes = select_broadcast_nodes(n_nodes, mask_cfg, step)
        expected = or_masks([BitMask(every_mask[k]) for k in nodes])
        assert outcome.shared_mask == expected
        oracle.accum[:, expected.bits] = 0.0
        assert np.array_equal(state.accum, oracle.accum)
        oracle.weights = state.weights.copy()
    if case == "layerwise":
        assert 0 < expected.popcount() < expected.length


def test_pruned_step_scores_and_masks_only_the_broadcasters(monkeypatch):
    # A return to scoring and masking all N rows would fail here.
    import ringprune.trainer as trainer_module

    def counting(fn, seen):
        def counted(first, *args, **kwargs):
            seen.append(first.shape[0])  # rows passed
            return fn(first, *args, **kwargs)

        return counted

    rows = {"compute_importance": [], "thresholds_for": [], "build_local_mask": []}
    for name, seen in rows.items():
        monkeypatch.setattr(trainer_module, name, counting(getattr(trainer_module, name), seen))
    n = 64
    task = _lockstep_task(n)
    cfg = TrainingConfig(momentum=0.5, n_nodes=n, seed=3)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=4)
    topo = RingTopology.create(n, LOCKSTEP_LAYOUT.total_length)
    state = init_state(task, cfg, MODE_COMPRESSED)
    compressed_step(state, _lockstep_policy("warmup"), mask_cfg, cfg, 0, 0, task=task, topo=topo)
    assert rows == {name: [] for name in rows}  # warm-up scores nothing
    compressed_step(state, _lockstep_policy("layerwise"), mask_cfg, cfg, 1, 0, task=task, topo=topo)
    assert rows == {name: [2] for name in rows}


def test_pruned_step_rejects_nonfinite_residual_of_a_non_broadcaster():
    # Only the broadcasters' rows are scored, but every row is checked.
    n, step = 6, 1
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=5)
    broadcasters = select_broadcast_nodes(n, mask_cfg, step)
    bad = max(set(range(n)) - set(broadcasters))
    task = PresetGradientTask(
        LayerLayout.from_sizes([("w", 3)]),
        lambda node, s: [0.1, np.nan, 0.2] if (node, s) == (bad, step) else [0.1, 0.1, 0.1],
        initial_weights=[1.0, 1.0, 1.0],
    )
    cfg = TrainingConfig(n_nodes=n)
    policy = fixed_threshold_policy(0.05, warmup_epochs=1)
    topo = RingTopology.create(n, 3)
    state = init_state(task, cfg, MODE_COMPRESSED)
    compressed_step(state, policy, mask_cfg, cfg, 0, 0, task=task, topo=topo)
    with pytest.raises(InputError, match=f"node {bad}, index 1"):
        compressed_step(state, policy, mask_cfg, cfg, step, 1, task=task, topo=topo)


# --- dgc contrast step -------------------------------------------------------------


def test_dgc_step_updates_union_support_only():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=29
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.05), batch_size=4, n_nodes=4, seed=9
    )
    topo = RingTopology.create(4, task.layout.total_length)
    state = init_state(task, cfg, MODE_DGC_CONTRAST)
    before = state.weights.copy()
    outcome = compressed_step(
        state, fixed_policy(0.05), None, cfg, 0, 0, task=task, topo=topo
    )
    changed = state.weights != before
    assert not np.any(changed & ~outcome.shared_mask.bits)


@pytest.mark.parametrize("clip_norm", [None, 0.01])
@pytest.mark.parametrize("n_nodes", [3, 4, 5, 6])
def test_dgc_warmup_equals_baseline_exactly(n_nodes, clip_norm):
    # Criterion 2's setup, without mask agreement: every node's warm-up mask
    # is all ones, so the contrast reduce sums every entry in the dense
    # reduce's owner-first order.
    task = LinearRegressionTask(n_samples=128, n_features=8, data_seed=202)
    cfg = TrainingConfig(
        momentum=0.0,
        learning_rate=EpochSchedule.constant(0.05),
        batch_size=8,
        n_nodes=n_nodes,
        clip_norm=clip_norm,
        seed=21,
    )
    topo = RingTopology.create(n_nodes, task.layout.total_length)
    dense_state = init_state(task, cfg, MODE_DENSE)
    pruned_state = init_state(task, cfg, MODE_DGC_CONTRAST)
    policy = warmup_policy()
    for step in range(200):
        baseline_dense_step(dense_state, cfg, step, 0, task=task, topo=topo)
        outcome = compressed_step(pruned_state, policy, None, cfg, step, 0, task=task, topo=topo)
        assert outcome.shared_mask.density() == 1.0
        assert pruned_state.weights.tobytes() == dense_state.weights.tobytes(), step


def test_dgc_staleness_follows_node_0s_own_mask():
    # Node 0's staleness restarts where node 0 itself sent, not across the
    # union: an entry only another node picked is still stale at node 0.
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=29
    )
    cfg = TrainingConfig(
        momentum=0.9, learning_rate=EpochSchedule.constant(0.05), batch_size=4, n_nodes=4, seed=9
    )
    topo = RingTopology.create(4, task.layout.total_length)
    policy = fixed_policy(0.05)
    state = init_state(task, cfg, MODE_DGC_CONTRAST)
    oracle = init_state(task, cfg, MODE_DGC_CONTRAST)
    others_only = 0
    for step in range(4):
        masks = _local_masks(oracle, policy, cfg, step, 0, task, range(4))
        outcome = compressed_step(state, policy, None, cfg, step, 0, task=task, topo=topo)
        assert outcome.shared_mask == or_masks([BitMask(m) for m in masks])
        stale = staleness(state, step + 1)
        assert np.array_equal(stale == 0, masks[0])
        not_node_0 = outcome.shared_mask.bits & ~masks[0]
        assert np.all(stale[not_node_0] > 0)
        others_only += int(not_node_0.sum())
        oracle.accum[masks] = 0.0
        oracle.weights = state.weights.copy()
    assert others_only > 0


# --- run_experiment ------------------------------------------------------------------


@pytest.mark.parametrize("mode", [MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_run_zero_epochs_emits_initial_row_only(mode):
    task = LinearRegressionTask(n_samples=32)
    cfg = TrainingConfig(epochs=0, n_nodes=2)
    result = run_experiment(
        task, cfg, warmup_policy(), MaskAgreementConfig(n_selected_nodes=1), mode
    )
    loss, accuracy = task.evaluate(init_state(task, cfg, mode).weights)
    assert result.metrics == [
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


def test_run_dense_linear_loss_monotone():
    # Full-batch descent on a convex quadratic with a small step.
    task = LinearRegressionTask(n_samples=64, n_features=4, data_seed=31)
    # batch_size 32 on 2 nodes is the whole shard, so every step is exact
    # full-batch descent.
    cfg = TrainingConfig(
        momentum=0.0,
        learning_rate=EpochSchedule.constant(0.001),
        batch_size=32,
        n_nodes=2,
        epochs=25,
        seed=11,
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
        momentum=0.9,
        learning_rate=EpochSchedule.constant(1e6),
        batch_size=8,
        n_nodes=2,
        epochs=50,
        seed=13,
    )
    with pytest.raises(DivergenceError, match=r"at step 26 \(epoch 6\)"):
        run_experiment(task, cfg, policy, MaskAgreementConfig(n_selected_nodes=1), mode)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize(
    "mode, policy",
    [(MODE_COMPRESSED, warmup_policy()), (MODE_DGC_CONTRAST, fixed_policy(0.05))],
    ids=["compressed", "dgc_contrast"],
)
def test_run_divergence_on_non_finite_residual(mode, policy):
    # Class centres near the float maximum overflow the first gradient, so a
    # pruned step's residual check fails before any loss is recorded.
    task = MlpClassificationTask(n_samples=64, center_scale=1.7e308)
    cfg = TrainingConfig(batch_size=8, n_nodes=2, epochs=1)
    with pytest.raises(
        DivergenceError, match=r"non-finite gradient at node 0, index 0 at step 1 \(epoch 0\)"
    ) as caught:
        run_experiment(task, cfg, policy, MaskAgreementConfig(n_selected_nodes=1), mode)
    assert isinstance(caught.value.__cause__, InputError)


def test_run_is_deterministic():
    task = MlpClassificationTask(
        n_samples=128, n_features=8, hidden_units=10, n_classes=3, data_seed=41
    )
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.05),
        batch_size=8,
        n_nodes=2,
        epochs=3,
        seed=15,
    )
    policy = fixed_threshold_policy(0.02, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=21)
    a = run_experiment(task, cfg, policy, mask_cfg, MODE_COMPRESSED)
    b = run_experiment(task, cfg, policy, mask_cfg, MODE_COMPRESSED)
    assert [m.loss for m in a.metrics] == [m.loss for m in b.metrics]
    assert a.stats.records == b.stats.records


@pytest.mark.parametrize(
    "mode, n_selected", [(MODE_COMPRESSED, 1), (MODE_COMPRESSED, 2), (MODE_DGC_CONTRAST, 2)]
)
def test_run_message_count_per_step(mode, n_selected):
    # The count the benchmark reports as ring.messages: 2N(N-1) reduce
    # messages per step, and in a compressed step R(N-1) mask forwards, one
    # per hop of each of the R broadcasters' masks. Warm-up and pruned steps
    # alike run a mask round.
    n = 5
    task = MlpClassificationTask(
        n_samples=80, n_features=6, hidden_units=8, n_classes=3, data_seed=44
    )
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.05),
        batch_size=4,
        n_nodes=n,
        epochs=2,
        seed=18,
    )
    policy = fixed_threshold_policy(0.05, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=n_selected, shared_seed=24)
    result = run_experiment(task, cfg, policy, mask_cfg, mode)
    n_steps = len(result.metrics) - 1
    assert n_steps == 8
    mask_forwards = n_selected * (n - 1) if mode == MODE_COMPRESSED else 0
    assert len(result.stats.records) == n_steps * (2 * n * (n - 1) + mask_forwards)


def test_run_modes_emit_schema_fields():
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=43
    )
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.02),
        batch_size=8,
        n_nodes=2,
        epochs=2,
        seed=17,
    )
    policy = fixed_threshold_policy(0.05, warmup_epochs=1)
    mask_cfg = MaskAgreementConfig(n_selected_nodes=1, shared_seed=23)
    for mode in (MODE_DENSE, MODE_COMPRESSED, MODE_DGC_CONTRAST):
        result = run_experiment(task, cfg, policy, mask_cfg, mode)
        row = result.metrics[-1]
        assert row.mode == mode
        assert row.bytes_total > 0
        assert row.accuracy is not None
        if mode == MODE_DENSE:
            # Every entry is sent on every dense step.
            assert all(m.staleness_max == 0 for m in result.metrics)


# --- compression ratio rows ----------------------------------------------------
# A row's compression_ratio is the dense allgather bytes over the step's:
# P x 4 over k x 4 for the k entries the agreed reduce delivered (values
# only), and over k x (4 + 4) for the contrast's (value and index).


def _ratio_rows(mode, policy, epochs=2):
    """P and the per-step rows of a small four-node MLP run."""
    task = MlpClassificationTask(
        n_samples=64, n_features=6, hidden_units=8, n_classes=3, data_seed=43
    )
    cfg = TrainingConfig(
        momentum=0.9,
        learning_rate=EpochSchedule.constant(0.02),
        batch_size=4,
        n_nodes=4,
        epochs=epochs,
        seed=17,
    )
    mask_cfg = MaskAgreementConfig(n_selected_nodes=2, shared_seed=23)
    result = run_experiment(task, cfg, policy, mask_cfg, mode)
    return task.layout.total_length, result.metrics[1:]


def test_dense_rows_read_density_and_ratio_one():
    _, rows = _ratio_rows(MODE_DENSE, fixed_policy(0.05))
    assert rows and all(m.mean_density == 1.0 and m.compression_ratio == 1.0 for m in rows)


# Bytes per delivered entry: the agreed reduce sends values only, the
# contrast a value and an index.
_ENTRY_BYTES = {MODE_COMPRESSED: 4, MODE_DGC_CONTRAST: 8}


@pytest.mark.parametrize("mode", [MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_warmup_rows_read_half(mode):
    # Every entry sent: the agreed reduce's 4-byte values cost exactly dense's
    # bytes (1.0), while the contrast's 4 + 4 bytes against 4 read half.
    ratio = 4 / _ENTRY_BYTES[mode]
    _, rows = _ratio_rows(mode, warmup_policy())
    assert rows and all(m.mean_density == 1.0 and m.compression_ratio == ratio for m in rows)


@pytest.mark.parametrize("mode", [MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_pruned_rows_read_dense_over_sparse_payload(mode):
    # Exact for every k, so the ratio falls strictly as k grows.
    length, rows = _ratio_rows(mode, fixed_policy(1.0), epochs=4)
    counts = [round(m.mean_density * length) for m in rows]
    assert len(set(counts)) > 2 and 0 < min(counts) and max(counts) < length
    for m, k in zip(rows, counts):
        assert m.compression_ratio == length * 4 / (k * _ENTRY_BYTES[mode]), (
            k,
            m.compression_ratio,
        )


def test_pruned_row_canonical_ratio():
    # 1000 entries, 4 B dense; 25 sent at 4 B: 4000 / 100 = 40x. A zero
    # gradient scores 0 and is never drawn, so exactly the 25 are sent.
    length = 1000
    grad = np.zeros(length)
    grad[np.linspace(0, length - 1, 25).astype(int)] = 1.0
    task = PresetGradientTask(
        LayerLayout.from_sizes([("w", length)]), lambda node, step: grad, np.ones(length)
    )
    task.n_samples = 16  # one step per epoch at 2 nodes x batch 8
    cfg = TrainingConfig(momentum=0.0, batch_size=8, n_nodes=2, epochs=1)
    result = run_experiment(
        task, cfg, fixed_policy(0.5), MaskAgreementConfig(n_selected_nodes=1), MODE_COMPRESSED
    )
    assert [m.compression_ratio for m in result.metrics[1:]] == [40.0]


@pytest.mark.parametrize("mode", [MODE_COMPRESSED, MODE_DGC_CONTRAST])
def test_empty_payload_rows_read_infinite_ratio(mode):
    policy = ThresholdPolicy(
        base=EpochSchedule.constant(math.inf), thr_max=math.inf, warmup_epochs=0
    )
    _, rows = _ratio_rows(mode, policy)
    assert rows and all(m.mean_density == 0.0 and m.compression_ratio == math.inf for m in rows)


# Staleness vectors as runs produce them: all zeros in warm-up, then a few
# distinct counts over many entries, or any non-negative values.
_staleness_vectors = st.one_of(
    st.integers(1, 300).map(lambda n: np.zeros(n, dtype=np.int64)),
    st.lists(st.sampled_from((0, 1, 7, 30)), min_size=1, max_size=300),
    st.lists(st.integers(0, 40), min_size=1, max_size=40),
    st.integers(0, 10**6).map(lambda v: [v]),
)


@given(_staleness_vectors)
@settings(max_examples=300, deadline=None)
def test_staleness_percentiles_match_numpy(values):
    staleness = np.asarray(values, dtype=np.int64)
    assert _staleness_percentiles(staleness) == (
        int(np.percentile(staleness, 50, method="lower")),
        int(np.percentile(staleness, 90, method="lower")),
        int(staleness.max()),
    )


# --- node gradients ------------------------------------------------------------------


GRADIENT_TASKS = {
    "mlp-20x48": lambda: MlpClassificationTask(n_samples=2051, data_seed=47),
    # a batch of 8 x 1024 activations is 8,192 elements: 4 nodes per call
    "mlp-64x1024": lambda: MlpClassificationTask(
        n_samples=2051, n_features=64, hidden_units=1024, data_seed=47
    ),
    "mlp-7x9": lambda: MlpClassificationTask(
        n_samples=2051, n_features=7, hidden_units=9, n_classes=3, data_seed=47
    ),
    "linear": lambda: LinearRegressionTask(n_samples=2051, data_seed=47),
}


def record_gradient_calls(task) -> list:
    """Wrap ``task.gradient_sum`` to record each call's first sample row and
    index shape. A wide call runs its chunks on two threads, so the record's
    order need not be the chunks' order."""
    calls = []
    gradient_sum = task.gradient_sum

    def recording(weights, idx, out=None):
        calls.append((int(idx.flat[0]), idx.shape))
        return gradient_sum(weights, idx, out=out)

    task.gradient_sum = recording
    return calls


@pytest.mark.parametrize("clipped", [False, True])
@pytest.mark.parametrize("n_nodes", [2, 3, 5, 17, 64])
@pytest.mark.parametrize("shape", sorted(GRADIENT_TASKS))
def test_batched_gradients_match_per_node_loop(shape, n_nodes, clipped):
    """The trainer's one-call gradient rows are bit-identical to the per-node
    loop. 2051 samples split unevenly over every N here. A call runs each
    row-wise product as one 2-D GEMM over all of its rows (per batch where
    only that GEMM would cross SMALL_GEMM_MACS). Its class maximum, and its
    row sum below 8 classes, are column folds in numpy's own order, and the
    sum from 8 classes on is np.sum itself. The GEMMs' share rests
    on the BLAS computing each row block of a 2-D product, and each slice of
    a stacked matmul, as it computes a lone 2-D product. That holds for the
    pinned numpy's OpenBLAS under its SkylakeX kernels, for which the pinned
    digests hold, and under its Haswell kernels, but is not promised:
    another BLAS can break it, and then this test fails."""
    task = GRADIENT_TASKS[shape]()
    cfg = TrainingConfig(n_nodes=n_nodes, batch_size=8, seed=5)
    state = init_state(task, cfg, MODE_DENSE)
    state.weights = state.weights + 0.1  # non-zero linear intercept and biases
    calls = record_gradient_calls(task)
    for step in (0, 5, 17):
        if clipped:
            norms = np.linalg.norm(task.node_gradient(state.weights, step, n_nodes, 8), axis=1)
            cfg = TrainingConfig(
                n_nodes=n_nodes, batch_size=8, seed=5, clip_norm=float(np.median(norms))
            )
        calls.clear()
        got = _node_gradients(state, cfg, step, task)
        batched_calls = list(calls)
        expected = node_gradients(task, state.weights, cfg, step)
        assert np.array_equal(got, expected), (
            f"batched gradient rows differ from the per-node loop at step {step} "
            f"(max |diff| {np.max(np.abs(got - expected))}): this BLAS rounds a "
            "stacked matmul's slices differently from lone 2-D products"
        )
        chunk = 4 if shape == "mlp-64x1024" else n_nodes
        first_rows = task.batch_indices(step, n_nodes, 8)[:, 0]
        assert sorted(batched_calls) == sorted(
            (int(first_rows[start]), (min(chunk, n_nodes - start), 8))
            for start in range(0, n_nodes, chunk)
        )
        if clipped:
            assert np.any(norms > cfg.clip_norm) and np.any(norms <= cfg.clip_norm)


def test_gradient_chunks_follow_activation_size():
    """At ring64-pruned's shape every node shares one call; at wide4-pruned's
    (batch 64 x hidden 1024) each node gets its own."""
    cases = [
        (MlpClassificationTask(n_samples=4096), 64, 8, [(64, 8)]),
        (
            MlpClassificationTask(n_samples=4096, n_features=64, hidden_units=1024),
            4,
            64,
            [(1, 64)] * 4,
        ),
    ]
    for task, n_nodes, batch_size, expected in cases:
        calls = record_gradient_calls(task)
        weights = task.init_weights(np.random.default_rng(0))
        task.node_gradient(weights, 0, n_nodes, batch_size)
        assert [shape for _, shape in calls] == expected


def test_local_gradient_shape_checked():
    layout = LayerLayout.from_sizes([("w", 3)])
    cfg = TrainingConfig(n_nodes=2)
    zeros = PresetGradientTask(layout, lambda n, s: np.zeros(3), np.zeros(3))
    state = init_state(zeros, cfg, MODE_DENSE)
    wrong_length = PresetGradientTask(layout, lambda n, s: np.zeros(4), np.zeros(3))
    with pytest.raises(StructuralError, match=r"\(2, 4\) does not match \(2, 3\)"):
        _node_gradients(state, cfg, 0, wrong_length)

    class OneRowTask(PresetGradientTask):
        def node_gradient(self, weights, step, n_nodes, batch_size):
            return self.preset(0, step)

    one_row = OneRowTask(layout, lambda n, s: np.zeros(3), np.zeros(3))
    with pytest.raises(StructuralError, match=r"\(3,\) does not match \(2, 3\)"):
        _node_gradients(state, cfg, 0, one_row)
