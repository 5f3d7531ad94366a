import math

import numpy as np
import pytest

from ringprune import (
    ConfigError,
    EpochSchedule,
    InputError,
    LayerLayout,
    LayerStats,
    ParamStream,
    StructuralError,
    ThresholdPolicy,
    build_local_mask,
    compute_importance,
    layer_stats,
    layer_threshold,
)

SINGLE = LayerLayout.from_sizes([("all", 3)])


def _imp(scores, layout=None):
    layout = layout or LayerLayout.from_sizes([("all", len(scores))])
    g = np.asarray(scores, dtype=float)
    return compute_importance(g, np.ones(len(g)), layout)


# --- compute_importance ---------------------------------------------------


def test_importance_direct_ratio():
    imp = compute_importance(
        np.array([0.2, -0.1, 0.0]), np.array([2.0, 0.5, 1.0]), SINGLE
    )
    assert np.array_equal(imp.scores, [0.1, 0.2, 0.0])


def test_importance_zero_weight_guard():
    layout = LayerLayout.from_sizes([("all", 1)])
    imp = compute_importance(np.array([0.3]), np.array([0.0]), layout, eps=1e-8)
    assert imp.scores[0] == 3.0e7


def test_importance_matches_scalar_loop_oracle():
    # Oracle written first: plain per-element loop, no vector ops.
    rng = np.random.default_rng(7)
    g = rng.standard_normal(1000)
    w = rng.standard_normal(1000)
    w[np.abs(w) < 1e-3] += 1.0  # keep weights away from the eps guard
    eps = 1e-8
    expected = np.array([abs(g[i]) / max(abs(w[i]), eps) for i in range(1000)])
    layout = LayerLayout.from_sizes([("all", 1000)])
    imp = compute_importance(g, w, layout, eps=eps)
    assert np.array_equal(imp.scores, expected)  # 0-ulp match


def test_importance_scale_covariance():
    rng = np.random.default_rng(8)
    g = rng.standard_normal(200)
    w = np.sign(rng.standard_normal(200)) * (0.5 + rng.random(200))
    layout = LayerLayout.from_sizes([("all", 200)])
    base = compute_importance(g, w, layout).scores
    scaled = compute_importance(4.0 * g, w, layout).scores
    assert np.allclose(scaled, 4.0 * base, rtol=1e-15)


def test_importance_length_mismatch():
    with pytest.raises(StructuralError):
        compute_importance(np.zeros(3), np.zeros(4), SINGLE)


def test_importance_nonfinite_identifies_index():
    g = np.array([0.0, np.nan, 0.0])
    with pytest.raises(InputError, match="index 1"):
        compute_importance(g, np.ones(3), SINGLE)
    w = np.array([1.0, 1.0, np.inf])
    with pytest.raises(InputError, match="index 2"):
        compute_importance(np.zeros(3), w, SINGLE)
    # Node-stacked residuals: the first bad entry in node order, by node and index.
    stacked = np.zeros((3, 3))
    stacked[1, 2] = np.nan
    stacked[2, 0] = np.inf
    with pytest.raises(InputError, match=r"gradient at node 1, index 2$"):
        compute_importance(stacked, np.ones(3), SINGLE)
    with pytest.raises(InputError, match=r"weight at index 2$"):
        compute_importance(np.zeros((3, 3)), w, SINGLE)


def test_importance_bad_eps():
    with pytest.raises(InputError):
        compute_importance(np.zeros(3), np.ones(3), SINGLE, eps=0.0)


# --- layer_stats -----------------------------------------------------------


def test_stats_constant_layer():
    st = layer_stats(_imp([0.1, 0.1, 0.1]), 0)
    assert st.mean == pytest.approx(0.1)
    assert st.variance == 0.0
    assert st.ratio == 0.0


def test_stats_two_point():
    st = layer_stats(_imp([0.0, 0.2]), 0)
    assert st.mean == pytest.approx(0.1)
    assert st.variance == pytest.approx(0.01)
    assert st.ratio == pytest.approx(0.1)


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(9)
    scores = rng.random(500)
    # Two-pass scalar oracle.
    mean = sum(float(s) for s in scores) / 500
    var = sum((float(s) - mean) ** 2 for s in scores) / 500
    st = layer_stats(_imp(scores), 0)
    assert st.mean == pytest.approx(mean, rel=1e-12)
    assert st.variance == pytest.approx(var, rel=1e-12)


def test_stats_zero_mean_guard():
    st = layer_stats(_imp([0.0, 0.0]), 0)
    assert st.ratio == 0.0  # 0 / max(0, 1e-12)


def test_stats_layer_out_of_range():
    with pytest.raises(StructuralError):
        layer_stats(_imp([0.1]), 3)


# --- layer_threshold --------------------------------------------------------


def _policy(base, weight, **kwargs):
    return ThresholdPolicy(
        base=EpochSchedule.constant(base),
        ratio_weight=EpochSchedule.constant(weight),
        warmup_epochs=kwargs.pop("warmup_epochs", 0),
        **kwargs,
    )


def test_threshold_upper_branch():
    st = LayerStats(mean=1.0, variance=2.0, ratio=2.0)
    assert layer_threshold(_policy(0.01, 0.002), 0, st) == pytest.approx(0.014)


def test_threshold_lower_branch():
    st = LayerStats(mean=1.0, variance=0.5, ratio=0.5)
    assert layer_threshold(_policy(0.01, 0.002), 0, st) == pytest.approx(0.009)


def test_threshold_clamps_at_floor():
    st = LayerStats(mean=1.0, variance=0.5, ratio=0.5)
    assert layer_threshold(_policy(0.001, 0.1, thr_min=1e-6), 0, st) == 1e-6


def test_threshold_clamps_at_ceiling():
    st = LayerStats(mean=1.0, variance=100.0, ratio=100.0)
    assert layer_threshold(_policy(0.5, 0.1, thr_max=1.0), 0, st) == 1.0


def test_threshold_warmup_is_dense():
    st = LayerStats(mean=1.0, variance=2.0, ratio=2.0)
    pol = _policy(0.01, 0.002, warmup_epochs=2)
    assert layer_threshold(pol, 0, st) == 0.0
    assert layer_threshold(pol, 1, st) == 0.0
    assert layer_threshold(pol, 2, st) == pytest.approx(0.014)


def test_threshold_epoch_outside_schedule():
    pol = ThresholdPolicy(
        base=EpochSchedule(((0, 5, 0.01),)),
        ratio_weight=EpochSchedule.constant(0.0),
        warmup_epochs=0,
    )
    st = LayerStats(mean=1.0, variance=0.0, ratio=0.0)
    assert layer_threshold(pol, 4, st) == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        layer_threshold(pol, 5, st)


def test_threshold_piecewise_monotone_and_bounded():
    pol = _policy(0.01, 0.003, thr_min=1e-6, thr_max=0.05)
    pivot = pol.ratio_pivot
    above = [pivot + r for r in (0.1, 0.5, 1.0, 5.0, 50.0)]
    thr_above = [
        layer_threshold(pol, 0, LayerStats(mean=1.0, variance=r, ratio=r))
        for r in above
    ]
    assert all(b >= a for a, b in zip(thr_above, thr_above[1:]))
    below = [0.0, 0.2, 0.5, 0.9, pivot]
    thr_below = [
        layer_threshold(pol, 0, LayerStats(mean=1.0, variance=r, ratio=r))
        for r in below
    ]
    assert all(b <= a for a, b in zip(thr_below, thr_below[1:]))
    for thr in thr_above + thr_below:
        assert pol.thr_min <= thr <= pol.thr_max


def test_threshold_scale_multiplier():
    st = LayerStats(mean=1.0, variance=2.0, ratio=2.0)
    assert layer_threshold(_policy(0.01, 0.002, scale=2.0), 0, st) == pytest.approx(0.028)


def test_policy_validation():
    with pytest.raises(ConfigError):
        _policy(0.01, 0.0, thr_min=0.0)
    with pytest.raises(ConfigError):
        _policy(0.01, 0.0, thr_min=0.5, thr_max=0.1)
    with pytest.raises(ConfigError):
        _policy(0.01, 0.0, ratio_pivot=0.0)
    with pytest.raises(ConfigError):
        ThresholdPolicy(
            base=EpochSchedule.constant(0.01),
            ratio_weight=EpochSchedule.constant(0.0),
            warmup_epochs=-1,
        )


def test_schedule_span_validation():
    with pytest.raises(ConfigError):
        EpochSchedule(((5, 5, 0.1),))
    with pytest.raises(ConfigError):
        EpochSchedule(((0, 5, 0.1), (3, 8, 0.2)))
    sched = EpochSchedule(((0, 5, 0.1), (5, 10, 0.2)))
    assert sched.value_at(4) == 0.1
    assert sched.value_at(5) == 0.2
    assert sched.covers(0, 9)
    assert not sched.covers(0, 10)


# --- build_local_mask --------------------------------------------------------


def _stream():
    return ParamStream(seed=42, node=0, step=0)


def test_mask_at_or_above_threshold_deterministic():
    imp = _imp([0.02, 0.01])
    mask = build_local_mask(imp, [0.01], _stream())
    assert mask.bits.tolist() == [True, True]


def test_mask_zero_score_never_selected():
    imp = _imp([0.0] * 50)
    mask = build_local_mask(imp, [0.01], _stream())
    assert mask.popcount() == 0


def test_mask_zero_threshold_selects_all():
    imp = _imp([0.0, 0.5, 0.001])
    mask = build_local_mask(imp, [0.0], _stream())
    assert mask.popcount() == 3


def test_mask_infinite_threshold_selects_none():
    imp = _imp([0.9, 0.5, 100.0])
    mask = build_local_mask(imp, [math.inf], _stream())
    assert mask.popcount() == 0


def test_mask_probabilistic_inclusion_frequency():
    # Monte Carlo against the binomial bound: p = 0.007 / 0.01 = 0.7.
    n = 10_000
    layout = LayerLayout.from_sizes([("all", n)])
    imp = compute_importance(np.full(n, 0.007), np.ones(n), layout)
    mask = build_local_mask(imp, [0.01], _stream())
    p = 0.7
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(mask.density() - p) < 3 * sigma


def test_mask_reproducible_for_fixed_seed():
    imp = _imp(np.random.default_rng(3).random(500) * 0.02)
    a = build_local_mask(imp, [0.01], ParamStream(7, 2, 11))
    b = build_local_mask(imp, [0.01], ParamStream(7, 2, 11))
    assert a == b
    c = build_local_mask(imp, [0.01], ParamStream(7, 2, 12))
    assert a != c  # different step, different draw


def test_mask_per_layer_thresholds():
    layout = LayerLayout.from_sizes([("a", 2), ("b", 2)])
    g = np.array([0.2, 0.0, 0.2, 0.0])
    imp = compute_importance(g, np.ones(4), layout)
    mask = build_local_mask(imp, [0.1, math.inf], _stream())
    assert mask.bits.tolist() == [True, False, False, False]


def test_mask_negative_threshold_rejected():
    imp = _imp([0.1])
    with pytest.raises(InputError):
        build_local_mask(imp, [-0.5], _stream())


def test_mask_threshold_count_mismatch():
    imp = _imp([0.1, 0.2])
    with pytest.raises(StructuralError):
        build_local_mask(imp, [0.1, 0.2], _stream())
