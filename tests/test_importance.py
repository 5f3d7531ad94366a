import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringprune import (
    BitMask,
    ConfigError,
    EpochSchedule,
    InputError,
    LayerLayout,
    StructuralError,
    ThresholdPolicy,
    build_local_mask,
    compute_importance,
    split_by_mask,
    thresholds_for,
)
from ringprune.importance import (
    DEFAULT_WEIGHT_EPS,
    SCHEDULE_OPEN_END,
    STAT_EPS,
    check_finite,
)

from oracles import ParamStream, reference_masks, reference_thresholds

SINGLE = LayerLayout.from_sizes([("all", 3)])


def _imp(rows):
    """(scores, layout) of a stack of single-layer score rows."""
    g = np.asarray(rows, dtype=float)
    layout = LayerLayout.from_sizes([("all", g.shape[1])])
    return compute_importance(g, np.ones(g.shape[1]), layout), layout


# --- compute_importance ---------------------------------------------------


def test_importance_direct_ratio():
    scores = compute_importance(
        np.array([[0.2, -0.1, 0.0]]), np.array([2.0, 0.5, 1.0]), SINGLE
    )
    assert np.array_equal(scores, [[0.1, 0.2, 0.0]])


def test_importance_zero_weight_guard():
    layout = LayerLayout.from_sizes([("all", 1)])
    scores = compute_importance(np.array([[0.3]]), np.array([0.0]), layout)
    assert scores[0, 0] == 0.3 / DEFAULT_WEIGHT_EPS == 3.0e7


def test_importance_matches_scalar_loop_oracle():
    # Oracle written first: plain per-element loop, no vector ops.
    rng = np.random.default_rng(7)
    g = rng.standard_normal(1000)
    w = rng.standard_normal(1000)
    w[np.abs(w) < 1e-3] += 1.0  # keep weights away from the eps guard
    w[::97] = 0.0  # and put some on it
    expected = np.array([abs(g[i]) / max(abs(w[i]), DEFAULT_WEIGHT_EPS) for i in range(1000)])
    layout = LayerLayout.from_sizes([("all", 1000)])
    scores = compute_importance(g[None], w, layout)
    assert np.array_equal(scores[0], expected)  # 0-ulp match


def test_importance_scale_covariance():
    rng = np.random.default_rng(8)
    g = rng.standard_normal(200)
    w = np.sign(rng.standard_normal(200)) * (0.5 + rng.random(200))
    layout = LayerLayout.from_sizes([("all", 200)])
    base = compute_importance(g[None], w, layout)
    scaled = compute_importance(4.0 * g[None], w, layout)
    assert np.allclose(scaled, 4.0 * base, rtol=1e-15)


def test_importance_length_mismatch():
    with pytest.raises(StructuralError):
        compute_importance(np.zeros((1, 3)), np.zeros(4), SINGLE)


def test_importance_nonfinite_identifies_index():
    g = np.array([[0.0, np.nan, 0.0]])
    with pytest.raises(InputError, match="node 0, index 1"):
        check_finite(g, np.ones(3))
    w = np.array([1.0, 1.0, np.inf])
    with pytest.raises(InputError, match="weight at index 2$"):
        check_finite(np.zeros((1, 3)), w)
    # Node-stacked residuals: the first bad entry in node order, by node and index.
    stacked = np.zeros((3, 3))
    stacked[1, 2] = np.nan
    stacked[2, 0] = np.inf
    with pytest.raises(InputError, match=r"gradient at node 1, index 2$"):
        check_finite(stacked, np.ones(3))
    with pytest.raises(InputError, match=r"weight at index 2$"):
        check_finite(np.zeros((3, 3)), w)


# --- thresholds_for -----------------------------------------------------------


def _policy(base, weight, **kwargs):
    return ThresholdPolicy(
        base=EpochSchedule.constant(base),
        ratio_weight=EpochSchedule.constant(weight),
        warmup_epochs=kwargs.pop("warmup_epochs", 0),
        **kwargs,
    )


# Under this policy a positive dispersion ratio is its own threshold
# (0 + 1 * ratio, above the pivot and inside the clamp), and a ratio of 0
# takes the lower branch to 0 and is clamped up to RATIO_ZERO.
RATIO_ZERO = 5e-324
RATIO_READOUT = _policy(0.0, 1.0, ratio_pivot=RATIO_ZERO, thr_min=RATIO_ZERO, thr_max=math.inf)


def _ratios(rows):
    """Dispersion ratio of each single-layer row, read through thresholds_for."""
    thr = thresholds_for(*_imp(rows), RATIO_READOUT, 0)
    return thr[:, 0].tolist()


def test_stats_constant_layer():
    # Exactly 0, where the two-pass variance of [0.1] * 3 would not be.
    assert _ratios([[0.1, 0.1, 0.1], [7.0, 7.0, 7.0]]) == [RATIO_ZERO, RATIO_ZERO]
    single = thresholds_for(*_imp([[0.3]]), RATIO_READOUT, 0)
    assert single.tolist() == [[RATIO_ZERO]]


def test_stats_two_point():
    # [0, 2m] has mean m and variance m**2, so its ratio is m.
    assert _ratios([[0.0, 4.0], [0.0, 1.0], [0.0, 200.0]]) == [2.0, 0.5, 100.0]


def test_stats_match_two_pass_oracle():
    rng = np.random.default_rng(9)
    scores = rng.random(500)
    # Two-pass scalar oracle.
    mean = sum(float(s) for s in scores) / 500
    var = sum((float(s) - mean) ** 2 for s in scores) / 500
    (ratio,) = _ratios([scores])
    assert ratio == pytest.approx(var / mean, rel=1e-12)


def test_stats_zero_mean_guard():
    # An all-zero layer has ratio 0, not 0 / 0; a tiny mean is floored at STAT_EPS.
    assert _ratios([[0.0, 0.0], [0.0, 1e-13]]) == [RATIO_ZERO, 5e-14 * 5e-14 / STAT_EPS]


def test_stats_layer_out_of_range():
    # Layers that reach past the scores are refused before any layer is read.
    layout = LayerLayout.from_sizes([("a", 1), ("b", 3)])
    scores = np.array([[0.1]])
    with pytest.raises(StructuralError, match=r"expected \(rows, 4\)"):
        thresholds_for(scores, layout, RATIO_READOUT, 0)
    with pytest.raises(StructuralError, match=r"expected \(rows, 4\)"):
        build_local_mask(scores, layout, [[0.1, 0.1]], SEED, STEP, (0,))


def test_threshold_upper_branch():
    thr = thresholds_for(*_imp([[0.0, 4.0]]), _policy(0.01, 0.002), 0)  # ratio 2.0
    assert thr.tolist() == [[0.01 + 0.002 * 2.0]]


def test_threshold_lower_branch():
    thr = thresholds_for(*_imp([[0.0, 1.0]]), _policy(0.01, 0.002), 0)  # ratio 0.5
    assert thr.tolist() == [[0.01 - 0.002 * 0.5]]


def test_threshold_clamps_at_floor():
    thr = thresholds_for(*_imp([[0.0, 1.0]]), _policy(0.001, 0.1, thr_min=1e-6), 0)
    assert thr.tolist() == [[1e-6]]


def test_threshold_clamps_at_ceiling():
    thr = thresholds_for(*_imp([[0.0, 200.0]]), _policy(0.5, 0.1, thr_max=1.0), 0)
    assert thr.tolist() == [[1.0]]


def test_threshold_zero_weight_ignores_overflowed_ratio():
    """A layer whose score variance overflows to inf (numpy warns) has an
    infinite ratio; under the default policy's zero weight it still gets the
    clamped base, not 0 * inf = NaN, and its mask builds."""
    scores, layout = _imp([[1e160, 1.0, 2.0, 3.0]])
    policy = ThresholdPolicy()
    with np.errstate(over="ignore"):
        ratios, expected = reference_thresholds(scores, layout, policy, 0)
    assert ratios.tolist() == [[math.inf]]
    with pytest.warns(RuntimeWarning, match="overflow"):
        thr = thresholds_for(scores, layout, policy, 0)
    assert thr.tolist() == expected.tolist() == [[0.01]]
    (mask,) = build_local_mask(scores, layout, thr, SEED, STEP, (0,))
    assert mask[0]
    # A non-zero weight sends the infinite ratio to the ceiling.
    with pytest.warns(RuntimeWarning, match="overflow"):
        thr = thresholds_for(scores, layout, _policy(0.01, 0.002), 0)
    assert thr.tolist() == [[1.0]]


def test_threshold_epoch_outside_schedule():
    pol = ThresholdPolicy(
        base=EpochSchedule(((0, 5, 0.01),)),
        ratio_weight=EpochSchedule.constant(0.0),
        warmup_epochs=0,
    )
    scores, layout = _imp([[0.1, 0.1]])
    assert thresholds_for(scores, layout, pol, 4).tolist() == [[0.01]]
    with pytest.raises(ConfigError):
        thresholds_for(scores, layout, pol, 5)


def test_threshold_piecewise_monotone_and_bounded():
    pol = _policy(0.01, 0.003, thr_min=1e-6, thr_max=0.05)
    pivot = pol.ratio_pivot
    # Row [0, 2r] has a ratio of r, up to rounding.
    above = [pivot + r for r in (0.1, 0.5, 1.0, 5.0, 50.0)]
    below = [0.0, 0.2, 0.5, 0.9, pivot]
    thr = thresholds_for(*_imp([[0.0, 2 * r] for r in above + below]), pol, 0)[:, 0]
    thr_above, thr_below = thr[: len(above)], thr[len(above) :]
    assert np.all(np.diff(thr_above) >= 0)
    assert np.all(np.diff(thr_below) <= 0)
    assert np.all((pol.thr_min <= thr) & (thr <= pol.thr_max))


def test_thresholds_match_rule_oracle():
    # Random policies and score stacks, against the rule applied one row and
    # one layer at a time. Layer scales put the ratios (about scale / 6) on
    # both sides of the pivot; the first row has an all-zero layer and the
    # last a constant one.
    rng = np.random.default_rng(12)
    layout = LayerLayout.from_sizes([("one", 1), ("a", 7), ("b", 40), ("c", 300), ("d", 9000)])
    hits = {"upper": 0, "lower": 0, "floor": 0, "ceiling": 0, "constant": 0}
    for trial in range(60):
        n_rows = int(rng.integers(1, 9))
        scales = np.repeat(10.0 ** rng.uniform(-3, 2, (n_rows, 5)), layout.lengths, axis=1)
        scores = rng.random((n_rows, layout.total_length)) * scales
        scores[0, layout.slices[1]] = 0.0
        scores[-1, layout.slices[2]] = 0.25
        thr_min = 10.0 ** rng.uniform(-6, -2)
        thr_max = math.inf if trial % 3 == 0 else thr_min + 10.0 ** rng.uniform(-3, 1)
        policy = _policy(
            rng.uniform(0.0, 0.5),
            rng.uniform(0.0, 0.2),
            ratio_pivot=10.0 ** rng.uniform(-2, 1),
            thr_min=thr_min,
            thr_max=thr_max,
        )
        scores = compute_importance(scores, np.ones(layout.total_length), layout)
        ratios, expected = reference_thresholds(scores, layout, policy, 0)
        thr = thresholds_for(scores, layout, policy, 0)
        assert thr.shape == (n_rows, layout.n_layers)
        assert np.array_equal(thr, expected), f"trial {trial}"
        # A stack of one row gives that row of the stacked result.
        assert np.array_equal(thresholds_for(scores[-1:], layout, policy, 0), expected[-1:])
        hits["upper"] += np.sum(ratios > policy.ratio_pivot)
        hits["lower"] += np.sum(ratios <= policy.ratio_pivot)
        hits["floor"] += np.sum(thr == thr_min)
        hits["ceiling"] += np.sum(thr == thr_max)
        hits["constant"] += np.sum(ratios == 0.0)
    assert all(hits.values()), hits


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


@st.composite
def _schedules(draw):
    """Valid span lists: sorted and disjoint, each next span adjacent to the
    last or after a gap, the last one open-ended or not."""
    spans = []
    start = draw(st.integers(0, 4))
    for _ in range(draw(st.integers(1, 4))):
        end = start + draw(st.integers(1, 4))
        spans.append((start, end, 0.1))
        start = end + draw(st.integers(0, 2))
    if draw(st.booleans()):
        spans[-1] = (spans[-1][0], SCHEDULE_OPEN_END, 0.1)
    return EpochSchedule(tuple(spans))


@settings(max_examples=300, deadline=None)
@given(_schedules(), st.integers(-2, 24), st.integers(-2, 24))
def test_schedule_covers_matches_per_epoch_definition(sched, first, last):
    # first > last is an empty range, which every schedule covers.
    expected = all(
        any(start <= epoch < end for start, end, _ in sched.spans)
        for epoch in range(first, last + 1)
    )
    assert sched.covers(first, last) == expected


def test_schedule_covers_a_long_range_without_visiting_each_epoch():
    two_spans = EpochSchedule(((0, 5, 0.1), (5, SCHEDULE_OPEN_END, 0.2)))
    assert two_spans.covers(0, 10**18)
    assert not EpochSchedule(((0, 5, 0.1), (6, SCHEDULE_OPEN_END, 0.2))).covers(0, 10**18)
    assert not EpochSchedule(((0, 10**17, 0.1),)).covers(0, 10**18)


# --- build_local_mask --------------------------------------------------------


SEED, STEP = 42, 0


def _one_mask(rows, thresholds, seed=SEED, step=STEP):
    """Node 0's mask from one row of single-layer scores."""
    (mask,) = build_local_mask(*_imp(rows), thresholds, seed, step, (0,))
    return mask


def test_mask_at_or_above_threshold_deterministic():
    mask = _one_mask([[0.02, 0.01]], [[0.01]])
    assert mask.tolist() == [True, True]


def test_mask_zero_score_never_selected():
    mask = _one_mask([[0.0] * 50], [[0.01]])
    assert np.count_nonzero(mask) == 0


def test_mask_zero_threshold_selects_all():
    mask = _one_mask([[0.0, 0.5, 0.001]], [[0.0]])
    assert np.count_nonzero(mask) == 3


def test_mask_infinite_threshold_selects_none():
    mask = _one_mask([[0.9, 0.5, 100.0]], [[math.inf]])
    assert np.count_nonzero(mask) == 0


def test_mask_probabilistic_inclusion_frequency():
    # Monte Carlo against the binomial bound: p = 0.007 / 0.01 = 0.7.
    n = 10_000
    mask = _one_mask([np.full(n, 0.007)], [[0.01]])
    p = 0.7
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(np.count_nonzero(mask) / n - p) < 3 * sigma


def test_mask_reproducible_for_fixed_seed():
    rows = [np.random.default_rng(3).random(500) * 0.02]
    a = _one_mask(rows, [[0.01]], 7, 11)
    b = _one_mask(rows, [[0.01]], 7, 11)
    assert np.array_equal(a, b)
    c = _one_mask(rows, [[0.01]], 7, 12)
    assert not np.array_equal(a, c)  # different step, different draw


def test_mask_per_layer_thresholds():
    layout = LayerLayout.from_sizes([("a", 2), ("b", 2)])
    g = np.array([[0.2, 0.0, 0.2, 0.0]])
    scores = compute_importance(g, np.ones(4), layout)
    (mask,) = build_local_mask(scores, layout, [[0.1, math.inf]], SEED, STEP, (0,))
    assert mask.tolist() == [True, False, False, False]


def test_mask_negative_threshold_rejected():
    with pytest.raises(InputError):
        _one_mask([[0.1]], [[-0.5]])


def test_mask_threshold_count_mismatch():
    with pytest.raises(StructuralError):
        _one_mask([[0.1, 0.2]], [[0.1, 0.2]])


@pytest.mark.parametrize("seed, step", [(0, 0), (2**32, 2**32 - 1), (2**200, 2**40)])
def test_mask_draws_match_reference_streams(seed, step):
    # 17 nodes, four layers; one node's layers sit at 0 and at infinity, where
    # nothing is drawn.
    rng = np.random.default_rng(seed % 1000 + step % 1000)
    layout = LayerLayout.from_sizes([("a", 40), ("b", 1), ("c", 300), ("d", 7)])
    n = 17
    scores = compute_importance(
        rng.random((n, layout.total_length)) * 0.02, np.ones(layout.total_length), layout
    )
    thr = rng.uniform(0.005, 0.02, (n, layout.n_layers))
    thr[3] = [0.0, math.inf, 0.0, math.inf]
    masks = build_local_mask(scores, layout, thr, seed, step, range(n))
    streams = [ParamStream(seed, k, step) for k in range(n)]
    expected = reference_masks(scores, layout, thr, streams)
    assert all(np.array_equal(m, e) for m, e in zip(masks, expected))
    # Some but not all below-threshold entries were drawn in.
    below = scores < np.repeat(thr, layout.lengths, axis=1)
    drawn = masks & below
    assert 0 < drawn.sum() < below.sum()
    # Node 0's row alone gets node 0's row of the stacked result.
    (single,) = build_local_mask(scores[:1], layout, thr[:1], seed, step, (0,))
    assert np.array_equal(single, masks[0])


@pytest.mark.parametrize("n", [2, 3, 5, 64])
@pytest.mark.parametrize("seed", [11, 2**200 + 5], ids=["one-word-seed", "multi-word-seed"])
def test_mask_of_node_subset_matches_rows_of_all_node_build(n, seed):
    # Building only some nodes' rows, keyed by their node ids, gives each of
    # those nodes the mask the all-N build gives it, whatever the other rows
    # and in whatever order the ids come.
    rng = np.random.default_rng(n)
    layout = LayerLayout.from_sizes([("a", 30), ("b", 1), ("c", 45)])
    subsets = [(n - 1,), (0, n - 1), (n - 1, 0), tuple(rng.permutation(n))]
    if n > 5:
        subsets += [(5, 1), (63, 17, 0), tuple(rng.choice(n, 7, replace=False))]
    for step in (0, 3, 2**33):
        scores = compute_importance(
            rng.random((n, layout.total_length)) * 0.02, np.ones(layout.total_length), layout
        )
        thr = rng.uniform(0.005, 0.02, (n, layout.n_layers))
        thr[n // 2] = [0.0, math.inf, 0.01]
        full = build_local_mask(scores, layout, thr, seed, step, range(n))
        for nodes in subsets:
            rows = list(nodes)
            masks = build_local_mask(scores[rows], layout, thr[rows], seed, step, nodes)
            assert len(masks) == len(nodes)
            for k, mask in zip(nodes, masks):
                assert np.array_equal(mask, full[k]), f"step {step}, node {k}"
        # A lone node's row, given its id, is that node's mask too.
        (last,) = build_local_mask(scores[-1:], layout, thr[-1:], seed, step, (n - 1,))
        assert np.array_equal(last, full[-1])


def test_mask_node_ids_must_match_rows():
    scores = compute_importance(np.full((2, 3), 0.1), np.ones(3), SINGLE)
    with pytest.raises(StructuralError, match="3 node ids for 2 score rows"):
        build_local_mask(scores, SINGLE, np.full((2, 1), 0.05), SEED, STEP, (0, 1, 2))
    with pytest.raises(StructuralError, match="1 node ids for 2 score rows"):
        build_local_mask(scores, SINGLE, np.full((2, 1), 0.05), SEED, STEP, (1,))


def test_one_row_calls_are_refused():
    # Every stage takes the (R, P) stack the trainer passes; a bare (P,) row
    # is a shape error, not a one-node call.
    row = np.full(3, 0.1)
    with pytest.raises(StructuralError, match=r"expected \(rows, 3\).*got shape \(3,\)"):
        compute_importance(row, np.ones(3), SINGLE)
    with pytest.raises(StructuralError, match=r"expected \(rows, 3\).*got shape \(3,\)"):
        thresholds_for(row, SINGLE, RATIO_READOUT, 0)
    with pytest.raises(StructuralError, match=r"expected \(rows, 3\).*got shape \(3,\)"):
        build_local_mask(row, SINGLE, [[0.05]], SEED, STEP, (0,))
    with pytest.raises(StructuralError, match=r"rows of shape \(3,\)"):
        split_by_mask(row.copy(), BitMask(np.ones(3, dtype=bool)))
