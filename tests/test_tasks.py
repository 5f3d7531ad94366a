import math
import sys
import threading

import numpy as np
import pytest

from ringprune import LinearRegressionTask, MlpClassificationTask, tasks

from oracles import (
    batch_indices,
    mlp_evaluate,
    mlp_forward,
    mlp_gradient_sum,
    mlp_init_weights,
    mlp_loss_sum,
)


def least_squares_weights(task):
    """The linear task's exact minimiser, intercept last."""
    design = np.column_stack([task.features, np.ones(task.n_samples)])
    solution, *_ = np.linalg.lstsq(design, task.targets, rcond=None)
    return solution


def central_difference(loss_sum, weights, idx, param_indices, h=1e-5):
    """Finite-difference oracle for the batch-sum gradient of
    ``loss_sum(weights, idx)``."""
    out = []
    for p in param_indices:
        up = weights.copy()
        up[p] += h
        down = weights.copy()
        down[p] -= h
        out.append((loss_sum(up, idx) - loss_sum(down, idx)) / (2 * h))
    return np.array(out)


def test_generation_deterministic_per_seed():
    a = MlpClassificationTask(n_samples=256, data_seed=5)
    b = MlpClassificationTask(n_samples=256, data_seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = MlpClassificationTask(n_samples=256, data_seed=6)
    assert not np.array_equal(a.features, c.features)


def test_shards_partition_dataset():
    # 103 samples over 4 nodes: shards of 26, 26, 26 and 25, so a batch of
    # 26 covers each shard once.
    task = LinearRegressionTask(n_samples=103)
    rows = task.batch_indices(0, 4, 26)
    assert np.array_equal(np.unique(rows), np.arange(103))
    for k in range(4):
        assert np.all(rows[k] % 4 == k)


def test_batches_cycle_within_shard():
    task = LinearRegressionTask(n_samples=64)
    for step in range(10):
        rows = task.batch_indices(step, 4, 8)
        assert rows.shape == (4, 8)
        assert np.all(rows % 4 == np.arange(4)[:, None])
    assert np.array_equal(
        task.batch_indices(0, 4, 8), task.batch_indices(2, 4, 8)
    )  # shards of 16 wrap after 2 steps


def test_batch_rows_match_shard_walk():
    """The closed-form (N, B) batch rows equal each node's walk through its
    own shard, for sample counts that N does and does not divide."""
    for n_samples in (5, 64, 103, 2051):
        task = LinearRegressionTask(n_samples=n_samples)
        for n_nodes in (2, 3, 5):
            for batch_size in (1, 8, 13):
                for step in (0, 1, 5, 17, 1000):
                    rows = task.batch_indices(step, n_nodes, batch_size)
                    expected = [
                        batch_indices(task, k, step, n_nodes, batch_size)
                        for k in range(n_nodes)
                    ]
                    assert np.array_equal(rows, np.stack(expected))


def test_linear_gradient_zero_at_least_squares_optimum():
    task = LinearRegressionTask(n_samples=200, n_features=6, data_seed=3)
    optimum = least_squares_weights(task)
    grad = task.gradient_sum(optimum, np.arange(task.n_samples))
    assert np.max(np.abs(grad)) < 1e-8


def test_linear_hand_computed_gradient():
    # One sample (x=1, y=2), weights zero, loss 0.5*(w*x - y)^2: gradient -2.
    task = LinearRegressionTask(n_samples=1, n_features=1, noise=0.0)
    task.features = np.array([[1.0]])
    task.targets = np.array([2.0])
    (grad,) = task.node_gradient(np.zeros(2), step=0, n_nodes=1, batch_size=1)
    assert grad[0] == -2.0
    assert grad[1] == -2.0  # intercept sees the same residual


def test_linear_gradient_matches_finite_differences():
    task = LinearRegressionTask(n_samples=64, n_features=8, data_seed=1)
    rng = np.random.default_rng(2)
    weights = rng.standard_normal(task.layout.total_length)
    idx = np.arange(32)
    grad = task.gradient_sum(weights, idx)
    probe = rng.choice(task.layout.total_length, size=5, replace=False)
    fd = central_difference(task.loss_sum, weights, idx, probe)
    assert np.allclose(grad[probe], fd, rtol=1e-6, atol=1e-8)


def test_mlp_gradient_matches_finite_differences():
    task = MlpClassificationTask(
        n_samples=128, n_features=10, hidden_units=12, n_classes=3, data_seed=4
    )
    rng = np.random.default_rng(5)
    weights = task.init_weights(rng)
    idx = np.arange(32)
    grad = task.gradient_sum(weights, idx)
    probe = rng.choice(task.layout.total_length, size=100, replace=False)
    fd = central_difference(
        lambda w, rows: mlp_loss_sum(task, w, rows), weights, idx, probe
    )
    rel = np.abs(grad[probe] - fd) / np.maximum(
        np.maximum(np.abs(grad[probe]), np.abs(fd)), 1e-8
    )
    assert rel.max() < 1e-4


@pytest.mark.parametrize(
    "d, h, c",
    [
        (20, 48, 4),
        (64, 1024, 4),
        (7, 9, 3),
        (7, 9, 2),
        (7, 9, 8),
        (7, 9, 9),
        (7, 9, 17),
        (7, 9, 130),
        (512, 64, 4),
        (20, 1024, 48),
    ],
)
def test_mlp_matches_reference_formulas(d, h, c):
    """evaluate and gradient_sum are bit-identical to the plain formulas in
    ``oracles`` (fresh temporaries, full log-softmax, concatenated pieces),
    with tanh saturated or not and for stacked and lone batch rows. Below 8
    classes the row sum is a column fold, and from 8 on it is np.sum itself,
    which sums a row in eight running sums and from 129 on in two halves, so
    a column fold would differ there. At 512 features, or 1,024 hidden units
    and 48 classes, the stacked rows' product would cross SMALL_GEMM_MACS
    where a batch's does not, so it runs per batch."""
    task = MlpClassificationTask(
        n_samples=2051, n_features=d, hidden_units=h, n_classes=c, data_seed=3
    )
    rng = np.random.default_rng(11)
    init = task.init_weights(rng)
    stacked = task.batch_indices(5, 5, 8)
    saturated = 0
    for weights in (init, rng.standard_normal(init.shape), 30.0 * init):
        _, hidden, _ = mlp_forward(task, weights, np.arange(task.n_samples))
        saturated += np.count_nonzero(np.abs(hidden) == 1.0)
        assert task.evaluate(weights) == mlp_evaluate(task, weights)
        for idx in (stacked, stacked[2]):
            grad = task.gradient_sum(weights, idx)
            assert grad.shape == idx.shape[:-1] + init.shape
            assert np.array_equal(grad, mlp_gradient_sum(task, weights, idx))
    assert saturated > 0


@pytest.mark.parametrize("n_classes", range(2, 21))
def test_class_reductions_match_numpy(n_classes):
    """The column folds give np.max's row maxima, and class_sum np.sum's row
    sums, on either side of PAIRWISE_LANES: the same values, NaN where numpy
    has NaN, and a zero sum equal up to its sign. The rows mix magnitudes,
    so another order of addition changes bits, and some hold +-inf and NaN."""
    rng = np.random.default_rng(n_classes)
    shape = (4096, n_classes)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    special = rng.random(values.shape) < 0.02
    values[special] = rng.choice([math.inf, -math.inf, math.nan], size=np.count_nonzero(special))
    values[:64] = 0.0
    values[:32] = -0.0
    with np.errstate(invalid="ignore"):
        sums = np.sum(values, axis=-1)
        assert np.array_equal(tasks.class_sum(values), sums, equal_nan=True)
        assert np.array_equal(
            tasks.column_fold(np.maximum, values), np.max(values, axis=-1), equal_nan=True
        )
    assert np.isnan(sums).any() and np.isinf(sums).any()


def _edge_case_weights(task, case):
    """MLP weights whose logits tie or hold NaN and infinities."""
    weights = task.init_weights(np.random.default_rng(9))
    hidden_w, hidden_b, output_w, output_b = task._unpack(weights)
    if case == "all-tied":
        output_w[...] = 0.0
        output_b[...] = 0.5
    elif case == "top-two-tied":
        output_w[...] = 0.0
        output_b[...] = [0.0, 1.0, 1.0, 0.5]
    elif case == "nan-columns":
        output_b[[1, 3]] = math.nan
    elif case == "nan-hidden":
        hidden_w[0, 0] = math.nan
    elif case == "mixed-nan-rows":
        # hidden unit 0 is tanh(feature 0), which is exactly 0 on even rows:
        # there class 2 is 0 * inf = NaN, on odd rows +inf or -inf.
        task.features[::2, 0] = 0.0
        hidden_w[:, 0] = [1.0, 0.0, 0.0]
        hidden_b[0] = 0.0
        output_w[0, 2] = math.inf
    return weights


@pytest.mark.parametrize(
    "case, first_max",
    [
        ("all-tied", 0),
        ("top-two-tied", 1),
        ("nan-columns", 1),
        ("nan-hidden", 0),
        ("mixed-nan-rows", None),
    ],
)
def test_evaluate_edge_case_logits(case, first_max):
    """On tied logits the accuracy follows np.argmax's first maximum, and on
    NaN logits its first NaN, as in ``oracles.mlp_evaluate``; with NaN
    logits the loss is NaN."""
    task = MlpClassificationTask(
        n_samples=301, n_features=3, hidden_units=5, n_classes=4, data_seed=10
    )
    weights = _edge_case_weights(task, case)
    with np.errstate(invalid="ignore"):
        loss, accuracy = task.evaluate(weights)
        ref_loss, ref_accuracy = mlp_evaluate(task, weights)
        _, _, logits = mlp_forward(task, weights, np.arange(task.n_samples))
    assert accuracy == ref_accuracy
    if first_max is not None:
        assert accuracy == np.mean(task.labels == first_max)
    if np.isnan(logits).any():
        assert math.isnan(loss) and math.isnan(ref_loss)
    else:
        assert loss == ref_loss
    if case == "mixed-nan-rows":
        nan_rows = np.isnan(logits).any(axis=1)
        assert nan_rows[::2].all() and not nan_rows[1::2].any()
        assert np.isinf(logits[1::2, 2]).all()


@pytest.mark.parametrize(
    "task",
    [
        LinearRegressionTask(n_samples=301, data_seed=8),
        MlpClassificationTask(n_samples=301, n_features=7, hidden_units=9, n_classes=3, data_seed=8),
    ],
    ids=["linear", "mlp"],
)
@pytest.mark.parametrize("idx_shape", [(8,), (5, 8)])
def test_gradient_sum_writes_into_out(task, idx_shape):
    """Given ``out``, gradient_sum fills it and returns it, bit for bit as
    the allocating call, also when ``out`` is a row block of a larger array."""
    weights = task.init_weights(np.random.default_rng(2)) + 0.1
    idx = np.random.default_rng(3).integers(0, task.n_samples, idx_shape)
    expected = task.gradient_sum(weights, idx)
    rows = np.full((7, task.layout.total_length), np.nan)
    n_batches = idx_shape[0] if len(idx_shape) == 2 else 1
    buf = rows[1 : 1 + n_batches].reshape(idx_shape[:-1] + (-1,))
    assert task.gradient_sum(weights, idx, out=buf) is buf
    assert buf.tobytes() == expected.tobytes()
    assert np.isnan(rows[0]).all() and np.isnan(rows[1 + n_batches :]).all()


@pytest.mark.parametrize("d, h, c", [(3, 5, 2), (20, 48, 4), (64, 7, 9)])
def test_mlp_init_weights_match_concatenated_groups(d, h, c):
    task = MlpClassificationTask(n_samples=16, n_features=d, hidden_units=h, n_classes=c)
    weights = task.init_weights(np.random.default_rng(7))
    expected = mlp_init_weights(task, np.random.default_rng(7))
    assert weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "task, width",
    [
        (LinearRegressionTask(), 8),
        (MlpClassificationTask(n_samples=64, n_features=20, hidden_units=48), 48),
        (MlpClassificationTask(n_samples=64, n_features=64, hidden_units=1024), 1024),
    ],
    ids=["linear", "mlp-small", "mlp-wide"],
)
def test_layout_views_and_width_follow_layer_shapes(task, width):
    shapes = task.layer_shapes
    assert task.layout.names == tuple(shapes)
    assert task.layout.lengths == tuple(math.prod(shape) for shape in shapes.values())
    for lead in ((), (3,), (2, 3)):
        weights = np.zeros(lead + (task.layout.total_length,))
        views = task._unpack(weights)
        assert len(views) == len(shapes)
        for view, shape in zip(views, shapes.values()):
            assert view.shape == lead + shape
            assert np.shares_memory(view, weights)
    assert task.activation_width == width


def test_mlp_gradient_scaling():
    task = MlpClassificationTask(n_samples=64, data_seed=7)
    w = task.init_weights(np.random.default_rng(0))
    idx = task.batch_indices(0, 4, 8)
    raw = task.gradient_sum(w, idx)
    scaled = task.node_gradient(w, step=0, n_nodes=4, batch_size=8)
    assert raw.shape == scaled.shape == (4, task.layout.total_length)
    assert np.array_equal(scaled, raw / 32.0)


def test_mlp_evaluate_reports_loss_and_accuracy():
    task = MlpClassificationTask(n_samples=256, data_seed=8)
    loss, accuracy = task.evaluate(task.init_weights(np.random.default_rng(1)))
    assert loss > 0
    assert 0.0 <= accuracy <= 1.0


def _spy_in_halves(monkeypatch) -> list:
    """Record the length of each ``tasks.in_halves`` call that splits, then
    run it as usual."""
    calls = []
    real = tasks.in_halves

    def spy(work, n, split):
        if split:
            calls.append(n)
        real(work, n, split)

    monkeypatch.setattr(tasks, "in_halves", spy)
    return calls


def _split_samples(n_features: int) -> int:
    """The smallest S at which evaluate splits, at 1024 hidden units and 4
    classes: each half's smaller product must pass SMALL_GEMM_MACS."""
    narrowest = min(n_features, 4)
    return 2 * (tasks.SMALL_GEMM_MACS // (1024 * narrowest) + 1)


@pytest.mark.parametrize(
    "n_features, hidden_units, n_samples, splits",
    [
        (20, 1024, 2051, True),
        (20, 1024, _split_samples(20), True),
        (20, 1024, _split_samples(20) - 1, False),
        (3, 1024, _split_samples(3), True),
        (3, 1024, _split_samples(3) - 1, False),
        (20, 1000, 500, False),
    ],
    ids=[
        "odd",
        "at-constant",
        "below",
        "few-features-at-constant",
        "few-features-below",
        "half-at-kernel-line",
    ],
)
def test_wide_evaluate_matches_reference_in_halves(
    monkeypatch, n_features, hidden_units, n_samples, splits
):
    """Past SMALL_GEMM_MACS in each half's smaller product evaluate runs two
    row halves (unequal ones at odd S), otherwise one pass; either way its
    bits are the plain formulas'. With fewer features than classes, the
    features product is each half's smaller one and sets the split. Halves
    of exactly SMALL_GEMM_MACS (250 x 1,000 x 4) must not split: they would
    run the small-matrix kernel where the whole runs the blocked one."""
    task = MlpClassificationTask(
        n_samples=n_samples,
        n_features=n_features,
        hidden_units=hidden_units,
        n_classes=4,
        data_seed=4,
    )
    calls = _spy_in_halves(monkeypatch)
    rng = np.random.default_rng(12)
    init = task.init_weights(rng)
    for weights in (init, rng.standard_normal(init.shape)):
        assert task.evaluate(weights) == mlp_evaluate(task, weights)
    assert calls == ([n_samples] * 2 if splits else [])


def _record_thread_starts(monkeypatch) -> list:
    """Record each thread started through ``threading.Thread``."""
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


@pytest.mark.parametrize("n", [1, 2, 7, 8])
@pytest.mark.parametrize("split", [False, True], ids=["inline", "split"])
def test_in_halves_cuts_at_the_middle(monkeypatch, split, n):
    """Split, ``work`` runs on [0, n // 2) on one helper thread and on
    [n // 2, n) on the caller's; unsplit, on [0, n) on the caller's, with
    no thread started."""
    started = _record_thread_starts(monkeypatch)
    calls = []
    tasks.in_halves(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), n, split)
    caller = threading.get_ident()
    if split:
        assert len(started) == 1
        assert sorted(calls) == [(0, n // 2, started[0].ident), (n // 2, n, caller)]
    else:
        assert started == [] and calls == [(0, n, caller)]


def test_in_halves_raises_the_helpers_exception():
    """The helper thread's exception reaches the caller, after the caller's
    own half has run."""
    threads = []

    def work(lo, hi):
        threads.append(threading.get_ident())
        if lo == 0:
            raise ValueError("helper half failed")

    with pytest.raises(ValueError, match="helper half failed"):
        tasks.in_halves(work, 2, True)
    assert len(set(threads)) == 2 and threading.get_ident() in threads


def _record_gradient_threads(task, fail_off_caller=False) -> list:
    """Wrap ``task.gradient_sum`` to record each call's first sample row and
    thread; with ``fail_off_caller``, a call off this thread raises."""
    calls = []
    caller = threading.get_ident()
    gradient_sum = task.gradient_sum

    def recording(weights, idx, out=None):
        calls.append((int(idx.flat[0]), threading.get_ident()))
        if fail_off_caller and threading.get_ident() != caller:
            raise FloatingPointError("helper chunk failed")
        return gradient_sum(weights, idx, out=out)

    task.gradient_sum = recording
    return calls


@pytest.mark.parametrize(
    "shape, n_nodes, batch_size, helper_nodes",
    [
        ({"n_features": 64, "hidden_units": 1024}, 4, 64, 2),
        ({"n_features": 64, "hidden_units": 1024}, 5, 64, 2),
        ({"n_features": 20, "hidden_units": 48}, 8, 256, 0),
        ({"n_features": 20, "hidden_units": 48}, 64, 8, 0),
    ],
    ids=["wide4-pruned", "wide-5-nodes", "mlp-configs", "ring64-pruned"],
)
def test_node_gradient_splits_only_one_node_chunks(
    monkeypatch, shape, n_nodes, batch_size, helper_nodes
):
    """Where one node's activation fills a chunk (64 x 1,024, as in
    wide4-pruned) gradient_sum runs on two threads: the first n_nodes // 2
    nodes on a helper, the rest on the caller's. At the mlp_* configs' shape
    (four two-node chunks) and ring64-pruned's (one chunk) it runs on the
    caller's thread only, with no helper started. Either way the rows are
    the per-node gradients, scaled."""
    task = MlpClassificationTask(n_samples=2048, data_seed=3, **shape)
    weights = task.init_weights(np.random.default_rng(5))
    idx = task.batch_indices(3, n_nodes, batch_size)
    expected = np.stack([task.gradient_sum(weights, row) for row in idx])
    calls = _record_gradient_threads(task)
    splits = _spy_in_halves(monkeypatch)
    # switch threads as often as the interpreter allows while both halves run
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = task.node_gradient(weights, 3, n_nodes, batch_size)
    finally:
        sys.setswitchinterval(interval)
    assert len(splits) == (1 if helper_nodes else 0)
    assert np.array_equal(got, expected / float(n_nodes * batch_size))
    caller = threading.get_ident()
    off_caller = sorted(first for first, thread in calls if thread != caller)
    assert off_caller == sorted(idx[:helper_nodes, 0].tolist())
    threads = {thread for _, thread in calls}
    assert len(threads) == (2 if helper_nodes else 1) and caller in threads


def test_node_gradient_raises_the_helpers_exception():
    """An exception in the helper thread's chunks reaches node_gradient's
    caller, after the caller's own chunks have run."""
    task = MlpClassificationTask(n_samples=2048, n_features=64, hidden_units=1024, data_seed=3)
    calls = _record_gradient_threads(task, fail_off_caller=True)
    with pytest.raises(FloatingPointError, match="helper chunk failed"):
        task.node_gradient(task.init_weights(np.random.default_rng(5)), 0, 4, 64)
    # the helper stops at its first chunk; the caller's two chunks still run
    assert len(calls) == 3


def test_linear_evaluate_never_splits(monkeypatch):
    task = LinearRegressionTask(n_samples=1 << 16, n_features=8, data_seed=6)
    calls = _spy_in_halves(monkeypatch)
    weights = task.init_weights(np.random.default_rng(14))
    residual = task.features @ weights[:-1] + weights[-1] - task.targets
    assert task.evaluate(weights) == (float(0.5 * np.sum(residual**2)) / task.n_samples, None)
    assert calls == []


def test_linear_evaluate_has_no_accuracy():
    task = LinearRegressionTask(n_samples=32)
    loss, accuracy = task.evaluate(np.zeros(task.layout.total_length))
    assert loss > 0
    assert accuracy is None


def test_mlp_label_noise_floor():
    clean = MlpClassificationTask(n_samples=512, label_noise=0.0, data_seed=9)
    noisy = MlpClassificationTask(n_samples=512, label_noise=0.2, data_seed=9)
    flipped = np.mean(clean.labels != noisy.labels)
    assert 0.1 < flipped < 0.3
