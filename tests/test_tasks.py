import numpy as np

from ringprune import LinearRegressionTask, MlpClassificationTask


def least_squares_weights(task):
    """The linear task's exact minimiser, intercept last."""
    design = np.column_stack([task.features, np.ones(task.n_samples)])
    solution, *_ = np.linalg.lstsq(design, task.targets, rcond=None)
    return solution


def central_difference(task, weights, idx, param_indices, h=1e-5):
    """Finite-difference oracle for the batch-sum gradient."""
    out = []
    for p in param_indices:
        up = weights.copy()
        up[p] += h
        down = weights.copy()
        down[p] -= h
        out.append((task.loss_sum(up, idx) - task.loss_sum(down, idx)) / (2 * h))
    return np.array(out)


def test_generation_deterministic_per_seed():
    a = MlpClassificationTask(n_samples=256, data_seed=5)
    b = MlpClassificationTask(n_samples=256, data_seed=5)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = MlpClassificationTask(n_samples=256, data_seed=6)
    assert not np.array_equal(a.features, c.features)


def test_shards_partition_dataset():
    task = LinearRegressionTask(n_samples=103)
    shards = [task.shard_indices(k, 4) for k in range(4)]
    merged = np.sort(np.concatenate(shards))
    assert np.array_equal(merged, np.arange(103))


def test_batches_cycle_within_shard():
    task = LinearRegressionTask(n_samples=64)
    shard = set(task.shard_indices(1, 4).tolist())
    for step in range(10):
        batch = task.batch_indices(1, step, 4, 8)
        assert set(batch.tolist()) <= shard
        assert batch.shape == (8,)
    assert np.array_equal(
        task.batch_indices(1, 0, 4, 8), task.batch_indices(1, 2, 4, 8)
    )  # shard of 16 wraps after 2 steps


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
    grad = task.node_gradient(np.zeros(2), node=0, step=0, n_nodes=1, batch_size=1)
    assert grad[0] == -2.0
    assert grad[1] == -2.0  # intercept sees the same residual


def test_linear_gradient_matches_finite_differences():
    task = LinearRegressionTask(n_samples=64, n_features=8, data_seed=1)
    rng = np.random.default_rng(2)
    weights = rng.standard_normal(task.layout.total_length)
    idx = np.arange(32)
    grad = task.gradient_sum(weights, idx)
    probe = rng.choice(task.layout.total_length, size=5, replace=False)
    fd = central_difference(task, weights, idx, probe)
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
    fd = central_difference(task, weights, idx, probe)
    rel = np.abs(grad[probe] - fd) / np.maximum(
        np.maximum(np.abs(grad[probe]), np.abs(fd)), 1e-8
    )
    assert rel.max() < 1e-4


def test_mlp_gradient_scaling():
    task = MlpClassificationTask(n_samples=64, data_seed=7)
    w = task.init_weights(np.random.default_rng(0))
    idx = task.batch_indices(0, 0, 4, 8)
    raw = task.gradient_sum(w, idx)
    scaled = task.node_gradient(w, node=0, step=0, n_nodes=4, batch_size=8)
    assert np.array_equal(scaled, raw / 32.0)


def test_mlp_evaluate_reports_loss_and_accuracy():
    task = MlpClassificationTask(n_samples=256, data_seed=8)
    loss, accuracy = task.evaluate(task.init_weights(np.random.default_rng(1)))
    assert loss > 0
    assert 0.0 <= accuracy <= 1.0


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
