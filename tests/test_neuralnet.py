import math

import numpy as np
import pytest

from tomoseg.neuralnet import (
    MlpModel,
    TrainConfig,
    cross_entropy,
    forward,
    forward_many,
    grid_search,
    load_model,
    loss_and_gradients,
    save_model,
    train,
    train_detailed,
)


def make_model(d, m, rng=None, scale=0.5):
    rng = rng or np.random.default_rng(1)
    return MlpModel(
        alpha0=rng.uniform(-scale, scale, m),
        alpha=rng.uniform(-scale, scale, (m, d)),
        beta0=float(rng.uniform(-scale, scale)),
        beta=rng.uniform(-scale, scale, m),
        feat_mean=np.zeros(d),
        feat_std=np.ones(d),
    )


def test_zero_model_outputs_half():
    model = MlpModel(np.zeros(3), np.zeros((3, 2)), 0.0, np.zeros(3), np.zeros(2), np.ones(2))
    assert forward(model, [1.0, -2.0]) == 0.5


def test_single_unit_identity_chain():
    model = MlpModel(np.zeros(1), np.ones((1, 1)), 0.0, np.ones(1), np.zeros(1), np.ones(1))
    assert forward(model, [0.0]) == 0.5  # g(tanh(0)) = 0.5


def test_forward_matches_hand_computation():
    alpha0 = np.array([0.1, -0.2])
    alpha = np.array([[0.3, -0.5], [0.7, 0.2]])
    beta0 = 0.05
    beta = np.array([1.1, -0.9])
    model = MlpModel(alpha0, alpha, beta0, beta, np.zeros(2), np.ones(2))
    x = np.array([1.0, -1.0])
    z1 = math.tanh(0.1 + 0.3 * 1.0 + (-0.5) * (-1.0))
    z2 = math.tanh(-0.2 + 0.7 * 1.0 + 0.2 * (-1.0))
    t = 0.05 + 1.1 * z1 - 0.9 * z2
    expect = 1.0 / (1.0 + math.exp(-t))
    assert abs(forward(model, x) - expect) < 1e-12


def test_forward_dimension_check():
    model = make_model(3, 2)
    with pytest.raises(ValueError):
        forward(model, [1.0, 2.0])


def test_forward_strictly_inside_unit_interval(rng):
    model = make_model(4, 6, rng, scale=30.0)
    x = rng.normal(size=(50, 4)) * 10
    p = forward_many(model, x)
    assert (p > 0).all() and (p < 1).all()


def test_cross_entropy_zero_model():
    model = MlpModel(np.zeros(2), np.zeros((2, 3)), 0.0, np.zeros(2), np.zeros(3), np.ones(3))
    x = np.zeros((7, 3))
    y = np.array([0, 1, 0, 1, 1, 0, 1], float)
    assert abs(cross_entropy(model, x, y) - 7 * math.log(2)) < 1e-12


def test_cross_entropy_single_sample():
    # f(x) = 0.9, y = 1 -> -log 0.9
    t = math.log(9.0)  # sigmoid(t) = 0.9
    model = MlpModel(np.zeros(1), np.zeros((1, 1)), t, np.zeros(1), np.zeros(1), np.ones(1))
    val = cross_entropy(model, np.zeros((1, 1)), np.array([1.0]))
    assert abs(val - (-math.log(0.9))) < 1e-12


def test_cross_entropy_matches_scalar_resum(rng):
    model = make_model(5, 4, rng)
    x = rng.normal(size=(20, 5))
    y = (rng.random(20) > 0.5).astype(float)
    expect = 0.0
    for xi, yi in zip(x, y):
        p = forward(model, xi)
        expect += -(yi * math.log(p) + (1 - yi) * math.log(1 - p))
    assert abs(cross_entropy(model, x, y) - expect) < 1e-10


def fd_gradient(model, x, y, loss, l2, eps=1e-5):
    """Central finite differences over every parameter."""
    grads = []
    for name in ("alpha0", "alpha", "beta0", "beta"):
        base = getattr(model, name)
        if np.isscalar(base) or np.ndim(base) == 0:
            hi = _loss_with(model, name, model.beta0 + eps, x, y, loss, l2)
            lo = _loss_with(model, name, model.beta0 - eps, x, y, loss, l2)
            grads.append(np.array((hi - lo) / (2 * eps)))
            continue
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = base.copy()
            plus[idx] += eps
            minus = base.copy()
            minus[idx] -= eps
            hi = _loss_with(model, name, plus, x, y, loss, l2)
            lo = _loss_with(model, name, minus, x, y, loss, l2)
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def _loss_with(model, name, value, x, y, loss, l2):
    kwargs = {
        "alpha0": model.alpha0,
        "alpha": model.alpha,
        "beta0": model.beta0,
        "beta": model.beta,
        "feat_mean": model.feat_mean,
        "feat_std": model.feat_std,
    }
    kwargs[name] = value
    return loss_and_gradients(MlpModel(**kwargs), x, y, loss=loss, l2=l2)[0]


@pytest.mark.parametrize("loss", ["cross_entropy", "sse"])
def test_gradients_match_finite_differences(rng, loss):
    for _ in range(3):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        model = make_model(d, m, rng)
        x = rng.normal(size=(8, d))
        y = (rng.random(8) > 0.5).astype(float)
        _, (ga0, ga, gb0, gb) = loss_and_gradients(model, x, y, loss=loss, l2=1e-3)
        fa0, fa, fb0, fb = fd_gradient(model, x, y, loss, 1e-3)
        for got, want in ((ga0, fa0), (ga, fa), (gb0, fb0), (gb, fb)):
            denom = np.maximum(np.abs(want), 1e-8)
            assert (np.abs(got - want) / denom).max() < 1e-4


def test_xor_learnable():
    x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
    y = np.array([0, 1, 1, 0], float)
    cfg = TrainConfig(
        learning_rate=0.5, epochs=5000, batch_size=4, l2_penalty=0.0,
        validation_fraction=0.0, rng_seed=3,
    )
    model = train(x, y, 4, cfg)
    assert cross_entropy(model, x, y) < 0.05


def test_linearly_separable_blobs(rng):
    n = 60
    x = np.vstack([rng.normal((-2, -2), 0.4, (n, 2)), rng.normal((2, 2), 0.4, (n, 2))])
    y = np.array([0.0] * n + [1.0] * n)
    cfg = TrainConfig(epochs=300, rng_seed=1)
    result = train_detailed(x, y, 8, cfg)
    pred = forward_many(result.model, x) >= 0.5
    assert (pred == (y > 0.5)).all()


def test_training_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    y = (x.sum(axis=1) > 0).astype(float)
    cfg = TrainConfig(epochs=50, rng_seed=11)
    m1 = train(x, y, 5, cfg)
    m2 = train(x, y, 5, cfg)
    for name in ("alpha0", "alpha", "beta0", "beta", "feat_mean", "feat_std"):
        np.testing.assert_array_equal(np.asarray(getattr(m1, name)), np.asarray(getattr(m2, name)))


def test_single_class_rejected(rng):
    x = rng.normal(size=(10, 2))
    with pytest.raises(ValueError, match="both classes"):
        train(x, np.ones(10), 4, TrainConfig(epochs=1))


def test_split_keeps_both_classes_in_training(rng):
    # one edge of label 0; seed 4 sends index 0 to the validation split,
    # which used to end training with "training split lost one class"
    n, seed = 20, 4
    assert 0 in np.random.default_rng(seed).permutation(n)[: int(round(0.2 * n))]
    x = rng.normal(size=(n, 3))
    y = np.ones(n)
    y[0] = 0.0
    result = train_detailed(x, y, 4, TrainConfig(epochs=20, rng_seed=seed))
    assert np.isfinite(result.val_loss)
    # the lone 0 was trained on: its prediction moved below the 1s' mean
    p = forward_many(result.model, x)
    assert p[0] < p[1:].mean()


def test_grid_search_singleton():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] > 0).astype(float)
    best, model = grid_search(x, y, [75], TrainConfig(epochs=5, rng_seed=0))
    assert best == 75
    assert model.hidden_units == 75


def test_grid_search_picks_lower_validation_loss():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 4))
    y = ((x[:, 0] * x[:, 1] + 0.3 * x[:, 2]) > 0).astype(float)
    cfg = TrainConfig(epochs=120, rng_seed=6)
    candidates = [1, 12]
    losses = {m: train_detailed(x, y, m, cfg).val_loss for m in candidates}
    best, _ = grid_search(x, y, candidates, cfg)
    assert best == min(candidates, key=lambda m: losses[m])


def test_serialization_roundtrip(tmp_path, rng):
    model = make_model(6, 3, rng)
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    for name in ("alpha0", "alpha", "beta0", "beta", "feat_mean", "feat_std"):
        np.testing.assert_array_equal(np.asarray(getattr(model, name)), np.asarray(getattr(back, name)))


def test_sse_loss_value(rng):
    model = make_model(3, 2, rng)
    x = rng.normal(size=(9, 3))
    y = (rng.random(9) > 0.5).astype(float)
    p = forward_many(model, x)
    assert abs(loss_and_gradients(model, x, y, loss="sse")[0] - np.sum((y - p) ** 2)) < 1e-12
