"""Single-hidden-layer feed-forward network for edge classification.

Architecture: d inputs -> M tanh hidden units -> one logistic output in
(0, 1). Training is plain mini-batch gradient descent with backpropagation
on the cross entropy, an L2 penalty on the weights, and a
best-validation-epoch snapshot. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .volgrid import _atomic_text, finite_float, key_value


@dataclass(frozen=True)
class MlpModel:
    alpha0: np.ndarray  # (M,) hidden biases
    alpha: np.ndarray  # (M, d) hidden weights
    beta0: float  # output bias
    beta: np.ndarray  # (M,) output weights
    feat_mean: np.ndarray  # (d,) standardization offsets
    feat_std: np.ndarray  # (d,) standardization scales

    def __post_init__(self):
        for name in ("alpha0", "alpha", "beta", "feat_mean", "feat_std"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.float64))
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.alpha0.shape[0]:
            raise ValueError("alpha must be (M, d) matching alpha0")
        if self.beta.shape != self.alpha0.shape:
            raise ValueError("beta must be (M,)")
        if self.feat_mean.shape != (self.d,) or self.feat_std.shape != (self.d,):
            raise ValueError("standardization stats must be (d,)")
        vals = np.concatenate(
            [self.alpha0, self.alpha.ravel(), [self.beta0], self.beta, self.feat_mean, self.feat_std]
        )
        if not np.isfinite(vals).all():
            raise ValueError("model parameters must be finite")

    @property
    def d(self) -> int:
        return self.alpha.shape[1]

    @property
    def hidden_units(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 2000
    batch_size: int = 32
    l2_penalty: float = 1e-4
    validation_fraction: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.validation_fraction <= 0.5:
            raise ValueError("validation_fraction must lie in [0, 0.5]")


_P_LO = np.finfo(np.float64).tiny
_P_HI = float(np.nextafter(1.0, 0.0))


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    # keep the output strictly inside (0, 1) even when exp saturates
    return np.clip(out, _P_LO, _P_HI)


def _raw_output(alpha0, alpha, beta0, beta, X):
    Z = np.tanh(alpha0 + X @ alpha.T)
    T = beta0 + Z @ beta
    return Z, T


def forward_many(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Network output for each row of X, strictly inside (0, 1)."""
    X = np.atleast_2d(np.asarray(X, np.float64))
    if X.shape[1] != model.d:
        raise ValueError(f"expected feature dimension {model.d}, got {X.shape[1]}")
    Xs = (X - model.feat_mean) / model.feat_std
    _, T = _raw_output(model.alpha0, model.alpha, model.beta0, model.beta, Xs)
    return _sigmoid(T)


def forward(model: MlpModel, x: np.ndarray) -> float:
    return float(forward_many(model, np.asarray(x, np.float64).reshape(1, -1))[0])


def cross_entropy(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    """-sum(y log f + (1-y) log(1-f)), evaluated in the numerically stable
    softplus form so it stays finite for any finite parameters."""
    X = np.atleast_2d(np.asarray(X, np.float64))
    y = np.asarray(y, np.float64)
    Xs = (X - model.feat_mean) / model.feat_std
    _, T = _raw_output(model.alpha0, model.alpha, model.beta0, model.beta, Xs)
    return float(np.sum(y * np.logaddexp(0.0, -T) + (1.0 - y) * np.logaddexp(0.0, T)))


def loss_and_gradients(model: MlpModel, X, y, loss="cross_entropy", l2=0.0, reduction="sum"):
    """Objective value plus gradients w.r.t. (alpha0, alpha, beta0, beta).

    The objective is the summed (or averaged) data loss plus
    l2/2 * (|alpha|^2 + |beta|^2); biases are not penalized. Inputs pass
    through the model's stored standardization first, like every forward call.
    """
    X = np.atleast_2d(np.asarray(X, np.float64))
    y = np.asarray(y, np.float64)
    Xs = (X - model.feat_mean) / model.feat_std
    Z, T = _raw_output(model.alpha0, model.alpha, model.beta0, model.beta, Xs)
    p = _sigmoid(T)
    if loss == "cross_entropy":
        data = np.sum(y * np.logaddexp(0.0, -T) + (1.0 - y) * np.logaddexp(0.0, T))
        dT = p - y
    elif loss == "sse":
        data = np.sum((y - p) ** 2)
        dT = 2.0 * (p - y) * p * (1.0 - p)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    scale = 1.0 / X.shape[0] if reduction == "mean" else 1.0
    d_beta = scale * (Z.T @ dT) + l2 * model.beta
    d_beta0 = scale * float(np.sum(dT))
    dZ = np.outer(dT, model.beta) * (1.0 - Z * Z)
    d_alpha = scale * (dZ.T @ Xs) + l2 * model.alpha
    d_alpha0 = scale * dZ.sum(axis=0)
    value = scale * data + 0.5 * l2 * (np.sum(model.alpha**2) + np.sum(model.beta**2))
    return value, (d_alpha0, d_alpha, d_beta0, d_beta)


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    val_loss: float  # mean cross entropy of the returned snapshot, nan if no split


def _mean_ce(model: MlpModel, X, y) -> float:
    return cross_entropy(model, X, y) / len(y)


def train_detailed(X: np.ndarray, y: np.ndarray, hidden_units: int, cfg: TrainConfig) -> TrainResult:
    X = np.atleast_2d(np.asarray(X, np.float64))
    y = np.asarray(y, np.float64).ravel()
    n, d = X.shape
    if len(y) != n:
        raise ValueError("X and y lengths differ")
    classes = np.unique(y)
    if not np.isin(classes, (0.0, 1.0)).all() or len(classes) < 2:
        raise ValueError("training needs labels from both classes {0, 1}")
    rng = np.random.default_rng(cfg.rng_seed)
    perm = rng.permutation(n)
    n_val = int(round(cfg.validation_fraction * n))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    for c in classes:
        if not (y[tr_idx] == c).any():
            # the split sent the whole class to validation: train on its
            # first validation sample instead
            k = int(np.flatnonzero(y[val_idx] == c)[0])
            tr_idx = np.append(tr_idx, val_idx[k])
            val_idx = np.delete(val_idx, k)
    mean = X[tr_idx].mean(axis=0)
    std = X[tr_idx].std(axis=0)
    std[std == 0.0] = 1.0

    bound = 1.0 / np.sqrt(d)
    model = MlpModel(
        alpha0=rng.uniform(-bound, bound, hidden_units),
        alpha=rng.uniform(-bound, bound, (hidden_units, d)),
        beta0=float(rng.uniform(-bound, bound)),
        beta=rng.uniform(-bound, bound, hidden_units),
        feat_mean=mean,
        feat_std=std,
    )
    Xtr, ytr = X[tr_idx], y[tr_idx]
    Xval, yval = X[val_idx], y[val_idx]
    best = model
    best_val = np.inf
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(len(tr_idx))
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            _, (g_a0, g_a, g_b0, g_b) = loss_and_gradients(
                model, Xtr[sel], ytr[sel], l2=cfg.l2_penalty, reduction="mean"
            )
            model = replace(
                model,
                alpha0=model.alpha0 - lr * g_a0,
                alpha=model.alpha - lr * g_a,
                beta0=model.beta0 - lr * g_b0,
                beta=model.beta - lr * g_b,
            )
        if len(val_idx):
            vloss = _mean_ce(model, Xval, yval)
            if vloss < best_val:
                best_val = vloss
                best = model
    if len(val_idx):
        return TrainResult(best, best_val)
    return TrainResult(model, float("nan"))


def train(X: np.ndarray, y: np.ndarray, hidden_units: int, cfg: TrainConfig) -> MlpModel:
    """Fit the network; returns the parameters with the best validation loss
    (the final parameters when validation_fraction is 0)."""
    return train_detailed(X, y, hidden_units, cfg).model


def grid_search(X, y, candidate_hidden_units, cfg: TrainConfig):
    """Train one model per candidate size and keep the one with the lowest
    validation cross entropy; ties go to the smaller size."""
    candidates = sorted(set(int(m) for m in candidate_hidden_units))
    if not candidates:
        raise ValueError("no candidate hidden-layer sizes given")
    if cfg.validation_fraction <= 0 and len(candidates) > 1:
        raise ValueError("grid search needs validation_fraction > 0")
    best_m, best_result = None, None
    for m in candidates:
        result = train_detailed(X, y, m, cfg)
        if best_result is None or result.val_loss < best_result.val_loss:
            best_m, best_result = m, result
    return best_m, best_result.model


_FORMAT_TAG = "tomoseg-mlp v1"


def save_model(model: MlpModel, path) -> None:
    def row(vals):
        return " ".join(repr(float(v)) for v in np.atleast_1d(vals))

    with _atomic_text(path) as fh:
        fh.write(f"{_FORMAT_TAG}\n")
        fh.write(f"d {model.d}\n")
        fh.write(f"M {model.hidden_units}\n")
        fh.write(f"feat_mean {row(model.feat_mean)}\n")
        fh.write(f"feat_std {row(model.feat_std)}\n")
        fh.write(f"alpha0 {row(model.alpha0)}\n")
        for i in range(model.hidden_units):
            fh.write(f"alpha {row(model.alpha[i])}\n")
        fh.write(f"beta0 {model.beta0!r}\n")
        fh.write(f"beta {row(model.beta)}\n")


def load_model(path) -> MlpModel:
    """A ``save_model`` file. A missing key, a row of the wrong length or a
    value that is not a finite number raises ValueError naming the file and
    the key."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != _FORMAT_TAG:
        raise ValueError(f"{path}: not a {_FORMAT_TAG} file")
    fields = {}
    alpha_rows = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "alpha":
            alpha_rows.append(rest)
        else:
            fields[key] = rest
    d = key_value(path, fields, "d", int)
    m = key_value(path, fields, "M", int)
    if len(alpha_rows) != m:
        raise ValueError(f"{path}: key 'alpha': expected {m} rows, got {len(alpha_rows)}")
    alpha = [key_value(path, {"alpha": row}, "alpha", finite_float, d) for row in alpha_rows]
    vec = lambda key, n: np.array(key_value(path, fields, key, finite_float, n), np.float64)
    return MlpModel(
        alpha0=vec("alpha0", m),
        alpha=np.array(alpha, np.float64).reshape(m, d),
        beta0=key_value(path, fields, "beta0", finite_float),
        beta=vec("beta", m),
        feat_mean=vec("feat_mean", d),
        feat_std=vec("feat_std", d),
    )
