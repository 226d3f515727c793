"""From-scratch 1D convolutional network for score forecasting.

Architecture: a single valid-padding stride-1 convolution over the time
axis of the w-by-f window, activation, flatten, concatenate the upcoming
match difficulty, one dense hidden layer with activation, and a linear
scalar output.

It reads windows X (n, w, f), difficulties d and targets y, integer or
float; train minibatches two dataset.WindowSet values by indexing these.

The training cost is batch MSE plus an ElasticNet penalty on the conv
filter bank and the hidden dense weights only (biases and the output
layer are never penalized, and the penalty is added once per batch, not
averaged over it). Gradients are exact backpropagation; updates are
bias-corrected Adam, in place on one working copy of the parameters;
early stopping restores the best-validation epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import WindowSet

__all__ = [
    "CnnModel",
    "TrainConfig",
    "LearningCurve",
    "init_model",
    "forward",
    "forward_batch",
    "cost",
    "backward",
    "adam_step",
    "train",
    "mean_normalized_filter",
    "parameter_count",
]

PARAM_NAMES = ("conv_w", "conv_b", "hidden_w", "hidden_b", "out_w", "out_b")


@dataclass
class CnnModel:
    """Parameter container; shapes fix (w, k, f, filters, hidden)."""

    conv_w: np.ndarray  # filters x k x f
    conv_b: np.ndarray  # filters
    hidden_w: np.ndarray  # hidden x (filters*(w-k+1) + 1); +1 column takes d
    hidden_b: np.ndarray  # hidden
    out_w: np.ndarray  # hidden
    out_b: np.ndarray  # shape (1,)
    activation: str = "relu"
    window: int = 0

    @property
    def kernel(self) -> int:
        return self.conv_w.shape[1]

    @property
    def n_features(self) -> int:
        return self.conv_w.shape[2]

    @property
    def n_filters(self) -> int:
        return self.conv_w.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.hidden_w.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def with_params(self, params: dict[str, np.ndarray]) -> "CnnModel":
        return replace(self, **{name: params[name] for name in PARAM_NAMES})


@dataclass
class TrainConfig:
    epochs: int = 250
    learning_rate: float = 0.001
    batch_size: int = 32
    early_stop_tolerance: float = 1e-4
    patience: int = 20
    lambda1: float = 0.0
    lambda2: float = 0.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("penalty strengths must be >= 0")


@dataclass
class LearningCurve:
    train_cost: list[float] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0


ACTIVATIONS = ("relu", "tanh")


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation '{activation}'")


def _activate_grad(z: np.ndarray, activation: str) -> np.ndarray:
    # relu'(0) is defined as 0.
    if activation == "relu":
        return (z > 0).astype(np.float64)
    if activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValueError(f"unknown activation '{activation}'")


def init_model(
    w: int,
    k: int,
    f: int,
    n_filters: int = 64,
    n_hidden: int = 64,
    activation: str = "relu",
    seed: int = 0,
) -> CnnModel:
    """Glorot-uniform weights, zero biases, deterministic in the seed."""
    if k > w:
        raise ValueError(f"kernel {k} exceeds window {w}")
    if min(w, k, f, n_filters, n_hidden) < 1:
        raise ValueError("all dimensions must be >= 1")
    _activate(np.zeros(1), activation)  # validate the name early
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    conv_len = w - k + 1
    flat = n_filters * conv_len
    return CnnModel(
        conv_w=glorot((n_filters, k, f), fan_in=k * f, fan_out=k * n_filters),
        conv_b=np.zeros(n_filters),
        hidden_w=glorot((n_hidden, flat + 1), fan_in=flat + 1, fan_out=n_hidden),
        hidden_b=np.zeros(n_hidden),
        out_w=glorot((n_hidden,), fan_in=n_hidden, fan_out=1),
        out_b=np.zeros(1),
        activation=activation,
        window=w,
    )


def parameter_count(model: CnnModel) -> int:
    return sum(p.size for p in model.params().values())


def _conv_windows(X: np.ndarray, k: int) -> np.ndarray:
    """(n, w, f) -> (n, w-k+1, k, f) sliding view over the time axis."""
    return np.lib.stride_tricks.sliding_window_view(X, k, axis=1).transpose(
        0, 1, 3, 2
    )


def forward_batch(model: CnnModel, X: np.ndarray, d: np.ndarray):
    """Vectorized forward pass; returns predictions and the cache backward
    needs (conv windows and pre-activations)."""
    if X.ndim != 3 or len(d) != len(X):
        raise ValueError(f"need X (n, w, f) and n difficulties, got {X.shape}, {len(d)}")
    if X.shape[1] != model.window or X.shape[2] != model.n_features:
        raise ValueError(
            f"expected windows of shape ({model.window}, {model.n_features}), "
            f"got {X.shape[1:]}"
        )
    windows = _conv_windows(X, model.kernel)  # n, J, k, f
    z_conv = (
        np.einsum("njkf,pkf->npj", windows, model.conv_w)
        + model.conv_b[None, :, None]
    )  # n, filters, J
    a_conv = _activate(z_conv, model.activation)
    n = X.shape[0]
    flat = a_conv.reshape(n, -1)
    hidden_in = np.concatenate([flat, d[:, None]], axis=1)
    z_hidden = hidden_in @ model.hidden_w.T + model.hidden_b
    a_hidden = _activate(z_hidden, model.activation)
    yhat = a_hidden @ model.out_w + model.out_b[0]
    cache = (windows, z_conv, hidden_in, z_hidden, a_hidden)
    return yhat, cache


def forward(model: CnnModel, X: np.ndarray, d: float):
    """Single-example forward pass: scalar prediction plus cache."""
    X = np.asarray(X, dtype=np.float64)
    yhat, cache = forward_batch(model, X[None, :, :], np.array([float(d)]))
    return float(yhat[0]), cache


def _penalty(model: CnnModel, lambda1: float, lambda2: float) -> float:
    p1 = np.abs(model.conv_w).sum() + np.abs(model.hidden_w).sum()
    p2 = (model.conv_w**2).sum() + (model.hidden_w**2).sum()
    return float(lambda1 * p1 + lambda2 * p2)


def _batch_size(X: np.ndarray, y: np.ndarray) -> int:
    """The number of examples: nonzero, with one target each."""
    if len(y) != len(X) or len(y) == 0:
        raise ValueError(f"need n > 0 windows and n targets, got {len(X)}, {len(y)}")
    return len(y)


def cost(model: CnnModel, X: np.ndarray, d: np.ndarray, y: np.ndarray,
         lambda1: float, lambda2: float) -> float:
    """MSE over the examples plus the ElasticNet penalty on conv and hidden
    weights."""
    _batch_size(X, y)
    yhat, _ = forward_batch(model, X, d)
    mse = float(np.mean((y - yhat) ** 2))
    return mse + _penalty(model, lambda1, lambda2)


def backward(model: CnnModel, X: np.ndarray, d: np.ndarray, y: np.ndarray,
             lambda1: float, lambda2: float) -> dict[str, np.ndarray]:
    """Exact gradients of the batch cost for every parameter.

    The L1 subgradient at exactly zero is taken as 0.
    """
    n = _batch_size(X, y)
    yhat, (windows, z_conv, hidden_in, z_hidden, a_hidden) = forward_batch(model, X, d)

    d_yhat = 2.0 * (yhat - y) / n  # n,
    g_out_w = a_hidden.T @ d_yhat
    g_out_b = np.array([d_yhat.sum()])
    d_a_hidden = np.outer(d_yhat, model.out_w)
    d_z_hidden = d_a_hidden * _activate_grad(z_hidden, model.activation)
    g_hidden_w = d_z_hidden.T @ hidden_in
    g_hidden_b = d_z_hidden.sum(axis=0)
    d_hidden_in = d_z_hidden @ model.hidden_w
    conv_len = model.window - model.kernel + 1
    d_flat = d_hidden_in[:, : model.n_filters * conv_len]
    d_a_conv = d_flat.reshape(n, model.n_filters, conv_len)
    d_z_conv = d_a_conv * _activate_grad(z_conv, model.activation)
    g_conv_w = np.einsum("npj,njkf->pkf", d_z_conv, windows)
    g_conv_b = d_z_conv.sum(axis=(0, 2))

    g_conv_w += lambda1 * np.sign(model.conv_w) + 2.0 * lambda2 * model.conv_w
    g_hidden_w += lambda1 * np.sign(model.hidden_w) + 2.0 * lambda2 * model.hidden_w
    return {
        "conv_w": g_conv_w,
        "conv_b": g_conv_b,
        "hidden_w": g_hidden_w,
        "hidden_b": g_hidden_b,
        "out_w": g_out_w,
        "out_b": g_out_b,
    }


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    t: int,
    config: TrainConfig,
) -> None:
    """Bias-corrected Adam update number t (from 1), in place: the
    parameter arrays and the moment estimates m and v are overwritten."""
    b1, b2 = config.beta1, config.beta2
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1**t)
        v_hat = v[name] / (1.0 - b2**t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)


def train(
    model: CnnModel, train_set: WindowSet, val_set: WindowSet, config: TrainConfig
) -> tuple[CnnModel, LearningCurve]:
    """Minibatch Adam with early stopping on validation MSE.

    Only the sets' X, d and y are read. Each epoch shuffles the training
    set with a seeded permutation and walks it in batches (final partial
    batch kept). Training stops once validation MSE has not improved by
    more than the tolerance for `patience` consecutive epochs; the
    returned model carries the parameters of the best-validation epoch.
    `model` itself is left unchanged.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    current = _copy(model)
    params = current.params()  # the arrays that adam_step updates
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    t = 0
    curve = LearningCurve()
    X, d, y = train_set.X, train_set.d, train_set.y

    best_val = np.inf  # strict minimum, decides which params to restore
    sig_best = np.inf  # tolerance-gated reference, drives the patience counter
    best = model  # returned only if no validation MSE is below inf
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            grads = backward(
                current, X[idx], d[idx], y[idx], config.lambda1, config.lambda2
            )
            t += 1
            adam_step(params, grads, m, v, t, config)
        train_pred, _ = forward_batch(current, X, d)
        val_pred, _ = forward_batch(current, val_set.X, val_set.d)
        train_mse = float(np.mean((y - train_pred) ** 2))
        val_mse = float(np.mean((val_set.y - val_pred) ** 2))
        curve.train_cost.append(
            train_mse + _penalty(current, config.lambda1, config.lambda2)
        )
        curve.train_mse.append(train_mse)
        curve.val_mse.append(val_mse)

        if val_mse < best_val:
            best_val = val_mse
            best = _copy(current)
            curve.best_epoch = epoch
        if val_mse < sig_best - config.early_stop_tolerance:
            sig_best = val_mse
            stale = 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    return best, curve


def _copy(model: CnnModel) -> CnnModel:
    """The model over float64 copies of its parameter arrays."""
    return model.with_params({n: p.astype(np.float64) for n, p in model.params().items()})


def mean_normalized_filter(model: CnnModel) -> np.ndarray:
    """Average of the per-filter z-scored conv weights, as a k-by-f matrix.

    Each filter is standardized over its own k*f entries (a constant
    filter contributes zeros) before averaging across the filter bank.
    """
    if model.n_filters < 1:
        raise ValueError("model has no conv filters")
    normalized = np.zeros_like(model.conv_w)
    for p in range(model.n_filters):
        filt = model.conv_w[p]
        std = filt.std()
        if std > 0:
            normalized[p] = (filt - filt.mean()) / std
    return normalized.mean(axis=0)
