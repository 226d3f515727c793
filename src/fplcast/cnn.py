"""From-scratch 1D convolutional network for score forecasting.

Architecture: a single valid-padding stride-1 convolution over the time
axis of the w-by-f window, activation, flatten, concatenate the upcoming
match difficulty, one dense hidden layer with activation, and a linear
scalar output.

It reads windows X (n, w, f), difficulties d and targets y, integer or
float; train minibatches two dataset.WindowSet values by indexing these.

Every layer is a matrix product. The convolution unrolls each window
into its w-k+1 positions of k*f values (im2col), so the conv output and
the conv weight gradient are one product each with the (filters, k*f)
filter bank.

The training cost is batch MSE plus an ElasticNet penalty on the conv
filter bank and the hidden dense weights only (biases and the output
layer are never penalized, and the penalty is added once per batch, not
averaged over it). Gradients are exact backpropagation; updates are
bias-corrected Adam, in place, over one flat buffer that holds every
working parameter; early stopping restores the best-validation epoch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import WindowSet

__all__ = [
    "CnnModel",
    "TrainConfig",
    "LearningCurve",
    "init_model",
    "forward_batch",
    "cost",
    "backward",
    "adam_step",
    "train",
    "mean_normalized_filter",
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
        for name in ("learning_rate", "early_stop_tolerance", "lambda1", "lambda2",
                     "beta1", "beta2", "eps"):
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
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
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


@dataclass
class LearningCurve:
    train_cost: list[float] = field(default_factory=list)
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0


ACTIVATIONS = ("relu", "tanh")


def _activate(z: np.ndarray, activation: str, out: np.ndarray | None = None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0, out=out)
    if activation == "tanh":
        return np.tanh(z, out=out)
    raise ValueError(f"unknown activation '{activation}'")


def _activate_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, from its output a."""
    # relu'(0) is defined as 0.
    if activation == "relu":
        return a > 0
    if activation == "tanh":
        return 1.0 - a * a
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


def forward_batch(model: CnnModel, X: np.ndarray, d: np.ndarray):
    """Vectorized forward pass; returns predictions and the cache backward
    needs: the unrolled windows U (n, w-k+1, k*f), the conv activations
    (n*(w-k+1), filters), the dense layer's input (the conv activations
    filter-major, then d) and the hidden activations."""
    if X.ndim != 3 or len(d) != len(X):
        raise ValueError(f"need X (n, w, f) and n difficulties, got {X.shape}, {len(d)}")
    if X.shape[1] != model.window or X.shape[2] != model.n_features:
        raise ValueError(
            f"expected windows of shape ({model.window}, {model.n_features}), "
            f"got {X.shape[1:]}"
        )
    n, w, f = X.shape
    k, p = model.kernel, model.n_filters
    J = w - k + 1
    # Column i*f + c of U holds X[:, j + i, c], as conv_w.reshape(p, k*f) does.
    U = np.concatenate([X[:, i : i + J] for i in range(k)], axis=2)
    # np.dot: matmul takes a slow non-BLAS loop when k*f is 1.
    a_conv = np.dot(U.reshape(n * J, k * f), model.conv_w.reshape(p, k * f).T)
    a_conv += model.conv_b
    _activate(a_conv, model.activation, out=a_conv)
    hidden_in = np.empty((n, p * J + 1))
    hidden_in[:, :-1].reshape(n, p, J)[...] = a_conv.reshape(n, J, p).transpose(0, 2, 1)
    hidden_in[:, -1] = d
    a_hidden = hidden_in @ model.hidden_w.T
    a_hidden += model.hidden_b
    _activate(a_hidden, model.activation, out=a_hidden)
    yhat = a_hidden @ model.out_w + model.out_b[0]
    return yhat, (U, a_conv, hidden_in, a_hidden)


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
    yhat, (U, a_conv, hidden_in, a_hidden) = forward_batch(model, X, d)

    d_yhat = 2.0 * (yhat - y) / n  # n,
    g_out_w = a_hidden.T @ d_yhat
    g_out_b = np.array([d_yhat.sum()])
    d_z_hidden = np.outer(d_yhat, model.out_w)
    d_z_hidden *= _activate_grad(a_hidden, model.activation)
    g_hidden_w = d_z_hidden.T @ hidden_in
    g_hidden_b = d_z_hidden.sum(axis=0)
    d_hidden_in = d_z_hidden @ model.hidden_w
    _, J, kf = U.shape
    # In a_conv's layout: the filter-major columns, transposed in one copy.
    d_z_conv = d_hidden_in[:, :-1].reshape(n, -1, J).transpose(0, 2, 1).reshape(n * J, -1)
    d_z_conv *= _activate_grad(a_conv, model.activation)
    g_conv_w = (d_z_conv.T @ U.reshape(n * J, kf)).reshape(model.conv_w.shape)
    g_conv_b = d_z_conv.sum(axis=0)

    for g, weights in ((g_conv_w, model.conv_w), (g_hidden_w, model.hidden_w)):
        penalty = np.sign(weights)  # lambda1 * sign(w) + 2 lambda2 w, in place
        penalty *= lambda1
        penalty += np.multiply(weights, 2.0 * lambda2)
        g += penalty
    grads = (g_conv_w, g_conv_b, g_hidden_w, g_hidden_b, g_out_w, g_out_b)
    return dict(zip(PARAM_NAMES, grads))


def adam_step(params: np.ndarray, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, config: TrainConfig) -> None:
    """Bias-corrected Adam update number t (from 1), in place: the flat
    parameters and the moment estimates m and v are overwritten. Two
    scratch arrays take the textbook expressions' temporaries, so every
    element is rounded exactly as those expressions round it."""
    b1, b2 = config.beta1, config.beta2
    step, denom = np.empty_like(params), np.empty_like(params)
    m *= b1
    m += np.multiply(grads, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(np.multiply(grads, 1.0 - b2, out=denom), grads, out=denom)
    np.divide(m, 1.0 - b1**t, out=step)  # m_hat
    np.divide(v, 1.0 - b2**t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += config.eps
    step *= config.learning_rate
    step /= denom
    params -= step


@np.errstate(all="ignore")  # a diverging fit raises below instead
def train(
    model: CnnModel, train_set: WindowSet, val_set: WindowSet, config: TrainConfig
) -> tuple[CnnModel, LearningCurve]:
    """Minibatch Adam with early stopping on validation MSE.

    Only the sets' X, d and y are read. Each epoch shuffles the training
    set with a seeded permutation and walks it in batches (final partial
    batch kept). Training stops once validation MSE has not improved by
    more than the tolerance for `patience` consecutive epochs; the
    returned model carries the parameters of the best-validation epoch.
    `model` itself is left unchanged. An epoch whose train cost or
    validation MSE is not finite raises ValueError, naming the epoch as
    the learning curve counts it (from 0).
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    params, current = _flat_copy(model)  # current's arrays are views of params
    l1, l2 = config.lambda1, config.lambda2
    m, v = np.zeros_like(params), np.zeros_like(params)
    t = 0
    curve = LearningCurve()
    X, d, y = train_set.X, train_set.d, train_set.y

    best_val = np.inf  # strict minimum, decides which params to restore
    sig_best = np.inf  # tolerance-gated reference, drives the patience counter
    best = None  # set in epoch 0, whose validation MSE is finite
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            grads = backward(current, X[idx], d[idx], y[idx], l1, l2).values()
            t += 1
            adam_step(params, np.concatenate([g.ravel() for g in grads]), m, v, t, config)
        train_pred, _ = forward_batch(current, X, d)
        val_pred, _ = forward_batch(current, val_set.X, val_set.d)
        train_mse = float(np.mean((y - train_pred) ** 2))
        val_mse = float(np.mean((val_set.y - val_pred) ** 2))
        train_cost = train_mse + _penalty(current, l1, l2)
        if not (np.isfinite(train_cost) and np.isfinite(val_mse)):
            raise ValueError(f"CNN training diverged in epoch {epoch}: train cost "
                             f"{train_cost:g}, validation MSE {val_mse:g}")
        curve.train_cost.append(train_cost)
        curve.train_mse.append(train_mse)
        curve.val_mse.append(val_mse)

        if val_mse < best_val:
            best_val = val_mse
            best = _flat_copy(current)[1]
            curve.best_epoch = epoch
        if val_mse < sig_best - config.early_stop_tolerance:
            sig_best = val_mse
            stale = 0
        else:
            stale += 1
        if stale >= config.patience:
            break
    return best, curve


def _flat_copy(model: CnnModel) -> tuple[np.ndarray, CnnModel]:
    """One flat float64 copy of the parameters, and the model over views of it."""
    params = model.params()
    flat = np.concatenate([p.ravel() for p in params.values()]).astype(np.float64)
    parts = np.split(flat, np.cumsum([p.size for p in params.values()])[:-1])
    return flat, model.with_params(
        {name: part.reshape(p.shape) for (name, p), part in zip(params.items(), parts)}
    )


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
