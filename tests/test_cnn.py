import warnings

import numpy as np
import pytest

from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fplcast.cnn import (
    PARAM_NAMES,
    CnnModel,
    TrainConfig,
    adam_step,
    backward,
    cost,
    forward_batch,
    init_model,
    mean_normalized_filter,
    train,
)
from fplcast.dataset import WindowSet
from fplcast.serialize import ModelContext, read_cnn, write_cnn


def finite_difference_grads(model, batch, lambda1, lambda2, step=1e-5):
    """Central differences of the cost of batch = (X, d, y)."""
    grads = {}
    params = model.params()
    for name, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            original = p[ix]
            p[ix] = original + step
            up = cost(model.with_params(params), *batch, lambda1, lambda2)
            p[ix] = original - step
            down = cost(model.with_params(params), *batch, lambda1, lambda2)
            p[ix] = original
            g[ix] = (up - down) / (2 * step)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
        worst = max(worst, float(rel.max()))
    return worst


def random_batch(rng, n, w, f):
    """(X, d, y) of n random examples."""
    return rng.normal(size=(n, w, f)), rng.normal(size=n), rng.normal(size=n)


def _oracle_activate(z, activation):
    return np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)


def _oracle_activate_grad(z, activation):
    if activation == "relu":
        return (z > 0).astype(np.float64)
    t = np.tanh(z)
    return 1.0 - t * t


def oracle_forward_batch(model, X, d, magnitudes=False):
    """Oracle: the conv as an einsum over a sliding-window view; returns
    predictions and (windows, z_conv, hidden_in, z_hidden, a_hidden).

    With magnitudes=True every factor is taken by its magnitude and each
    activation by the identity, which bounds relu and tanh (|a(z)| <= |z|,
    slope at most 1): each prediction becomes the sum of the magnitudes of
    the terms it adds up, through every layer, the scale that the rounding
    error of sums whose terms cancel grows with."""
    size = np.abs if magnitudes else (lambda a: a)
    activate = (lambda z, _: z) if magnitudes else _oracle_activate
    windows = np.lib.stride_tricks.sliding_window_view(X, model.kernel, axis=1)
    windows = size(windows.transpose(0, 1, 3, 2))  # n, J, k, f
    z_conv = (
        np.einsum("njkf,pkf->npj", windows, size(model.conv_w))
        + size(model.conv_b)[None, :, None]
    )  # n, filters, J
    flat = activate(z_conv, model.activation).reshape(len(X), -1)
    hidden_in = np.concatenate([flat, size(d)[:, None]], axis=1)
    z_hidden = hidden_in @ size(model.hidden_w).T + size(model.hidden_b)
    a_hidden = activate(z_hidden, model.activation)
    yhat = a_hidden @ size(model.out_w) + size(model.out_b[0])
    return yhat, (windows, z_conv, hidden_in, z_hidden, a_hidden)


def oracle_backward(model, X, d, y, lambda1, lambda2, size=lambda a: a):
    """Oracle: exact gradients, the conv weight gradient as an einsum.

    With size=np.abs every factor is taken by its magnitude, so each
    gradient becomes the sum of the magnitudes of the terms it adds up: the
    scale that the rounding error of a sum whose terms cancel grows with."""
    n = len(y)
    yhat, (windows, z_conv, hidden_in, z_hidden, a_hidden) = oracle_forward_batch(
        model, X, d
    )
    d_yhat = size(2.0 * (yhat - y) / n)
    g_out_w = size(a_hidden).T @ d_yhat
    g_out_b = np.array([d_yhat.sum()])
    d_a_hidden = np.outer(d_yhat, size(model.out_w))
    d_z_hidden = d_a_hidden * _oracle_activate_grad(z_hidden, model.activation)
    g_hidden_w = d_z_hidden.T @ size(hidden_in)
    g_hidden_b = d_z_hidden.sum(axis=0)
    d_hidden_in = d_z_hidden @ size(model.hidden_w)
    d_a_conv = d_hidden_in[:, :-1].reshape(z_conv.shape)
    d_z_conv = d_a_conv * _oracle_activate_grad(z_conv, model.activation)
    g_conv_w = np.einsum("npj,njkf->pkf", d_z_conv, size(windows))
    g_conv_b = d_z_conv.sum(axis=(0, 2))
    g_conv_w += size(lambda1 * np.sign(model.conv_w) + 2.0 * lambda2 * model.conv_w)
    g_hidden_w += size(lambda1 * np.sign(model.hidden_w) + 2.0 * lambda2 * model.hidden_w)
    grads = (g_conv_w, g_conv_b, g_hidden_w, g_hidden_b, g_out_w, g_out_b)
    return dict(zip(PARAM_NAMES, grads))


class TestInitModel:
    def test_deterministic(self):
        a = init_model(4, 2, 3, n_filters=5, n_hidden=6, seed=42)
        b = init_model(4, 2, 3, n_filters=5, n_hidden=6, seed=42)
        for name, p in a.params().items():
            np.testing.assert_array_equal(p, b.params()[name])

    def test_biases_zero(self):
        model = init_model(4, 2, 3, seed=0)
        assert not model.conv_b.any()
        assert not model.hidden_b.any()
        assert not model.out_b.any()

    def test_conv_output_length(self):
        # The cache holds the unrolled windows (n, w-k+1, k*f) and the conv
        # activations (n*(w-k+1), filters).
        model = init_model(5, 3, 2, n_filters=4, n_hidden=3, seed=1)
        yhat, (unrolled, a_conv, *_rest) = forward_batch(
            model, np.zeros((1, 5, 2)), np.array([0.0])
        )
        assert unrolled.shape == (1, 5 - 3 + 1, 3 * 2)
        assert a_conv.shape == (1 * (5 - 3 + 1), 4)

    def test_kernel_wider_than_window_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            init_model(2, 3, 1, seed=0)

    def test_parameter_count_law(self):
        w, k, f, F, h = 6, 2, 4, 8, 5
        model = init_model(w, k, f, n_filters=F, n_hidden=h, seed=2)
        expected = F * k * f + F + h * (F * (w - k + 1) + 1) + h + h + 1
        assert sum(p.size for p in model.params().values()) == expected

    def test_weights_within_glorot_limits(self):
        model = init_model(4, 2, 3, n_filters=10, n_hidden=10, seed=3)
        limit = np.sqrt(6.0 / (2 * 3 + 2 * 10))
        assert np.abs(model.conv_w).max() <= limit


def sum_network(w):
    """Hand-checkable net: conv kernel 1, single unit filter, dense rows
    of ones; output = sum of window + difficulty on non-negative input."""
    return CnnModel(
        conv_w=np.ones((1, 1, 1)),
        conv_b=np.zeros(1),
        hidden_w=np.ones((1, w + 1)),
        hidden_b=np.zeros(1),
        out_w=np.ones(1),
        out_b=np.zeros(1),
        activation="relu",
        window=w,
    )


class TestForward:
    def test_all_zero_parameters_give_zero(self):
        model = init_model(3, 1, 2, n_filters=2, n_hidden=2, seed=0)
        zeros = {k: np.zeros_like(v) for k, v in model.params().items()}
        [yhat], _ = forward_batch(model.with_params(zeros), np.ones((1, 3, 2)), np.array([5.0]))
        assert yhat == 0.0

    def test_sum_network_hand_arithmetic(self):
        model = sum_network(w=3)
        X = np.array([[1.0], [2.0], [4.0]])
        [yhat], _ = forward_batch(model, X[None], np.array([3.0]))
        assert yhat == pytest.approx(1 + 2 + 4 + 3)

    def test_relu_positive_homogeneity(self):
        model = init_model(4, 2, 2, n_filters=3, n_hidden=3, seed=4)
        X = np.abs(np.random.default_rng(0).normal(size=(4, 2)))
        _, (u1, a1, *_r1) = forward_batch(model, X[None], np.array([0.0]))
        _, (u2, a2, *_r2) = forward_batch(model, 2 * X[None], np.array([0.0]))
        np.testing.assert_allclose(a2, 2 * a1, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = init_model(3, 1, 2, seed=0)
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros((1, 4, 2)), np.array([0.0]))


class TestCost:
    def test_no_penalty_reduces_to_mse(self):
        model = init_model(3, 1, 1, n_filters=2, n_hidden=2, seed=5)
        X, d, y = random_batch(np.random.default_rng(1), 6, 3, 1)
        yhat, _ = forward_batch(model, X, d)
        assert cost(model, X, d, y, 0.0, 0.0) == pytest.approx(
            float(np.mean((y - yhat) ** 2))
        )

    def test_perfect_predictions_leave_penalty_only(self):
        model = sum_network(w=2)
        X = np.array([[[1.0], [2.0]]])
        d = np.array([1.0])
        yhat, _ = forward_batch(model, X, d)
        # ||C||_1 = 1, ||W1||_1 = 3; ||C||_2^2 = 1, ||W1||_2^2 = 3.
        assert cost(model, X, d, yhat, 0.5, 0.25) == pytest.approx(
            0.5 * (1 + 3) + 0.25 * (1 + 3)
        )

    def test_one_by_one_toy_hand_value(self):
        model = CnnModel(
            conv_w=np.array([[[2.0]]]),
            conv_b=np.array([0.5]),
            hidden_w=np.array([[1.0, 3.0]]),
            hidden_b=np.array([0.0]),
            out_w=np.array([1.0]),
            out_b=np.array([0.25]),
            activation="relu",
            window=1,
        )
        # X=1: conv -> 2*1+0.5 = 2.5; hidden -> 2.5 + 3d; d=1 -> 5.5;
        # yhat = 5.75. y = 1 -> mse (4.75)^2. Penalties: l1*(2+4), l2*(4+10).
        batch = np.array([[[1.0]]]), np.array([1.0]), np.array([1.0])
        expected = 4.75**2 + 0.1 * (2 + 4) + 0.01 * (4 + 10)
        assert cost(model, *batch, 0.1, 0.01) == pytest.approx(expected)

    def test_cost_decomposition(self):
        model = init_model(4, 3, 2, n_filters=3, n_hidden=4, seed=6)
        batch = random_batch(np.random.default_rng(2), 8, 4, 2)
        p1 = np.abs(model.conv_w).sum() + np.abs(model.hidden_w).sum()
        p2 = (model.conv_w**2).sum() + (model.hidden_w**2).sum()
        base = cost(model, *batch, 0.0, 0.0)
        for l1, l2 in ((0.3, 0.0), (0.0, 0.7), (0.2, 0.4)):
            assert cost(model, *batch, l1, l2) == pytest.approx(
                base + l1 * p1 + l2 * p2, rel=1e-12
            )

    def test_empty_batch_rejected(self):
        model = init_model(2, 1, 1, seed=0)
        empty = np.zeros((0, 2, 1)), np.zeros(0), np.zeros(0)
        with pytest.raises(ValueError):
            cost(model, *empty, 0.0, 0.0)
        with pytest.raises(ValueError):
            backward(model, *empty, 0.0, 0.0)


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for activation in ("relu", "tanh"):
            model = init_model(
                5, 2, 3, n_filters=3, n_hidden=4, activation=activation, seed=8
            )
            batch = random_batch(rng, 6, 5, 3)
            analytic = backward(model, *batch, 0.01, 0.01)
            numeric = finite_difference_grads(model, batch, 0.01, 0.01)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_residual_no_penalty_gives_zero_grads(self):
        model = sum_network(w=2)
        X = np.array([[[1.0], [2.0]], [[0.5], [3.0]]])
        d = np.array([1.0, 0.0])
        yhat, _ = forward_batch(model, X, d)
        grads = backward(model, X, d, yhat, 0.0, 0.0)
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_pure_l2_gradient_is_two_lambda_w(self):
        model = init_model(3, 2, 2, n_filters=2, n_hidden=3, seed=9)
        X, d, _ = random_batch(np.random.default_rng(3), 4, 3, 2)
        yhat, _ = forward_batch(model, X, d)
        grads = backward(model, X, d, yhat, 0.0, 0.5)
        np.testing.assert_allclose(grads["hidden_w"], 2 * 0.5 * model.hidden_w)
        np.testing.assert_allclose(grads["conv_w"], 2 * 0.5 * model.conv_w)
        np.testing.assert_array_equal(grads["out_w"], np.zeros_like(model.out_w))

    def test_l1_subgradient_at_zero_is_zero(self):
        model = sum_network(w=2)
        zeroed = model.params()
        zeroed["conv_w"] = np.zeros_like(zeroed["conv_w"])
        model = model.with_params(zeroed)
        X = np.array([[[1.0], [2.0]]])
        yhat, _ = forward_batch(model, X, np.array([0.0]))
        grads = backward(model, X, np.array([0.0]), yhat, 1.0, 0.0)
        np.testing.assert_array_equal(grads["conv_w"], np.zeros_like(model.conv_w))


@dataclass
class AdamState:
    """The pure Adam oracle's moment estimates and step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def pure_adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Oracle: one bias-corrected Adam update that mutates no input."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name], new_v[name] = m, v
    return new_params, AdamState(m=new_m, v=new_v, t=t)


def _max_scaled_error(actual, expected, magnitude):
    """max |actual - expected|, over the largest entry of |magnitude|."""
    scale = np.abs(magnitude).max()
    return np.abs(actual - expected).max() / scale if scale else np.abs(actual).max()


class TestAgainstOracles:
    """The unrolled matrix-product step computes what the einsum step did."""

    # Gradients whose terms cancel: seeds 7 and 7015 failed the check when
    # it scaled each gradient's error by the gradient itself.
    @example((7, 5), 16, 4, 2, "relu", 1.0, 1.0, 2, 7)
    @example((3, 2), 12, 2, 1, "tanh", 1.0, 1.0, 10, 7015)
    # A prediction whose terms cancel to -1.5e-5: an error of 7e-17 failed
    # the check when it scaled by the largest |prediction|.
    @example((4, 4), 4, 4, 4, "tanh", 1.0, 1.0, 1, 4)
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
        st.integers(1, 19),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from(["relu", "tanh"]),
        st.floats(1e-4, 1.0),
        st.floats(1e-4, 1.0),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_predictions_and_gradients(
        self, wk, f, n_filters, n_hidden, activation, lambda1, lambda2, n, seed
    ):
        (w, k), rng = wk, np.random.default_rng(seed)
        model = init_model(w, k, f, n_filters, n_hidden, activation, seed=seed)
        # Nonzero biases, so every term of the step is exercised.
        model = model.with_params(
            {name: p + 0.1 * rng.normal(size=p.shape) for name, p in model.params().items()}
        )
        X, d, y = random_batch(rng, n, w, f)
        yhat, _ = forward_batch(model, X, d)
        expected, _ = oracle_forward_batch(model, X, d)
        summed, _ = oracle_forward_batch(model, X, d, magnitudes=True)
        assert _max_scaled_error(yhat, expected, summed) <= 1e-12
        grads = backward(model, X, d, y, lambda1, lambda2)
        oracle = oracle_backward(model, X, d, y, lambda1, lambda2)
        summed = oracle_backward(model, X, d, y, lambda1, lambda2, size=np.abs)
        assert list(grads) == list(oracle) == list(PARAM_NAMES)
        for name, g in grads.items():
            assert g.shape == oracle[name].shape, name
            assert _max_scaled_error(g, oracle[name], summed[name]) <= 1e-12, name


class TestArrayChecks:
    """Windows, difficulties and targets must have one row per example."""

    def test_forward_rejects_bad_windows_or_difficulties(self):
        model = init_model(3, 1, 2, n_filters=2, n_hidden=2, seed=0)
        with pytest.raises(ValueError, match="difficulties"):
            forward_batch(model, np.zeros((4, 3)), np.zeros(4))
        with pytest.raises(ValueError, match="difficulties"):
            forward_batch(model, np.zeros((4, 3, 2)), np.zeros(3))
        with pytest.raises(ValueError, match="difficulties"):
            cost(model, np.zeros((4, 3, 2)), np.zeros(5), np.zeros(4), 0.0, 0.0)

    @pytest.mark.parametrize("n_targets", [1, 3, 5])
    def test_cost_and_backward_reject_misaligned_targets(self, n_targets):
        model = init_model(3, 1, 2, n_filters=2, n_hidden=2, seed=0)
        X, d, y = np.zeros((4, 3, 2)), np.zeros(4), np.zeros(n_targets)
        with pytest.raises(ValueError, match="targets"):
            cost(model, X, d, y, 0.0, 0.0)
        with pytest.raises(ValueError, match="targets"):
            backward(model, X, d, y, 0.0, 0.0)

    def test_integer_and_float_difficulties_and_targets_agree(self):
        rng = np.random.default_rng(31)
        model = init_model(4, 2, 3, n_filters=3, n_hidden=4, activation="tanh", seed=32)
        X = rng.normal(size=(9, 4, 3))
        d, y = rng.integers(-4, 5, size=9), rng.integers(-2, 20, size=9)
        as_float = d.astype(np.float64), y.astype(np.float64)
        assert cost(model, X, d, y, 0.1, 0.2) == cost(model, X, *as_float, 0.1, 0.2)
        grads = backward(model, X, d, y, 0.1, 0.2)
        for name, g in backward(model, X, *as_float, 0.1, 0.2).items():
            assert np.array_equal(grads[name], g)


def flat(arrays):
    """The arrays of a dict, raveled and concatenated in order."""
    return np.concatenate([a.ravel() for a in arrays.values()])


class TestAdamStep:
    """adam_step updates flat arrays: every parameter in one buffer."""

    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, -2.0, 0.5])
        m, v = np.zeros(3), np.zeros(3)
        adam_step(params, np.zeros(3), m, v, 1, TrainConfig(learning_rate=0.1))
        np.testing.assert_array_equal(params, [1.0, -2.0, 0.5])
        assert not m.any() and not v.any()

    def test_first_step_is_signed_learning_rate(self):
        params, m, v = np.zeros(2), np.zeros(2), np.zeros(2)
        adam_step(params, np.array([3.0, -0.5]), m, v, 1, TrainConfig(learning_rate=0.01))
        np.testing.assert_allclose(params, [-0.01, 0.01], atol=0.01 * 1e-3)

    def test_updates_the_given_arrays(self):
        buffer = np.array([1.0, -2.0, 0.5])
        params, m, v = buffer[:], np.zeros(3), np.zeros(3)
        grads = np.array([1.0, 1.0, -1.0])
        adam_step(params, grads, m, v, 1, TrainConfig(learning_rate=0.05))
        assert params.base is buffer and buffer[0] < 1.0 and buffer[2] > 0.5
        assert m.all() and v.all()
        np.testing.assert_array_equal(grads, [1.0, 1.0, -1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_the_pure_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = {
            f"p{i}": rng.normal(size=tuple(rng.integers(1, 5, size=rng.integers(1, 4))))
            for i in range(int(rng.integers(1, 5)))
        }
        config = TrainConfig(
            learning_rate=float(10 ** rng.uniform(-4, -1)),
            beta1=float(rng.uniform(0.5, 0.99)),
            beta2=float(rng.uniform(0.9, 0.9999)),
            eps=float(10 ** rng.uniform(-10, -6)),
        )
        expected, state = dict(params), AdamState.zeros_like(params)
        params = flat(params)
        m, v = np.zeros_like(params), np.zeros_like(params)
        for t in range(1, 51):
            grads = {
                name: rng.normal(size=p.shape) * 10 ** rng.uniform(-3, 3)
                for name, p in expected.items()
            }
            expected, state = pure_adam_step(
                expected, grads, state, config.learning_rate,
                config.beta1, config.beta2, config.eps,
            )
            adam_step(params, flat(grads), m, v, t, config)
            assert (params == flat(expected)).all()
            assert (m == flat(state.m)).all()
            assert (v == flat(state.v)).all()


def window_set(X, d, y):
    """A WindowSet of bare arrays; train reads only X, d and y."""
    n = len(d)
    return WindowSet(X, d, y, np.full(n, None, dtype=object), np.zeros(n, dtype=np.int64))


def linear_batches(seed, n_train=96, n_val=32, w=3, f=1):
    rng = np.random.default_rng(seed)

    def make(n):
        X = rng.normal(size=(n, w, f))
        d = rng.integers(-3, 4, size=n).astype(float)
        y = X.sum(axis=(1, 2)) * 1.5 - 0.4 * d + 0.05 * rng.normal(size=n)
        return window_set(X, d, y)

    return make(n_train), make(n_val)


class TestTrain:
    def test_learns_linear_signal(self):
        train_set, val_set = linear_batches(seed=10)
        model = init_model(3, 1, 1, n_filters=4, n_hidden=8, seed=11)
        config = TrainConfig(epochs=200, learning_rate=0.01, seed=12, patience=200)
        best, curve = train(model, train_set, val_set, config)
        assert curve.train_mse[-1] < curve.train_mse[0]
        assert min(curve.val_mse) < 1.0

    def test_best_restore_is_argmin_val(self):
        train_set, val_set = linear_batches(seed=13)
        model = init_model(3, 1, 1, n_filters=3, n_hidden=4, seed=14)
        config = TrainConfig(epochs=25, seed=15, patience=25)
        best, curve = train(model, train_set, val_set, config)
        pred, _ = forward_batch(best, val_set.X, val_set.d)
        restored_val = float(np.mean((val_set.y - pred) ** 2))
        assert restored_val == min(curve.val_mse)
        assert curve.best_epoch == int(np.argmin(curve.val_mse))

    def test_restores_an_earlier_epoch_than_the_last(self):
        # Later epochs overwrite the working parameters in place; the best
        # epoch's must survive them.
        train_set, val_set = linear_batches(seed=13, n_train=24, n_val=8)
        model = init_model(3, 1, 1, n_filters=3, n_hidden=4, seed=14)
        config = TrainConfig(
            epochs=60, learning_rate=0.05, batch_size=4, seed=15, patience=60
        )
        best, curve = train(model, train_set, val_set, config)
        assert curve.best_epoch < len(curve.val_mse) - 1
        pred, _ = forward_batch(best, val_set.X, val_set.d)
        assert float(np.mean((val_set.y - pred) ** 2)) == min(curve.val_mse)

    def test_early_stopping_bounds(self):
        train_set, val_set = linear_batches(seed=16)
        model = init_model(3, 1, 1, n_filters=2, n_hidden=2, seed=17)
        # Learning rate too small to improve: stop after patience+1 epochs.
        config = TrainConfig(
            epochs=50, learning_rate=1e-12, seed=18, patience=4
        )
        _, curve = train(model, train_set, val_set, config)
        assert len(curve.val_mse) == config.patience + 1
        config_full = TrainConfig(epochs=5, seed=18, patience=50)
        _, curve_full = train(model, train_set, val_set, config_full)
        assert len(curve_full.val_mse) <= config_full.epochs

    def test_deterministic(self):
        train_set, val_set = linear_batches(seed=19)
        model = init_model(3, 1, 1, n_filters=3, n_hidden=3, seed=20)
        config = TrainConfig(epochs=10, seed=21, patience=10)
        best_a, curve_a = train(model, train_set, val_set, config)
        best_b, curve_b = train(model, train_set, val_set, config)
        assert curve_a.val_mse == curve_b.val_mse
        for name, p in best_a.params().items():
            np.testing.assert_array_equal(p, best_b.params()[name])

    @pytest.mark.parametrize("config", [
        # The penalty overflows to inf.
        TrainConfig(epochs=3, lambda1=2.68527679243175e307, seed=27),
        # The first Adam step throws the weights far enough to make nan.
        TrainConfig(epochs=3, learning_rate=1.157920892373161e77, seed=27),
    ], ids=["huge_lambda1", "huge_learning_rate"])
    def test_a_diverging_fit_raises_naming_its_epoch_and_warns_nothing(self, config):
        train_set, val_set = linear_batches(seed=25)
        model = init_model(3, 1, 1, n_filters=3, n_hidden=3, seed=26)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^CNN training diverged in epoch 0: "
                                                 r"train cost (inf|nan), validation MSE"):
                train(model, train_set, val_set, config)

    def test_a_non_finite_validation_mse_alone_is_a_divergence(self):
        train_set, val_set = linear_batches(seed=25)
        X = val_set.X.copy()
        X[0], X[1] = 1e200, -1e200  # finite windows whose squared errors overflow
        model = init_model(3, 1, 1, n_filters=3, n_hidden=3, seed=26)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^CNN training diverged in epoch 0: "
                                                 r"train cost [0-9.]+, validation MSE inf$"):
                train(model, train_set, window_set(X, val_set.d, val_set.y),
                      TrainConfig(epochs=3, seed=27))

    def test_empty_sets_rejected(self):
        model = init_model(3, 1, 1, seed=0)
        empty = WindowSet.empty(3, 1)
        filled = window_set(np.zeros((2, 3, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            train(model, empty, filled, TrainConfig())
        with pytest.raises(ValueError):
            train(model, filled, empty, TrainConfig())

    def test_input_model_unchanged(self):
        train_set, val_set = linear_batches(seed=22)
        model = init_model(3, 1, 1, n_filters=3, n_hidden=3, seed=23)
        before = {name: p.copy() for name, p in model.params().items()}
        best, _ = train(model, train_set, val_set, TrainConfig(epochs=5, seed=24))
        for name, p in model.params().items():
            np.testing.assert_array_equal(p, before[name])
            assert best.params()[name] is not p
        assert not np.array_equal(best.conv_w, model.conv_w)

    def test_integer_and_float_sets_train_alike(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(60, 3, 2))
        d, y = rng.integers(-4, 5, size=60), rng.integers(-2, 15, size=60)
        int_sets = window_set(X[:40], d[:40], y[:40]), window_set(X[40:], d[40:], y[40:])
        d, y = d.astype(np.float64), y.astype(np.float64)
        float_sets = window_set(X[:40], d[:40], y[:40]), window_set(X[40:], d[40:], y[40:])
        model = init_model(3, 2, 2, n_filters=3, n_hidden=4, seed=26)
        config = TrainConfig(epochs=4, seed=27, lambda1=0.01, lambda2=0.01)
        best_int, curve_int = train(model, *int_sets, config)
        best_float, curve_float = train(model, *float_sets, config)
        assert curve_int == curve_float
        for name, p in best_int.params().items():
            assert np.array_equal(p, best_float.params()[name])

    def test_patience_below_one_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("name", ["learning_rate", "early_stop_tolerance", "lambda1",
                                      "lambda2", "beta1", "beta2", "eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="int_too_large_for_a_float")])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [1.0, 1.5, -0.1])
    def test_beta_outside_zero_one_rejected(self, name, value):
        with pytest.raises(ValueError, match="beta1 and beta2 must be in"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -1e-8])
    def test_eps_not_positive_rejected(self, value):
        with pytest.raises(ValueError, match="eps must be > 0"):
            TrainConfig(eps=value)

    def test_adam_bounds_are_inclusive_where_valid(self):
        train_set, val_set = linear_batches(seed=22)
        model = init_model(3, 1, 1, n_filters=2, n_hidden=2, seed=23)
        config = TrainConfig(epochs=2, beta1=0.0, beta2=0.0, eps=1e-300, seed=24)
        best, curve = train(model, train_set, val_set, config)
        assert all(np.isfinite(p).all() for p in best.params().values())


class TestMeanNormalizedFilter:
    def _model_with_filters(self, filters):
        filters = np.asarray(filters, dtype=float)
        F, k, f = filters.shape
        return CnnModel(
            conv_w=filters,
            conv_b=np.zeros(F),
            hidden_w=np.zeros((1, F * 1 + 1)),
            hidden_b=np.zeros(1),
            out_w=np.zeros(1),
            out_b=np.zeros(1),
            activation="relu",
            window=k,
        )

    def test_single_filter_is_its_zscore(self):
        model = self._model_with_filters([[[1.0], [3.0]]])
        out = mean_normalized_filter(model)
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_constant_filter_contributes_zeros(self):
        model = self._model_with_filters([[[2.0], [2.0]]])
        np.testing.assert_array_equal(
            mean_normalized_filter(model), np.zeros((2, 1))
        )

    def test_opposite_filters_cancel(self):
        model = self._model_with_filters(
            [[[1.0], [-1.0]], [[-1.0], [1.0]]]
        )
        np.testing.assert_allclose(mean_normalized_filter(model), np.zeros((2, 1)))

    def test_shape_is_kernel_by_features(self):
        model = init_model(5, 2, 3, n_filters=7, n_hidden=2, seed=22)
        assert mean_normalized_filter(model).shape == (2, 3)


class TestCnnSerialization:
    def test_round_trip_preserves_predictions(self):
        model = init_model(4, 2, 2, n_filters=3, n_hidden=5, seed=23)
        ctx = ModelContext(w=4, tier="pts_minutes", position="GK")
        parsed, parsed_ctx = read_cnn(write_cnn(model, ctx))
        X = np.random.default_rng(4).normal(size=(6, 4, 2))
        d = np.zeros(6)
        original, _ = forward_batch(model, X, d)
        restored, _ = forward_batch(parsed, X, d)
        np.testing.assert_array_equal(original, restored)
        assert parsed.activation == model.activation
        assert parsed_ctx.tier == "pts_minutes"
