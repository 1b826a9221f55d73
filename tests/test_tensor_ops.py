"""Unit tests for the pure NumPy kernels in repro.tensor.ops."""

import numpy as np
import pytest

from repro.tensor import ops


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBatchedMatmul:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 6))
        assert np.allclose(ops.batched_matmul(a, b), a @ b)

    def test_backward_shapes(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        grad = rng.normal(size=(2, 3, 5))
        ga, gb = ops.matmul_backward(grad, a, b)
        assert ga.shape == a.shape and gb.shape == b.shape

    def test_backward_values_against_numerical(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        grad = np.ones((3, 2))
        ga, gb = ops.matmul_backward(grad, a, b)
        eps = 1e-6
        idx = (1, 2)
        a_pert = a.copy()
        a_pert[idx] += eps
        numerical = (np.sum(a_pert @ b) - np.sum(a @ b)) / eps
        assert ga[idx] == pytest.approx(numerical, rel=1e-4)


class TestUnbroadcast:
    def test_no_broadcast_is_identity(self, rng):
        g = rng.normal(size=(3, 4))
        assert np.array_equal(ops.unbroadcast(g, (3, 4)), g)

    def test_sums_leading_axes(self, rng):
        g = rng.normal(size=(5, 3, 4))
        out = ops.unbroadcast(g, (3, 4))
        assert np.allclose(out, g.sum(axis=0))

    def test_sums_size_one_axes(self, rng):
        g = rng.normal(size=(3, 4))
        out = ops.unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        assert np.allclose(out, g.sum(axis=0, keepdims=True))

    def test_bias_shape(self, rng):
        g = rng.normal(size=(2, 3, 4))
        out = ops.unbroadcast(g, (4,))
        assert out.shape == (4,)
        assert np.allclose(out, g.sum(axis=(0, 1)))


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(4, 7))
        assert np.allclose(ops.softmax(x).sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        assert np.allclose(ops.softmax(x), ops.softmax(x + 100.0))

    def test_large_values_stable(self):
        x = np.array([[1000.0, 1000.0]])
        out = ops.softmax(x)
        assert np.allclose(out, 0.5)

    def test_inf_input_produces_nan_row(self):
        # +inf in a row makes the shifted exponent inf - inf = nan somewhere,
        # which is the propagation behaviour Table 2 documents (1R-NaN in AP).
        x = np.array([[1.0, np.inf, 2.0]])
        out = ops.softmax(x)
        assert np.isnan(out).any()

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(2, 5))
        out = ops.softmax(x)
        grad_out = rng.normal(size=(2, 5))
        analytic = ops.softmax_backward(grad_out, out)
        eps = 1e-6
        idx = (1, 3)
        x_pert = x.copy()
        x_pert[idx] += eps
        numerical = np.sum(grad_out * (ops.softmax(x_pert) - out)) / eps
        assert analytic[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)


class TestLogSoftmax:
    def test_exp_matches_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        assert np.allclose(np.exp(ops.log_softmax(x)), ops.softmax(x))

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(2, 4))
        out = ops.log_softmax(x)
        grad_out = rng.normal(size=(2, 4))
        analytic = ops.log_softmax_backward(grad_out, out)
        eps = 1e-6
        idx = (0, 2)
        x_pert = x.copy()
        x_pert[idx] += eps
        numerical = np.sum(grad_out * (ops.log_softmax(x_pert) - out)) / eps
        assert analytic[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)


class TestActivations:
    def test_gelu_known_values(self):
        assert ops.gelu(np.array(0.0)) == pytest.approx(0.0)
        assert float(ops.gelu(np.array(10.0))) == pytest.approx(10.0, rel=1e-3)
        assert float(ops.gelu(np.array(-10.0))) == pytest.approx(0.0, abs=1e-3)

    def test_gelu_backward_numerical(self, rng):
        x = rng.normal(size=7)
        grad = np.ones(7)
        analytic = ops.gelu_backward(grad, x)
        eps = 1e-6
        numerical = (ops.gelu(x + eps) - ops.gelu(x)) / eps
        assert np.allclose(analytic, numerical, rtol=1e-3, atol=1e-5)

    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(ops.relu(x), [0.0, 0.0, 2.0])
        assert np.array_equal(ops.relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])

    def test_tanh_backward(self, rng):
        x = rng.normal(size=5)
        out = ops.tanh(x)
        eps = 1e-6
        numerical = (ops.tanh(x + eps) - out) / eps
        assert np.allclose(ops.tanh_backward(np.ones(5), out), numerical, rtol=1e-3, atol=1e-6)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_pow(x):
    """GELU written with ``x**3``: the formula the kernel must keep matching."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _gelu_backward_pow(grad_out, x):
    u = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(u)
    du_dx = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return grad_out * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du_dx)


class TestGeluMatchesPowFormula:
    @pytest.fixture
    def x(self):
        magnitudes = np.logspace(-8, 3, 20001)
        return np.concatenate([-magnitudes[::-1], magnitudes])

    def test_forward_within_4_ulp(self, x):
        # gelu = 0.5 * x * (1 + tanh(u)); the ulp is taken at the scale of
        # that product, |x|, because 1 + tanh(u) cancels on the negative
        # tail, where an ulp of the tiny result says nothing about the kernel.
        diff = np.abs(ops.gelu(x) - _gelu_pow(x))
        assert np.all(diff <= 4 * np.spacing(np.abs(x)))

    def test_backward_within_4_ulp(self, x):
        # Both terms of the derivative are O(1), so the scale is max(|g'|, 1).
        expected = _gelu_backward_pow(np.ones_like(x), x)
        diff = np.abs(ops.gelu_backward(np.ones_like(x), x) - expected)
        assert np.all(diff <= 4 * np.spacing(np.maximum(np.abs(expected), 1.0)))

    @pytest.mark.parametrize("kernel", ["gelu", "gelu_backward"])
    def test_extreme_inputs_keep_their_value_class(self, kernel):
        # Table 2 propagation: INF / NaN / overflowing inputs must leave GELU
        # as the same class (inf / nan / finite, same sign) as before.
        x = np.array([np.inf, -np.inf, np.nan, 6e102, -6e102, 3e154, -3e154,
                      1e200, -1e200, 1.7e308, -1.7e308])
        with np.errstate(all="ignore"):
            if kernel == "gelu":
                new, old = ops.gelu(x), _gelu_pow(x)
            else:
                new, old = ops.gelu_backward(np.ones_like(x), x), _gelu_backward_pow(1.0, x)

        def value_class(v):
            return [("nan" if np.isnan(e) else "inf" if np.isinf(e) else "finite",
                     bool(np.signbit(e))) for e in v]

        assert value_class(new) == value_class(old)


class TestLayerNorm:
    def test_normalises_last_axis(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 8))
        out, _, _ = ops.layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_applied(self, rng):
        x = rng.normal(size=(2, 4))
        gamma = np.full(4, 2.0)
        beta = np.full(4, 1.0)
        out, x_hat, _ = ops.layer_norm(x, gamma, beta)
        assert np.allclose(out, 2.0 * x_hat + 1.0)

    def test_backward_matches_numerical(self, rng):
        x = rng.normal(size=(3, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        grad = rng.normal(size=(3, 6))
        out, x_hat, inv_std = ops.layer_norm(x, gamma, beta)
        dx, dgamma, dbeta = ops.layer_norm_backward(grad, x_hat, inv_std, gamma)
        eps = 1e-6
        idx = (1, 4)
        x_pert = x.copy()
        x_pert[idx] += eps
        out_pert, _, _ = ops.layer_norm(x_pert, gamma, beta)
        numerical = np.sum(grad * (out_pert - out)) / eps
        assert dx[idx] == pytest.approx(numerical, rel=1e-3, abs=1e-6)
        g_pert = gamma.copy()
        g_pert[2] += eps
        out_pert, _, _ = ops.layer_norm(x, g_pert, beta)
        numerical = np.sum(grad * (out_pert - out)) / eps
        assert dgamma[2] == pytest.approx(numerical, rel=1e-3, abs=1e-6)
        assert np.allclose(dbeta, grad.sum(axis=0))


class TestDropoutMask:
    def test_p_zero_all_ones(self, rng):
        assert np.all(ops.dropout_mask((10, 10), 0.0, rng) == 1.0)

    def test_scaling_preserves_expectation(self, rng):
        mask = ops.dropout_mask((200, 200), 0.3, rng)
        assert mask.mean() == pytest.approx(1.0, rel=0.05)

    def test_values_are_zero_or_scaled(self, rng):
        mask = ops.dropout_mask((50, 50), 0.5, rng)
        assert set(np.unique(mask)).issubset({0.0, 2.0})

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            ops.dropout_mask((2, 2), 1.0, rng)
        with pytest.raises(ValueError):
            ops.dropout_mask((2, 2), -0.1, rng)


class TestLossHelpers:
    def test_one_hot(self):
        out = ops.one_hot(np.array([0, 2]), 3)
        assert np.array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ops.one_hot(np.array([3]), 3)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        assert ops.cross_entropy(logits, labels) == pytest.approx(np.log(3))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        labels = np.array([0, 1])
        assert ops.cross_entropy(logits, labels) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_nan_propagates(self):
        logits = np.array([[np.nan, 0.0]])
        assert np.isnan(ops.cross_entropy(logits, np.array([0])))

    def test_cross_entropy_backward_numerical(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        grad = ops.cross_entropy_backward(logits, labels)
        eps = 1e-6
        idx = (2, 1)
        pert = logits.copy()
        pert[idx] += eps
        numerical = (ops.cross_entropy(pert, labels) - ops.cross_entropy(logits, labels)) / eps
        assert grad[idx] == pytest.approx(numerical, rel=1e-4, abs=1e-8)
