"""Unit tests for the reverse-mode autograd engine."""

import gc
import weakref

import numpy as np
import pytest

from repro.tensor import autograd as ag
from repro.tensor.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def numerical_grad(fn, tensor, index, eps=1e-6):
    """Central-difference numerical gradient of a scalar-valued fn."""
    original = tensor.data[index]
    tensor.data[index] = original + eps
    plus = fn()
    tensor.data[index] = original - eps
    minus = fn()
    tensor.data[index] = original
    return (plus - minus) / (2 * eps)


class TestTensorBasics:
    def test_wraps_and_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert np.issubdtype(t.dtype, np.floating)

    def test_shape_and_size(self, rng):
        t = Tensor(rng.normal(size=(2, 3)))
        assert t.shape == (2, 3) and t.size == 6 and t.ndim == 2

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad

    def test_backward_shape_mismatch_raises(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        with pytest.raises(ValueError):
            b.backward(np.ones((4,)))

    def test_gradient_accumulates(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        assert np.allclose(a.grad, 2.0)

    def test_zero_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 1.0).sum().backward()
        a.zero_grad()
        assert a.grad is None


class TestNoGrad:
    def test_no_grad_disables_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with ag.no_grad():
            b = a * 2.0
        assert not b.requires_grad
        assert ag.is_grad_enabled()

    def test_nested_restores_state(self):
        with ag.no_grad():
            with ag.no_grad():
                assert not ag.is_grad_enabled()
            assert not ag.is_grad_enabled()
        assert ag.is_grad_enabled()


class TestArithmeticGradients:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_ops_numerical(self, rng, op):
        a = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        func = getattr(ag, op)

        def loss_fn():
            return float(func(a, b).data.sum())

        out = func(a, b)
        out.backward(np.ones_like(out.data))
        idx = (1, 2)
        assert a.grad[idx] == pytest.approx(numerical_grad(loss_fn, a, idx), rel=1e-4, abs=1e-6)
        assert b.grad[idx] == pytest.approx(numerical_grad(loss_fn, b, idx), rel=1e-4, abs=1e-6)

    def test_broadcast_bias_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        out = ag.add(x, bias)
        out.backward(np.ones_like(out.data))
        assert bias.grad.shape == (5,)
        assert np.allclose(bias.grad, 4.0)

    def test_neg_and_rsub(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (1.0 - a) + (-a)
        out.sum().backward()
        assert np.allclose(a.grad, -2.0)

    def test_operator_overloads_match_functions(self, rng):
        a = Tensor(rng.normal(size=(2, 2)))
        b = Tensor(rng.normal(size=(2, 2)))
        assert np.allclose((a + b).data, ag.add(a, b).data)
        assert np.allclose((a * b).data, ag.mul(a, b).data)
        assert np.allclose((a - b).data, ag.sub(a, b).data)
        assert np.allclose((a / (b + 10.0)).data, ag.div(a, ag.add(b, 10.0)).data)
        assert np.allclose((a @ b).data, ag.matmul(a, b).data)


class TestMatmul:
    def test_batched_gradients_numerical(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss_fn():
            return float((ag.matmul(a, b).data ** 2).sum())

        out = ag.matmul(a, b)
        (out * out).sum().backward()
        for tensor, idx in [(a, (1, 2, 3)), (b, (2, 4))]:
            assert tensor.grad[idx] == pytest.approx(numerical_grad(loss_fn, tensor, idx), rel=1e-4, abs=1e-6)

    def test_forward_hook_modifies_output_only(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        captured = {}

        def hook(out):
            captured["raw"] = out.copy()
            out[0, 0] = 99.0
            return out

        out = ag.matmul(a, b, forward_hook=hook)
        assert out.data[0, 0] == 99.0
        # Backward gradients are computed from the inputs, unaffected by the hook.
        out.sum().backward()
        expected_grad_a = np.ones((3, 2)) @ b.data.T
        assert np.allclose(a.grad, expected_grad_a)

    def test_name_is_recorded(self, rng):
        out = ag.matmul(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))), name="AS")
        assert out.name == "AS"


class TestSoftmaxAndActivations:
    @pytest.mark.parametrize("fn", [ag.softmax, ag.log_softmax, ag.gelu, ag.relu, ag.tanh])
    def test_gradients_numerical(self, rng, fn):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = rng.normal(size=(3, 5))

        def loss_fn():
            return float((fn(Tensor(x.data)).data * weights).sum())

        out = fn(x)
        out.backward(weights)
        idx = (2, 3)
        assert x.grad[idx] == pytest.approx(numerical_grad(loss_fn, x, idx), rel=2e-3, abs=1e-6)


class TestLayerNormDropoutEmbedding:
    def test_layer_norm_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        gamma = Tensor(np.ones(6), requires_grad=True)
        beta = Tensor(np.zeros(6), requires_grad=True)
        weights = rng.normal(size=(2, 6))

        def loss_fn():
            return float((ag.layer_norm(Tensor(x.data), Tensor(gamma.data), Tensor(beta.data)).data * weights).sum())

        ag.layer_norm(x, gamma, beta).backward(weights)
        idx = (1, 3)
        assert x.grad[idx] == pytest.approx(numerical_grad(loss_fn, x, idx), rel=2e-3, abs=1e-6)
        assert gamma.grad[2] == pytest.approx(numerical_grad(loss_fn, gamma, (2,)), rel=2e-3, abs=1e-6)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = ag.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_train_masks_and_scales(self, rng):
        x = Tensor(np.ones((100, 100)), requires_grad=True)
        out = ag.dropout(x, 0.5, rng, training=True)
        unique = set(np.unique(out.data))
        assert unique.issubset({0.0, 2.0})
        out.sum().backward()
        assert set(np.unique(x.grad)).issubset({0.0, 2.0})

    def test_embedding_gradient_scatters(self, rng):
        weight = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        indices = np.array([[1, 1, 3]])
        out = ag.embedding(weight, indices)
        out.sum().backward()
        assert np.allclose(weight.grad[1], 2.0)
        assert np.allclose(weight.grad[3], 1.0)
        assert np.allclose(weight.grad[0], 0.0)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        out = ag.reshape(x, (3, 4))
        out.backward(np.ones((3, 4)))
        assert x.grad.shape == (2, 6)
        assert np.allclose(x.grad, 1.0)

    def test_transpose_gradient_permutes_back(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = ag.transpose(x, (2, 0, 1))
        grad = rng.normal(size=(4, 2, 3))
        out.backward(grad)
        assert np.allclose(x.grad, np.transpose(grad, (1, 2, 0)))

    def test_concat_gradient_splits(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        out = ag.concat([a, b], axis=1)
        out.backward(np.ones((2, 8)))
        assert a.grad.shape == (2, 3) and b.grad.shape == (2, 5)

    def test_split_merge_heads_roundtrip(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        out = ag.merge_heads(ag.split_heads(x, 4))
        assert np.allclose(out.data, x.data)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_split_heads_invalid_divisor_raises(self, rng):
        with pytest.raises(ValueError):
            ag.split_heads(Tensor(rng.normal(size=(1, 2, 7))), 4)


class TestReductionsAndLoss:
    def test_sum_axis_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = ag.sum(x, axis=0)
        out.backward(np.arange(4.0))
        assert np.allclose(x.grad, np.tile(np.arange(4.0), (3, 1)))

    def test_mean_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        ag.mean(x).backward()
        assert np.allclose(x.grad, 0.1)

    def test_cross_entropy_gradient_numerical(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 1])

        def loss_fn():
            return float(ag.cross_entropy_loss(Tensor(logits.data), labels).data)

        ag.cross_entropy_loss(logits, labels).backward()
        idx = (2, 2)
        assert logits.grad[idx] == pytest.approx(numerical_grad(loss_fn, logits, idx), rel=1e-4, abs=1e-7)

    def test_loss_decreases_under_gradient_descent(self, rng):
        logits = Tensor(rng.normal(size=(8, 2)), requires_grad=True)
        labels = rng.integers(0, 2, size=8)
        losses = []
        for _ in range(20):
            logits.zero_grad()
            loss = ag.cross_entropy_loss(logits, labels)
            losses.append(float(loss.data))
            loss.backward()
            logits.data = logits.data - 1.0 * logits.grad
        assert losses[-1] < losses[0]

    def test_diamond_graph_accumulates_through_shared_node(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        shared = x * 2.0
        out = (shared * 3.0 + shared * 4.0).sum()
        out.backward()
        assert np.allclose(x.grad, 2.0 * (3.0 + 4.0))


class TestPostAccumulateGradHooks:
    def test_hook_fires_once_per_backward_with_final_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        seen = []
        a.register_post_accumulate_grad_hook(
            lambda t: seen.append(np.array(t.grad))
        )
        # Diamond graph: the leaf accumulates from two paths but the hook
        # must observe only the fully-accumulated gradient, exactly once.
        shared = a * 2.0
        (shared * 3.0 + shared * 4.0).sum().backward()
        assert len(seen) == 1
        assert np.allclose(seen[0], 14.0)

    def test_hook_fires_each_backward_call(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        count = [0]
        a.register_post_accumulate_grad_hook(lambda t: count.__setitem__(0, count[0] + 1))
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        assert count[0] == 2

    def test_non_leaf_registration_rejected(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        with pytest.raises(ValueError, match="leaf"):
            b.register_post_accumulate_grad_hook(lambda t: None)

    def test_handle_remove_is_idempotent(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        fired = []
        handle = a.register_post_accumulate_grad_hook(lambda t: fired.append(1))
        handle.remove()
        handle.remove()
        (a * 1.0).sum().backward()
        assert fired == []

    def test_hooks_fire_before_backward_returns(self, rng):
        # The overlap machinery relies on hooks running inside backward so a
        # reduction can launch while later-layer grads are still propagating.
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        order = []
        a.register_post_accumulate_grad_hook(lambda t: order.append("a"))
        b.register_post_accumulate_grad_hook(lambda t: order.append("b"))
        (a * 2.0 + b * 3.0).sum().backward()
        assert sorted(order) == ["a", "b"]
        assert a.grad is not None and b.grad is not None


def _recursive_topological_order(root):
    """The textbook recursive post-order sort, kept as the order oracle."""
    topo, visited = [], set()

    def build(node):
        if id(node) in visited:
            return
        visited.add(id(node))
        for parent in node._parents:
            build(parent)
        topo.append(node)

    build(root)
    return topo


def _bert_tiny_trainer():
    from repro.data import SyntheticMRPC
    from repro.models import build_model
    from repro.training import Trainer

    model = build_model("bert-base", size="tiny", rng=np.random.default_rng(0))
    data = SyntheticMRPC(num_examples=8, max_seq_len=model.config.max_seq_len,
                         vocab_size=model.config.vocab_size)
    return Trainer(model), dict(data.encode(range(4)))


class TestGraphWalk:
    def test_graph_freed_when_backward_returns(self, rng):
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = ag.gelu(ag.matmul(x, w))
            activation = weakref.ref(hidden.data)
            loss = ag.sum(hidden * hidden)
            del hidden
            loss.backward()
            del loss
            # Reference counting alone must release the graph: no cycle may
            # keep the activations of a finished backward alive.
            assert activation() is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_train_step_leaves_no_cyclic_garbage(self):
        trainer, batch = _bert_tiny_trainer()
        trainer.train_step(batch)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            trainer.train_step(batch)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_deep_chain_backward(self):
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(2, 1.0001 ** 5000), rtol=1e-11)

    def test_order_matches_recursive_sort_on_bert(self):
        trainer, batch = _bert_tiny_trainer()
        output = trainer.model(batch["input_ids"], attention_mask=batch["attention_mask"],
                               labels=batch["labels"])
        expected = _recursive_topological_order(output.loss)
        assert len(expected) > 100
        assert [id(n) for n in ag._topological_order(output.loss)] == [id(n) for n in expected]

    def test_train_step_gradients_byte_identical_to_recursive_order(self, monkeypatch):
        def step_grads():
            trainer, batch = _bert_tiny_trainer()
            trainer.train_step(batch)
            return [p.grad.tobytes() for p in trainer.model.parameters()]

        grads = step_grads()
        monkeypatch.setattr(ag, "_topological_order", _recursive_topological_order)
        assert step_grads() == grads
