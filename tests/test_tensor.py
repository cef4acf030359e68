"""Autograd correctness: every op checked against numerical gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, ones, stack, where, zeros
from repro.nn import functional as F


def numerical_gradient(fn, array, eps=1e-6):
    """Central-difference gradient of scalar-valued fn w.r.t. array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(build, *shapes, seed=0, tol=1e-7):
    """Compare autograd gradients to numerical ones for a scalar loss."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    loss = build(*tensors)
    loss.backward()
    for tensor in tensors:
        expected = numerical_gradient(
            lambda: float(build(*tensors).data), tensor.data
        )
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, expected, atol=tol, rtol=1e-5)


class TestElementwiseOps:
    @pytest.mark.usefixtures("float64")
    def test_add_gradients(self):
        check_gradients(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    @pytest.mark.usefixtures("float64")
    def test_add_broadcast_gradients(self):
        check_gradients(lambda a, b: (a + b).sum(), (3, 4), (4,))

    @pytest.mark.usefixtures("float64")
    def test_sub_gradients(self):
        check_gradients(lambda a, b: (a - b).sum(), (2, 3), (2, 3))

    def test_rsub_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = 5.0 - t
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [-1.0, -1.0])

    @pytest.mark.usefixtures("float64")
    def test_mul_gradients(self):
        check_gradients(lambda a, b: (a * b).sum(), (3, 4), (3, 4))

    @pytest.mark.usefixtures("float64")
    def test_mul_broadcast_gradients(self):
        check_gradients(lambda a, b: (a * b).sum(), (2, 3, 4), (3, 4))

    def test_div_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3,)) + 5.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3,)) + 5.0, requires_grad=True)
        loss = (a / b).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data, atol=1e-9)
        np.testing.assert_allclose(b.grad, -a.data / b.data**2, atol=1e-9)

    @pytest.mark.usefixtures("float64")
    def test_neg_gradients(self):
        check_gradients(lambda a: (-a).sum(), (4,))

    def test_pow_gradients(self):
        rng = np.random.default_rng(2)
        a = Tensor(np.abs(rng.normal(size=(5,))) + 1.0, requires_grad=True)
        (a**3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data**2, rtol=1e-9)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    @pytest.mark.usefixtures("float64")
    def test_exp_log_sqrt_tanh_sigmoid_relu_abs(self):
        check_gradients(lambda a: a.exp().sum(), (3,))
        check_gradients(lambda a: (a * a + 1.0).log().sum(), (3,))
        check_gradients(lambda a: (a * a + 1.0).sqrt().sum(), (3,))
        check_gradients(lambda a: a.tanh().sum(), (3,))
        check_gradients(lambda a: a.sigmoid().sum(), (3,))
        check_gradients(lambda a: (a + 10.0).relu().sum(), (3,))
        check_gradients(lambda a: (a + 10.0).abs().sum(), (3,))

    def test_clip_min(self):
        t = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        out = t.clip_min(0.0)
        np.testing.assert_allclose(out.data, [0.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])


class TestMatmul:
    @pytest.mark.usefixtures("float64")
    def test_2d_gradients(self):
        check_gradients(lambda a, b: (a @ b).sum(), (3, 4), (4, 5))

    @pytest.mark.usefixtures("float64")
    def test_batched_gradients(self):
        check_gradients(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))

    @pytest.mark.usefixtures("float64")
    def test_broadcast_batched_gradients(self):
        check_gradients(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 5))

    @pytest.mark.usefixtures("float64")
    def test_matrix_vector_gradients(self):
        check_gradients(lambda a, b: (a @ b).sum(), (3, 4), (4,))

    def test_vector_vector(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = a @ b
        assert out.item() == pytest.approx(11.0)
        out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    @pytest.mark.usefixtures("float64")
    def test_values_match_numpy(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 2))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)


class TestShapeOps:
    @pytest.mark.usefixtures("float64")
    def test_reshape_gradients(self):
        check_gradients(lambda a: (a.reshape(6) * np.arange(6.0)).sum(), (2, 3))

    @pytest.mark.usefixtures("float64")
    def test_transpose_gradients(self):
        check_gradients(
            lambda a: (a.transpose(1, 0) @ np.ones(2)).sum(), (2, 3)
        )

    def test_transpose_default_reverses(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert t.transpose().shape == (4, 3, 2)

    def test_swapaxes(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = t.swapaxes(0, 2)
        assert out.shape == (4, 3, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3, 4)))

    def test_getitem_gradients_scatter(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        out = t[np.array([0, 0, 2])]
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_take_axis0(self):
        t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = t.take(np.array([2, 2, 0]), axis=0)
        assert out.shape == (3, 2)
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [[1, 1], [0, 0], [2, 2]])


class TestReductions:
    @pytest.mark.usefixtures("float64")
    def test_sum_axis_gradients(self):
        check_gradients(lambda a: (a.sum(axis=0) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)

    @pytest.mark.usefixtures("float64")
    def test_mean_gradients(self):
        check_gradients(lambda a: (a.mean(axis=1) ** 2).sum(), (3, 4))

    def test_mean_global(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(6, 1 / 6))

    def test_max_gradient_to_argmax(self):
        t = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_max_axis(self):
        t = Tensor([[1.0, 2.0], [4.0, 3.0]], requires_grad=True)
        out = t.max(axis=1)
        np.testing.assert_allclose(out.data, [2.0, 4.0])


class TestGraphMechanics:
    def test_grad_accumulates_over_multiple_uses(self):
        t = Tensor([2.0], requires_grad=True)
        loss = (t * t + t).sum()  # dL/dt = 2t + 1 = 5
        loss.backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_backward_twice_accumulates(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_backward_with_explicit_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(t.grad, [3.0, 30.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert out._backward is None
        assert not out.requires_grad

    def test_detach(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_diamond_graph(self):
        t = Tensor([3.0], requires_grad=True)
        a = t * 2
        b = t * 3
        (a * b).sum().backward()  # d/dt (6 t^2) = 12 t = 36
        np.testing.assert_allclose(t.grad, [36.0])


class TestFreeFunctions:
    def test_concatenate_gradients(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * np.arange(10.0).reshape(5, 2)).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])

    def test_concatenate_last_axis(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concatenate([a, b], axis=-1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)

    def test_stack_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        (out[0] * 2 + out[1] * 3).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_where_gradients(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])

    def test_zeros_ones(self):
        assert zeros((2, 3)).shape == (2, 3)
        assert ones((2,)).data.sum() == 2.0


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 7)) * 50)
        probs = F.softmax(x, axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(5))

    @pytest.mark.usefixtures("float64")
    def test_softmax_gradients(self):
        check_gradients(
            lambda a: (F.softmax(a, axis=-1) ** 2).sum(), (3, 4)
        )

    @pytest.mark.usefixtures("float64")
    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.array([[100.0, 0.0], [100.0, 0.0]]))
        loss = F.cross_entropy(logits, np.array([1, -100]), ignore_index=-100)
        # only the first row counts; it predicts class 0 but target is 1
        assert loss.item() == pytest.approx(100.0, rel=1e-3)

    def test_cross_entropy_all_ignored(self):
        logits = Tensor(np.zeros((2, 3)))
        loss = F.cross_entropy(logits, np.array([-100, -100]),
                               ignore_index=-100)
        assert loss.item() == 0.0

    @pytest.mark.usefixtures("float64")
    def test_cross_entropy_gradients(self):
        targets = np.array([0, 2, 1])
        check_gradients(
            lambda a: F.cross_entropy(a, targets), (3, 4)
        )

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 8)))
        normed = F.l2_normalize(x)
        np.testing.assert_allclose(
            np.linalg.norm(normed.data, axis=-1), np.ones(4), rtol=1e-9
        )

    def test_l2_distance_known_value(self):
        a = Tensor([[0.0, 0.0], [1.0, 1.0]])
        b = Tensor([[3.0, 4.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            F.l2_distance(a, b).data, [5.0, 0.0], atol=1e-5
        )

    def test_margin_ranking_loss_satisfied_is_zero(self):
        pos = Tensor([0.1, 0.2])
        neg = Tensor([5.0, 6.0])
        assert F.margin_ranking_loss(pos, neg, 1.0).item() == 0.0

    def test_margin_ranking_loss_violated(self):
        pos = Tensor([2.0])
        neg = Tensor([1.0])
        assert F.margin_ranking_loss(pos, neg, 1.0).item() == pytest.approx(2.0)

    def test_gelu_close_to_relu_for_large_values(self):
        x = Tensor([10.0, -10.0])
        out = F.gelu(x).data
        assert out[0] == pytest.approx(10.0, rel=1e-3)
        assert out[1] == pytest.approx(0.0, abs=1e-3)

    def test_dropout_eval_is_identity(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(8)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    @pytest.mark.usefixtures("float64")
    def test_cosine_similarity_identical_rows(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.cosine_similarity(x, x).data, np.ones(3), rtol=1e-9
        )

    def test_mse_loss(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 2.0])
        assert F.mse_loss(a, b).item() == pytest.approx(2.0)
