"""Edge cases and additional properties of the nn substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Embedding,
    GRU,
    Linear,
    Parameter,
    Tensor,
    concatenate,
    no_grad,
    stack,
    where,
)
from repro.nn import functional as F


class TestTensorConstruction:
    def test_from_tensor_shares_data(self):
        t1 = Tensor([1.0, 2.0])
        t2 = Tensor(t1)
        assert t2.data is t1.data

    def test_int_data_kept_integral(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_float64_input_rounds_to_float32(self):
        t = Tensor(np.array([1.0], dtype=np.float64))
        assert t.dtype == np.float32

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert len(t) == 3
        assert t.size == 12

    def test_item_rejects_non_scalar(self):
        with pytest.raises(Exception):
            Tensor([1.0, 2.0]).item()


class TestComparisons:
    def test_comparisons_return_numpy_bool(self):
        t = Tensor([1.0, 3.0])
        assert ((t > 2.0) == np.array([False, True])).all()
        assert ((t < 2.0) == np.array([True, False])).all()
        assert ((t >= 1.0) == np.array([True, True])).all()
        assert ((t <= 1.0) == np.array([True, False])).all()

    def test_comparison_with_tensor(self):
        a, b = Tensor([1.0, 5.0]), Tensor([2.0, 2.0])
        assert ((a > b) == np.array([False, True])).all()


class TestNumericalStability:
    def test_sigmoid_extreme_values_no_warnings(self):
        t = Tensor([-1000.0, 0.0, 1000.0])
        out = t.sigmoid().data
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_extreme_logits(self):
        x = Tensor(np.array([[1e9, 0.0, -1e9]]))
        probs = F.softmax(x).data
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_no_overflow(self):
        x = Tensor(np.array([[500.0, -500.0]]))
        out = F.log_softmax(x).data
        assert np.isfinite(out).all()

    def test_l2_distance_identical_points_gradient_finite(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)))
        F.l2_distance(a, b).sum().backward()
        assert np.isfinite(a.grad).all()


class TestGradEnabledState:
    def test_nested_no_grad(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            out = t * 2  # still inside the outer block
        assert out._backward is None

    def test_grad_restored_after_exception(self):
        t = Tensor([1.0], requires_grad=True)
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        out = t * 2
        assert out.requires_grad


class TestOpEdgeCases:
    def test_concatenate_single_tensor(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = concatenate([t], axis=0)  # repro: noqa[R009] the edge case under test
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 2)))

    def test_stack_many(self):
        tensors = [Tensor(np.full(3, float(i))) for i in range(5)]
        out = stack(tensors)
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data[4], [4.0, 4.0, 4.0])

    def test_where_broadcast_condition(self):
        cond = np.array([[True], [False]])
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        out = where(np.broadcast_to(cond, (2, 3)), a, b)
        np.testing.assert_allclose(out.data[0], np.ones(3))
        np.testing.assert_allclose(out.data[1], np.zeros(3))

    def test_reshape_with_tuple(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape((2, 3)).shape == (2, 3)
        assert t.reshape(2, 3).shape == (2, 3)

    def test_gru_single_timestep(self, rng):
        gru = GRU(3, 4, rng)
        out = gru(Tensor(np.ones((2, 1, 3))))
        assert out.shape == (2, 1, 4)


class TestOptimizerNumericalPaths:
    def test_adam_with_sparse_embedding_grads(self, rng):
        emb = Embedding(10, 4, rng)
        optimizer = Adam(emb.parameters(), lr=0.1)
        before = emb.weight.data.copy()
        out = emb(np.array([3]))
        (out * out).sum().backward()
        optimizer.step()
        # only row 3 moves
        changed = np.abs(emb.weight.data - before).sum(axis=1) > 0
        assert changed[3]
        assert not changed[[0, 1, 2, 4, 5, 6, 7, 8, 9]].any()

    def test_linear_converges_on_regression(self, rng):
        layer = Linear(3, 1, rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        true_w = np.array([[1.0], [-2.0], [0.5]])
        x = rng.normal(size=(64, 3))
        y = Tensor(x @ true_w)
        for _ in range(300):
            loss = F.mse_loss(layer(Tensor(x)), y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_matmul_shape_property(n, k, m):
    a = Tensor(np.ones((n, k)), requires_grad=True)
    b = Tensor(np.ones((k, m)), requires_grad=True)
    out = a @ b
    assert out.shape == (n, m)
    out.sum().backward()
    assert a.grad.shape == (n, k)
    assert b.grad.shape == (k, m)
    np.testing.assert_allclose(a.grad, np.full((n, k), float(m)))


@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)))
@settings(max_examples=30, deadline=None)
def test_take_gradient_sums_to_output_count(shape):
    generator = np.random.default_rng(0)
    t = Tensor(generator.normal(size=shape), requires_grad=True)
    indices = generator.integers(shape[0], size=6)
    t.take(indices, axis=0).sum().backward()
    assert t.grad.sum() == pytest.approx(6 * shape[1])
