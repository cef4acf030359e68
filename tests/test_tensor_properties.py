"""Property-based autograd tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.tensor import _unbroadcast

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


def small_arrays(max_side=4):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1,
                               max_side=max_side),
        elements=finite_floats,
    )


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_add_gradient_is_ones(array):
    t = Tensor(array.copy(), requires_grad=True)
    (t + 1.0).sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(array))


@pytest.mark.usefixtures("float64")
@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_mul_gradient_is_other_operand(array):
    t = Tensor(array.copy(), requires_grad=True)
    other = np.full_like(array, 3.0)
    (t * other).sum().backward()
    np.testing.assert_allclose(t.grad, other)

    t2 = Tensor(array.copy(), requires_grad=True)
    (t2 * t2).sum().backward()
    np.testing.assert_allclose(t2.grad, 2 * array, rtol=1e-10, atol=1e-12)


@given(small_arrays())
@settings(max_examples=50, deadline=None)
def test_sum_then_backward_shape_matches(array):
    t = Tensor(array.copy(), requires_grad=True)
    t.sum().backward()
    assert t.grad.shape == array.shape


@pytest.mark.usefixtures("float64")
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=6),
                  elements=finite_floats))
@settings(max_examples=50, deadline=None)
def test_softmax_is_probability_distribution(array):
    probs = F.softmax(Tensor(array), axis=-1).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1),
                               np.ones(array.shape[0]), rtol=1e-9)


@pytest.mark.usefixtures("float64")
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=6),
                  elements=finite_floats))
@settings(max_examples=50, deadline=None)
def test_softmax_shift_invariance(array):
    a = F.softmax(Tensor(array), axis=-1).data
    b = F.softmax(Tensor(array + 100.0), axis=-1).data
    np.testing.assert_allclose(a, b, atol=1e-9)


@pytest.mark.usefixtures("float64")
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                  elements=st.floats(min_value=-5, max_value=5,
                                     allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_l2_normalize_rows_at_most_unit(array):
    normed = F.l2_normalize(Tensor(array)).data
    norms = np.linalg.norm(normed, axis=-1)
    assert (norms <= 1.0 + 1e-9).all()


@given(st.lists(finite_floats, min_size=1, max_size=8),
       st.lists(finite_floats, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_margin_loss_nonnegative(pos, neg):
    n = min(len(pos), len(neg))
    loss = F.margin_ranking_loss(
        Tensor(np.abs(pos[:n])), Tensor(np.abs(neg[:n])), 1.0
    )
    assert loss.item() >= 0.0


@given(small_arrays(3), small_arrays(3))
@settings(max_examples=30, deadline=None)
def test_add_commutes(a, b):
    shape = np.broadcast_shapes(a.shape, b.shape) if a.shape == b.shape else None
    if a.shape != b.shape:
        return  # only test same-shape commutation
    left = (Tensor(a) + Tensor(b)).data
    right = (Tensor(b) + Tensor(a)).data
    np.testing.assert_array_equal(left, right)


broadcast_shapes = st.lists(st.sampled_from([1, 2, 3, 5]), min_size=0,
                            max_size=4).map(tuple)


@settings(max_examples=80, deadline=None)
@given(a=broadcast_shapes, b=broadcast_shapes)
def test_unbroadcast_restores_operand_shapes(a, b):
    # The gradient half of broadcasting: whatever shape numpy gives
    # a + b, _unbroadcast must fold a cotangent of that shape back onto
    # each operand exactly.
    try:
        out_shape = np.broadcast_shapes(a, b)
    except ValueError:
        return
    grad = np.ones(out_shape)
    assert _unbroadcast(grad, a).shape == a
    assert _unbroadcast(grad, b).shape == b
