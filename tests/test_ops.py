"""The op registry (``repro.nn.ops``) checked against the public surface.

Every registered op is reached through its public entry point (a
``Tensor`` method, a free function or a fused kernel) on two concrete
shape sets, and the record it leaves on the output must agree with what
the engine did: its forward reproduces the output bit for bit from the
recorded attributes, its VJP returns one gradient per operand shaped
like it, and its FLOP formula gives a non-negative int.  Each VJP also
reads no operand value its record leaves undeclared.
"""

import numpy as np
import pytest

from repro.nn.kernels import (fused_cross_entropy, fused_gru_sequence,
                              fused_layer_norm, fused_log_softmax,
                              fused_softmax)
from repro.nn.ops import OPS
from repro.nn.tensor import Tensor, concatenate, stack, where

RNG = np.random.default_rng(7)


def _arr(*shape, positive=False):
    values = RNG.normal(size=shape)
    return np.abs(values) + 0.5 if positive else values


COND = RNG.random((3, 4)) > 0.5
MASK = np.array([[True, True, False], [True, False, False]])

#: op name -> two (public call, operand arrays) pairs.
CASES = {
    "add": [(lambda a, b: a + b, [_arr(3, 4), _arr(4)]),
            (lambda a, b: a + b, [_arr(2, 1, 3), _arr(5, 3)])],
    "sub": [(lambda a, b: a - b, [_arr(3, 4), _arr(3, 1)]),
            (lambda a: 1.5 - a, [_arr(2, 3)])],
    "mul": [(lambda a, b: a * b, [_arr(3, 4), _arr(4)]),
            (lambda a: a * 2.0, [_arr(2, 3, 4)])],
    "div": [(lambda a, b: a / b, [_arr(3, 4), _arr(4, positive=True)]),
            (lambda a: 2.0 / a, [_arr(2, 3, positive=True)])],
    "neg": [(lambda a: -a, [_arr(3, 4)]), (lambda a: -a, [_arr(2, 3, 4)])],
    "pow": [(lambda a: a ** 2, [_arr(3, 4)]),
            (lambda a: a ** 0.5, [_arr(2, 3, positive=True)])],
    "matmul": [(lambda a, b: a @ b, [_arr(3, 4), _arr(4, 5)]),
               (lambda a, b: a @ b, [_arr(2, 3, 4), _arr(4)])],
    "transpose": [(lambda a: a.transpose(), [_arr(3, 4)]),
                  (lambda a: a.transpose(0, 2, 1), [_arr(2, 3, 4)])],
    "swapaxes": [(lambda a: a.swapaxes(0, 1), [_arr(3, 4)]),
                 (lambda a: a.swapaxes(-1, 0), [_arr(2, 3, 4)])],
    "reshape": [(lambda a: a.reshape(2, 6), [_arr(3, 4)]),
                (lambda a: a.reshape((-1, 4)), [_arr(2, 3, 4)])],
    "sum": [(lambda a: a.sum(), [_arr(3, 4)]),
            (lambda a: a.sum(axis=1, keepdims=True), [_arr(2, 3, 4)])],
    "mean": [(lambda a: a.mean(axis=0), [_arr(3, 4)]),
             (lambda a: a.mean(axis=(0, 1)), [_arr(2, 3, 4)])],
    "max": [(lambda a: a.max(), [_arr(3, 4)]),
            (lambda a: a.max(axis=-1, keepdims=True), [_arr(2, 3, 4)])],
    "exp": [(lambda a: a.exp(), [_arr(3, 4)]),
            (lambda a: a.exp(), [_arr(2, 3, 4)])],
    "log": [(lambda a: a.log(), [_arr(3, 4, positive=True)]),
            (lambda a: a.log(), [_arr(2, 3, positive=True)])],
    "sqrt": [(lambda a: a.sqrt(), [_arr(3, 4, positive=True)]),
             (lambda a: a.sqrt(), [_arr(2, 3, positive=True)])],
    "tanh": [(lambda a: a.tanh(), [_arr(3, 4)]),
             (lambda a: a.tanh(), [_arr(2, 3, 4)])],
    "sigmoid": [(lambda a: a.sigmoid(), [_arr(3, 4)]),
                (lambda a: a.sigmoid(), [_arr(2, 3, 4)])],
    "relu": [(lambda a: a.relu(), [_arr(3, 4)]),
             (lambda a: a.relu(), [_arr(2, 3, 4)])],
    "abs": [(lambda a: a.abs(), [_arr(3, 4)]),
            (lambda a: a.abs(), [_arr(2, 3, 4)])],
    "clip_min": [(lambda a: a.clip_min(0.1), [_arr(3, 4)]),
                 (lambda a: a.clip_min(-0.5), [_arr(2, 3, 4)])],
    "getitem": [(lambda a: a[1:3], [_arr(4, 5)]),
                (lambda a: a[:, 0, ...], [_arr(2, 3, 4)])],
    "take": [(lambda a: a.take(np.array([[0, 1], [2, 2]])), [_arr(3, 4)]),
             (lambda a: a.take(np.array([1, 0, 1]), axis=1), [_arr(2, 3, 4)])],
    "concatenate": [
        (lambda a, b: concatenate([a, b]), [_arr(2, 4), _arr(3, 4)]),
        (lambda a, b, c: concatenate([a, b, c], axis=-1),
         [_arr(2, 1), _arr(2, 3), _arr(2, 2)])],
    "stack": [(lambda a, b: stack([a, b]), [_arr(3, 4), _arr(3, 4)]),
              (lambda a, b: stack([a, b], axis=1), [_arr(2, 3), _arr(2, 3)])],
    "where": [(lambda a, b: where(COND, a, b), [_arr(3, 4), _arr(3, 4)]),
              (lambda a, b: where(COND[:, :1], a, b), [_arr(3, 4), _arr(4)])],
    "fused_softmax": [(lambda a: fused_softmax(a), [_arr(3, 4)]),
                      (lambda a: fused_softmax(a, axis=0), [_arr(2, 3, 4)])],
    "fused_log_softmax": [
        (lambda a: fused_log_softmax(a), [_arr(3, 4)]),
        (lambda a: fused_log_softmax(a, axis=1), [_arr(2, 3, 4)])],
    "fused_cross_entropy": [
        (lambda a: fused_cross_entropy(a, np.array([0, 3, 1])), [_arr(3, 4)]),
        (lambda a: fused_cross_entropy(a, np.array([0, -1, 2, -1, 4]),
                                       ignore_index=-1), [_arr(5, 6)])],
    "fused_layer_norm": [
        (lambda x, g, b: fused_layer_norm(x, g, b),
         [_arr(3, 4), _arr(4), _arr(4)]),
        (lambda x, g, b: fused_layer_norm(x, g, b, eps=1e-3),
         [_arr(2, 3, 4), _arr(4), _arr(4)])],
    "fused_gru_sequence": [
        (lambda x, w, u, b: fused_gru_sequence(x, None, w, u, b),
         [_arr(2, 3, 4), _arr(4, 15), _arr(5, 15), _arr(15)]),
        (lambda x, w, u, b: fused_gru_sequence(x, MASK, w, u, b, reverse=True),
         [_arr(2, 3, 4), _arr(4, 15), _arr(5, 15), _arr(15)])],
}


def test_every_registered_op_has_cases():
    assert set(CASES) == set(OPS)
    assert all(len(cases) == 2 for cases in CASES.values())


@pytest.mark.parametrize("name,case", [
    (name, index) for name in sorted(CASES) for index in range(2)])
def test_record_agrees_with_engine(name, case):
    fn, arrays = CASES[name][case]
    out = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    call = out._backward
    op = call.op
    assert op is OPS[name]
    inputs = [t.data for t in call.inputs]

    result = op.forward(*inputs, **call.attrs)
    replayed, saved = result if op.saves else (result, None)
    replayed = np.asarray(replayed)
    assert replayed.shape == out.data.shape
    assert replayed.dtype == out.data.dtype
    assert replayed.tobytes() == out.data.tobytes()

    grads = op.vjp(np.ones_like(out.data), replayed, saved, *inputs,
                   **call.attrs)
    assert len(grads) == len(inputs)
    assert [np.shape(g) for g in grads] == [x.shape for x in inputs]

    flops = op.flops([x.shape for x in inputs], out.data.shape)
    assert isinstance(flops, int) and flops >= 0


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,case", [
    (name, index) for name in sorted(CASES) for index in range(2)])
def test_vjp_reads_only_what_it_declares(name, case):
    """``Op.reads`` is what G001's liveness planner keeps alive: a VJP
    handed NaN in place of every undeclared operand (and of its output,
    when undeclared) must return the same gradients bit for bit."""
    fn, arrays = CASES[name][case]
    out = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    call = out._backward
    op = call.op
    inputs = [t.data for t in call.inputs]
    grad = np.random.default_rng(11).normal(size=out.data.shape)

    want = op.vjp(grad.copy(), call.out, call.saved, *inputs, **call.attrs)
    blanked = [x if i in op.reads else np.full(x.shape, np.nan, x.dtype)
               for i, x in enumerate(inputs)]
    blanked_out = call.out if "out" in op.reads \
        else np.full(np.shape(call.out), np.nan, np.asarray(call.out).dtype)
    got = op.vjp(grad.copy(), blanked_out, call.saved, *blanked,
                 **call.attrs)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(want, got)):
        assert _same_bits(a, b), f"{name}: gradient {i} reads more than " \
            f"{op.reads}"


@pytest.mark.parametrize("index", [
    np.array([3, 0, 4, 1]),                 # unique rows: one buffered add
    np.array([[2, -1], [0, 1]]),            # unique after wrapping
    np.array([1, 4, 1, 0]),                 # a repeated row: add.at
    np.array([-1, 4]),                      # the same row twice
])
def test_gather_gradient_equals_add_at(index):
    """The gather VJPs' fast path gives ``np.add.at``'s bits."""
    rng = np.random.default_rng(3)
    grad = rng.normal(size=index.shape + (3,))
    grad.flat[::4] = -0.0                   # add.at turns -0.0 into 0.0
    a = rng.normal(size=(5, 3))
    want = np.zeros_like(a)
    np.add.at(want, index, grad)
    for got in (OPS["take"].vjp(grad, None, None, a, indices=index, axis=0),
                OPS["getitem"].vjp(grad, None, None, a, index=index)):
        assert got[0].tobytes() == want.tobytes()
    if index.ndim == 1:                     # the same scatter along axis 1
        got = OPS["take"].vjp(grad.T.copy(), None, None, a.T.copy(),
                              indices=index, axis=1)[0]
        assert got.T.tobytes() == want.tobytes()


def test_ndarray_matmul_is_rejected_on_both_surfaces():
    with pytest.raises(TypeError):
        np.ones((2, 3)) @ Tensor(np.ones((3, 4)))


@pytest.mark.parametrize("shape,index,axis", [
    ((3, 5), np.array([[0, 1], [2, 2]]), 1),        # a repeated column
    ((3, 5), np.array([[4, 1], [0, 3]]), -1),       # unique, negative axis
    ((2, 4, 3), np.array([[[1, 1]], [[0, 3]]]), 1),  # 3-d index, middle axis
    ((4, 2), np.array(2), 0),                       # 0-d index drops the axis
])
def test_take_gradient_along_any_axis_equals_add_at(shape, index, axis):
    """A ``take`` with an index of any rank, along any axis, scatters its
    gradient as ``np.add.at`` does with the index at that axis."""
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    out = a.take(index, axis=axis)
    grad = rng.normal(size=out.shape).astype(out.dtype)
    out.backward(grad)
    want = np.zeros_like(a.data)
    np.add.at(want, (slice(None),) * (axis % len(shape)) + (index,), grad)
    assert a.grad.tobytes() == want.tobytes()
