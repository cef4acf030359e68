"""AbstractTensor: the repro.nn op surface executed over symbolic shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.shapes.abstract import (
    AbstractShapeError,
    AbstractTensor,
    SymbolicTrace,
    broadcast_sym,
    lift_tensor,
)
from repro.analysis.shapes.dims import Dim, DimExpr, ShapeEnv, as_expr
from repro.nn import get_default_dtype, hooks
from repro.nn.tensor import Tensor, concatenate, no_grad, stack, where
from repro.nn.tensor import concatenate as abstract_concatenate
from repro.nn.tensor import _unbroadcast


def env_with_batch():
    env = ShapeEnv()
    b = env.dim("B", 3, guard_broadcast=True)
    h = env.dim("H", 11)
    return env, b, h


class TestElementwise:
    def test_add_preserves_symbols_and_grad(self):
        _, b, h = env_with_batch()
        x = AbstractTensor((b, h), requires_grad=True)
        y = AbstractTensor((b, h))
        out = x + y
        assert out.shape == (b, h)
        assert out.requires_grad
        assert out.data.dtype == np.float32

    def test_broadcast_against_unit_axis(self):
        _, b, h = env_with_batch()
        x = AbstractTensor((b, h))
        bias = AbstractTensor((h,))
        assert (x * bias).shape == (b, h)

    def test_incompatible_axes_raise(self):
        _, b, h = env_with_batch()
        x = AbstractTensor((b, h))
        y = AbstractTensor((b, 7))
        with pytest.raises(AbstractShapeError):
            x + y

    def test_mixed_real_abstract_stays_abstract(self):
        env, b, h = env_with_batch()
        real = Tensor(np.zeros((3, 11)))
        x = AbstractTensor((b, h))
        out = real + x  # reflected operator routes to the subclass
        assert isinstance(out, AbstractTensor)
        assert out.shape == (b, h)

    def test_no_grad_blocks_propagation(self):
        _, b, h = env_with_batch()
        x = AbstractTensor((b, h), requires_grad=True)
        with no_grad():
            out = x * 2.0
        assert not out.requires_grad

    def test_zero_memory_witness(self):
        big = AbstractTensor((Dim("N", 100_000), Dim("D", 4096)))
        # Zero-stride broadcast view: no real allocation happened.
        assert big.data.strides == (0, 0)

    def test_detach(self):
        x = AbstractTensor((Dim("B", 3),), requires_grad=True)
        d = x.detach()
        assert isinstance(d, AbstractTensor)
        assert not d.requires_grad
        assert d.shape == x.shape


class TestMatmul:
    def test_matrix_matrix(self):
        _, b, h = env_with_batch()
        k = Dim("K", 7)
        out = AbstractTensor((b, h)) @ AbstractTensor((h, k))
        assert out.shape == (b, k)

    def test_batched_with_broadcast(self):
        b, t = Dim("B", 3), Dim("T", 5)
        out = AbstractTensor((b, 1, t, 8)) @ AbstractTensor((4, 8, t))
        assert out.shape == (b, 4, t, t)

    def test_vector_cases(self):
        h = Dim("H", 11)
        m = AbstractTensor((Dim("B", 3), h))
        v = AbstractTensor((h,))
        assert (m @ v).shape == (Dim("B", 3),)
        assert (v @ m.transpose()).shape == (Dim("B", 3),)
        assert np.ndim((v @ v).data) == 0

    def test_inner_dim_mismatch_names_both_sides(self):
        with pytest.raises(AbstractShapeError) as excinfo:
            AbstractTensor((Dim("B", 3), Dim("H_a", 11))) @ \
                AbstractTensor((Dim("H_r", 13), 4))
        assert "H_a" in str(excinfo.value)
        assert "H_r" in str(excinfo.value)


class TestShapeOps:
    def test_reshape_with_hole(self):
        x = AbstractTensor((Dim("B", 3), 4, 5))
        assert x.reshape(3, -1).shape == (3, 20)

    def test_reshape_conservation_violation(self):
        x = AbstractTensor((Dim("B", 3), 4))
        with pytest.raises(AbstractShapeError):
            x.reshape(5, 3)

    def test_transpose_and_swapaxes(self):
        b, t, h = Dim("B", 3), Dim("T", 5), Dim("H", 11)
        x = AbstractTensor((b, t, h))
        assert x.transpose().shape == (h, t, b)
        assert x.transpose(0, 2, 1).shape == (b, h, t)
        assert x.swapaxes(1, 2).shape == (b, h, t)

    def test_getitem_slices_and_drops(self):
        b, t, h = Dim("B", 3), Dim("T", 5), Dim("H", 11)
        x = AbstractTensor((b, t, h))
        assert x[0].shape == (t, h)
        assert x[:, 0, :].shape == (b, h)
        assert x[:, 1:3].shape == (b, 2, h)
        assert x[..., 0].shape == (b, t)

    def test_reductions_with_keepdims(self):
        b, h = Dim("B", 3), Dim("H", 11)
        x = AbstractTensor((b, h))
        assert x.sum().shape == ()
        assert x.mean(axis=0).shape == (h,)
        assert x.mean(axis=0, keepdims=True).shape == (1, h)
        assert x.max(axis=-1, keepdims=True).shape == (b, 1)


class TestFreeFunctions:
    def test_concatenate_builds_affine_axis(self):
        b = Dim("B", 3)
        h_a, h_r = Dim("H_a", 11), Dim("H_r", 13)
        out = concatenate(
            [AbstractTensor((b, h_a)), AbstractTensor((b, h_r))], axis=1
        )
        assert isinstance(out, AbstractTensor)
        assert out.shape[0] == b
        assert isinstance(out.shape[1], DimExpr)
        assert out.shape[1] == as_expr(h_a) + as_expr(h_r)
        assert repr(out.shape[1]) == "H_a + H_r"
        assert int(out.shape[1]) == 24

    def test_concatenate_rejects_mismatched_non_axis(self):
        with pytest.raises(AbstractShapeError):
            abstract_concatenate(
                [AbstractTensor((3, 4)), AbstractTensor((5, 4))], axis=1
            )

    def test_stack_inserts_axis(self):
        b, h = Dim("B", 3), Dim("H", 11)
        out = stack([AbstractTensor((b, h)), AbstractTensor((b, h))], axis=0)
        assert isinstance(out, AbstractTensor)
        assert out.shape == (2, b, h)

    def test_where_broadcasts_all_three(self):
        b, h = Dim("B", 3), Dim("H", 11)
        cond = AbstractTensor((b, 1), dtype=bool)
        out = where(cond, AbstractTensor((b, h)), AbstractTensor((h,)))
        assert isinstance(out, AbstractTensor)
        assert out.shape == (b, h)


class TestTraceEvents:
    def test_guarded_stretch_is_recorded(self):
        env, b, h = env_with_batch()
        x = AbstractTensor((b, h))
        with SymbolicTrace(env) as trace:
            # The classic lost-keepdims bug: (1, H) stretched back to B.
            x + x.mean(axis=0, keepdims=True)
        kinds = [e.kind for e in trace.events]
        assert kinds == ["stretch"]
        assert "size-1 axis silently broadcast to B" in trace.events[0].message

    def test_unguarded_stretch_is_silent(self):
        env = ShapeEnv()
        t = env.dim("T", 5)  # not guarded
        x = AbstractTensor((t, 4))
        with SymbolicTrace(env) as trace:
            x + AbstractTensor((1, 4))
        assert trace.events == []

    def test_dtype_deviation_is_recorded(self):
        with SymbolicTrace(ShapeEnv()) as trace:
            AbstractTensor((3,), dtype=np.float64) * 2.0
        assert [e.kind for e in trace.events] == ["dtype"]
        assert "float64" in trace.events[0].message

    @pytest.mark.parametrize("constant", [
        2, 3.0, np.float64(0.5), np.sqrt(8), np.int64(2), np.ones(3),
        np.arange(3), np.ones(3, dtype=np.float32), True,
    ])
    def test_constants_lift_as_eager_does(self, constant):
        """S003 fires exactly when the eager forward's raw output leaves
        the engine dtype, whatever the non-tensor operand."""
        raw = []

        class RawOutput(hooks.Observer):
            def op_created(self, out, call):
                raw.append(np.asarray(call.out).dtype)

        handle = hooks.register_observer(RawOutput())
        try:
            Tensor(np.ones(3)) * constant
        finally:
            handle.remove()
        raw, = raw
        with SymbolicTrace(ShapeEnv()) as trace:
            abstract = AbstractTensor((3,)) * constant
        assert abstract.data.dtype == raw
        assert bool(trace.events) == (raw != get_default_dtype())

    def test_events_are_deduplicated(self):
        env, b, h = env_with_batch()
        x = AbstractTensor((b, h))
        with SymbolicTrace(env) as trace:
            for _ in range(5):  # loops re-emit; one record is enough
                x + x.mean(axis=0, keepdims=True)
        assert len(trace.events) == 1


class TestLifting:
    def test_lift_resymbolizes_known_sizes(self):
        env, b, h = env_with_batch()
        t = Tensor(np.zeros((3, 11)), requires_grad=True)
        a = lift_tensor(t, env)
        assert a.shape == (b, h)
        assert a.requires_grad

    def test_unknown_sizes_stay_concrete(self):
        env, _, _ = env_with_batch()
        a = lift_tensor(Tensor(np.zeros((7, 2))), env)
        assert a.shape == (7, 2)


# ---------------------------------------------------------------------- #
# Property tests: the abstract rules agree with real numpy / real Tensor
# ---------------------------------------------------------------------- #
shape_strategy = st.lists(st.sampled_from([1, 2, 3, 5]), min_size=0,
                          max_size=4).map(tuple)


@settings(max_examples=80, deadline=None)
@given(a=shape_strategy, b=shape_strategy)
def test_broadcast_agrees_with_numpy(a, b):
    try:
        expected = np.broadcast_shapes(a, b)
    except ValueError:
        with pytest.raises(AbstractShapeError):
            broadcast_sym(a, b, "add")
        return
    sym = broadcast_sym(a, b, "add")
    assert tuple(int(e) for e in sym) == expected


@settings(max_examples=80, deadline=None)
@given(a=shape_strategy, b=shape_strategy)
def test_abstract_add_agrees_with_real_tensor(a, b):
    try:
        real = Tensor(np.zeros(a)) + Tensor(np.zeros(b))
    except ValueError:
        with pytest.raises(AbstractShapeError):
            AbstractTensor(a) + AbstractTensor(b)
        return
    out = AbstractTensor(a) + AbstractTensor(b)
    assert tuple(int(e) for e in out.shape) == real.shape
    assert out.data.dtype == real.data.dtype


@settings(max_examples=80, deadline=None)
@given(a=shape_strategy, b=shape_strategy)
def test_unbroadcast_restores_operand_shapes(a, b):
    # The gradient half of broadcasting: whatever shape the abstract
    # interpreter predicts for a + b, _unbroadcast must be able to fold a
    # cotangent of that shape back onto each operand exactly.
    try:
        out_shape = np.broadcast_shapes(a, b)
    except ValueError:
        return
    sym = broadcast_sym(a, b, "add")
    assert tuple(int(e) for e in sym) == out_shape
    grad = np.ones(out_shape)
    assert _unbroadcast(grad, a).shape == a
    assert _unbroadcast(grad, b).shape == b


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(shape_strategy.filter(lambda s: len(s) >= 1),
                       min_size=1, max_size=3),
       axis=st.integers(min_value=0, max_value=3))
def test_concatenate_agrees_with_numpy(shapes, axis):
    rank = len(shapes[0])
    arrays = [np.zeros(s) for s in shapes]
    try:
        expected = np.concatenate(arrays, axis=axis).shape
    except (ValueError, IndexError, np.exceptions.AxisError):
        if all(len(s) == rank for s in shapes) and axis < rank:
            with pytest.raises(AbstractShapeError):
                abstract_concatenate(
                    [AbstractTensor(s) for s in shapes], axis=axis)
        return
    out = abstract_concatenate([AbstractTensor(s) for s in shapes], axis=axis)
    assert tuple(int(e) for e in out.shape) == expected
