"""One floating dtype per run: the engine computes in float32.

``repro.nn.DEFAULT_DTYPE`` is float32.  Every tensor, gradient and
backward seed takes the dtype :func:`repro.nn.get_default_dtype`
returns, which only a :class:`repro.nn.default_dtype` window changes;
the tests' float64 reference precision is that window (the ``float64``
fixture in ``conftest.py``).  No op may compute in float64 and have the
``Tensor`` constructor round its output back, so the run-level tests
read each op's raw forward output (``OpCall.out``), not the stored one.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.experiments import run_experiment
from repro.nn import Tensor, default_dtype, get_default_dtype, hooks


class _DtypeWitness(hooks.Observer):
    """Records, per dtype, the ops whose raw output or routed gradient
    had that dtype."""

    def __init__(self):
        self.outs = {}
        self.grads = {}

    def op_created(self, out, call):
        dtype = np.asarray(call.out).dtype
        self.outs.setdefault(dtype, set()).add(call.op.name)

    def node_dispatched(self, node, grad, contributions):
        name = node._backward.op.name
        for array in (grad, *contributions):
            if array is not None:
                self.grads.setdefault(np.asarray(array).dtype,
                                      set()).add(name)

    def __enter__(self):
        self._handle = hooks.register_observer(self)
        return self

    def __exit__(self, *exc):
        self._handle.remove()


FLOAT32 = np.dtype(np.float32)


@pytest.mark.parametrize("method", ["sdea", "bert-int"])
def test_run_computes_in_float32_only(method, tiny_pair, tiny_split):
    """Every op of a whole ``run_experiment`` (fused kernels, MLM, Alg.
    2, relation training, encodes) returns float32 from its forward, and
    every gradient backward routes is float32."""
    with _DtypeWitness() as witness:
        result = run_experiment(method, tiny_pair, tiny_split)
    assert 0.0 <= result.hits_at_1 <= 1.0
    assert witness.outs and witness.grads
    assert set(witness.outs) == {FLOAT32}, witness.outs
    assert set(witness.grads) == {FLOAT32}, witness.grads


class TestLiftedConstants:
    @pytest.mark.parametrize("expr", [
        lambda x: x * 2, lambda x: x / 3, lambda x: 2 - x,
        lambda x: x + 1.5, lambda x: x * np.float64(0.5),
        lambda x: x ** 2,
    ], ids=["mul-int", "div-int", "rsub-int", "add-float", "mul-np-float64",
            "pow-int"])
    def test_constant_operand_does_not_upcast(self, expr):
        x = Tensor(np.ones(4), requires_grad=True)
        with _DtypeWitness() as witness:
            expr(x).sum().backward()
        assert set(witness.outs) == {FLOAT32}
        assert set(witness.grads) == {FLOAT32}
        assert x.grad.dtype == FLOAT32

    def test_python_scalars_take_engine_dtype(self):
        assert Tensor(2).dtype == FLOAT32
        assert Tensor(2.0).dtype == FLOAT32
        assert Tensor(True).dtype == np.bool_
        assert Tensor(np.int64(2)).dtype == np.int64
        assert Tensor([1, 2]).dtype.kind == "i"

    def test_integer_array_operand_is_visible_as_upcast(self):
        """An integer array still promotes: the witness sees float64."""
        with _DtypeWitness() as witness:
            Tensor(np.ones(3)) * np.arange(3)
        assert set(witness.outs) == {np.dtype(np.float64)}


class TestDefaultDtypeWindow:
    def test_engine_default_is_float32(self):
        assert np.dtype(nn.DEFAULT_DTYPE) == FLOAT32
        assert get_default_dtype() == FLOAT32

    def test_window_sets_tensors_gradients_and_seed(self):
        seeds = []

        class Seed(hooks.Observer):
            def backward_started(self, root, grad):
                seeds.append(grad.dtype)

        handle = hooks.register_observer(Seed())
        try:
            with default_dtype(np.float64):
                x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
                (x * 2).sum().backward()
                assert x.dtype == np.float64
                assert x.grad.dtype == np.float64
            y = Tensor(np.ones(3), requires_grad=True)
            (y * 2).sum().backward()
        finally:
            handle.remove()
        assert seeds == [np.float64, FLOAT32]
        assert y.dtype == FLOAT32 and y.grad.dtype == FLOAT32

    def test_window_nests_and_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_dtype(np.float64):
                with default_dtype(np.float16):
                    assert get_default_dtype() == np.float16
                assert get_default_dtype() == np.float64
                raise RuntimeError("boom")
        assert get_default_dtype() == FLOAT32

    def test_window_is_thread_local(self):
        seen = []
        with default_dtype(np.float64):
            worker = threading.Thread(
                target=lambda: seen.append(Tensor([1.0]).dtype))
            worker.start()
            worker.join()
            assert Tensor([1.0]).dtype == np.float64
        assert seen == [FLOAT32]
