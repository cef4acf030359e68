"""Fused-kernel layer: activation switch, bitwise parity, runner parity.

Two layers of guarantees:

* **bitwise parity** — outputs *and* gradients are bit-for-bit identical
  to the composed autograd graph (``np.array_equal``, no tolerance),
  kernel by kernel and for whole runs through
  :func:`repro.experiments.run_experiment`, which trains fused, against
  a direct fit, which runs the composed ops;
* **finite differences** — the hand-written backward agrees with a
  central difference of the forward, anchoring the kernels to the math
  rather than to the composed graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SDEA
from repro.experiments import run_experiment, run_suite, runner
from repro.experiments.methods import make_method
from repro.nn import functional as F
from repro.nn.kernels import kernel_active, use_kernels
from repro.nn.layers import LayerNorm
from repro.nn.attention import MultiHeadSelfAttention, TokenLayout
from repro.nn.rnn import GRU, BiGRU, GRUCell
from repro.nn.tensor import DEFAULT_DTYPE, Tensor


# --------------------------------------------------------------------- #
# Activation switch
# --------------------------------------------------------------------- #
class TestRegistry:
    """One switch for every kernel: on inside ``use_kernels()``."""

    def test_nothing_active_by_default(self):
        assert kernel_active() is False

    def test_activate_all(self, rng):
        """Inside ``use_kernels()`` every call site builds its kernel."""
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        calls = {
            "fused_softmax": lambda: F.softmax(x),
            "fused_log_softmax": lambda: F.log_softmax(x),
            "fused_cross_entropy":
                lambda: F.cross_entropy(x[0], np.array([0, 1, 2])),
            "fused_layer_norm": lambda: LayerNorm(4)(x),
            "fused_gru_sequence": lambda: GRU(4, 5, rng)(x),
        }
        with use_kernels():
            assert kernel_active() is True
            for kernel, call in calls.items():
                assert call()._backward.op.name == kernel
        assert kernel_active() is False

    def test_nesting_restores_previous(self):
        with use_kernels():
            with use_kernels():
                assert kernel_active()
            assert kernel_active()
        assert not kernel_active()


# --------------------------------------------------------------------- #
# Shared comparison harness
# --------------------------------------------------------------------- #
def _run(fn, params):
    """Forward + backward with a deterministic non-trivial seed."""
    for p in params:
        p.grad = None
    out = fn()
    seed = np.cos(
        np.arange(out.data.size, dtype=np.float64)
    ).reshape(out.data.shape)
    out.backward(seed)
    return out.data.copy(), [
        None if p.grad is None else p.grad.copy() for p in params
    ]


def assert_exact_bitwise(fn, params):
    """The fused kernels must equal the composed graph bit-for-bit."""
    ref_out, ref_grads = _run(fn, params)
    with use_kernels():
        fused_out, fused_grads = _run(fn, params)
    assert np.array_equal(ref_out, fused_out), "forward not bitwise"
    for i, (a, b) in enumerate(zip(ref_grads, fused_grads)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b), f"grad[{i}] not bitwise"


# --------------------------------------------------------------------- #
# Bitwise parity, kernel by kernel
# --------------------------------------------------------------------- #
class TestExactModeBitwise:
    def test_softmax_2d(self, rng):
        x = Tensor(rng.normal(size=(16, 11)), requires_grad=True)
        assert_exact_bitwise(lambda: F.softmax(x, axis=-1), [x])

    def test_softmax_4d_inner_axis(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 7)), requires_grad=True)
        assert_exact_bitwise(lambda: F.softmax(x, axis=1), [x])

    def test_log_softmax(self, rng):
        x = Tensor(rng.normal(size=(9, 13)), requires_grad=True)
        assert_exact_bitwise(lambda: F.log_softmax(x, axis=-1), [x])

    @pytest.mark.parametrize("ignore", [None, -1])
    def test_cross_entropy(self, rng, ignore):
        logits = Tensor(rng.normal(size=(12, 7)), requires_grad=True)
        targets = rng.integers(0, 7, size=12)
        if ignore is not None:
            targets[::3] = ignore

        def run():
            logits.grad = None
            loss = F.cross_entropy(logits, targets, ignore_index=ignore)
            loss.backward()
            return loss.data.copy(), logits.grad.copy()

        ref_out, ref_grad = run()
        with use_kernels():
            fused_out, fused_grad = run()
        assert np.array_equal(ref_out, fused_out)
        assert np.array_equal(ref_grad, fused_grad)

    def test_layer_norm(self, rng):
        ln = LayerNorm(10)
        x = Tensor(rng.normal(size=(4, 5, 10)), requires_grad=True)
        assert_exact_bitwise(lambda: ln(x), [x, ln.gamma, ln.beta])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_sequence_masked(self, rng, reverse):
        gru = GRU(7, 5, rng, reverse=reverse)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[0, 4:] = False
        mask[2, 2:] = False
        params = [x] + list(gru.parameters())
        assert_exact_bitwise(lambda: gru(x, mask), params)

    def test_bigru_end_to_end(self, rng):
        bigru = BiGRU(7, 5, rng)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[1, 3:] = False
        params = [x] + list(bigru.parameters())
        assert_exact_bitwise(lambda: bigru(x, mask), params)

    @pytest.mark.parametrize("seed", range(6))
    def test_gru_sequence_three_calls_per_loss(self, seed):
        """One BiGRU run three times in one backward, as Algorithm 3 runs
        anchor, positive and negative through one relation module."""
        rng = np.random.default_rng(seed)
        bigru = BiGRU(7, 5, rng)
        xs = [Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
              for _ in range(3)]
        masks = []
        for _ in range(3):
            mask = np.ones((3, 6), dtype=bool)
            mask[rng.integers(0, 3), rng.integers(1, 6):] = False
            masks.append(mask)

        def three_calls():
            a, p, n = (bigru(x, mask) for x, mask in zip(xs, masks))
            return a + p + n

        assert_exact_bitwise(three_calls, xs + list(bigru.parameters()))

    def test_attention_all_kernels(self, rng):
        mha = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(7, 16)), requires_grad=True)
        layout = TokenLayout(np.array([[True] * 5, [True, True, False,
                                                    False, False]]))
        params = [x] + list(mha.parameters())
        assert_exact_bitwise(lambda: mha(x, layout), params)


class TestFiniteDifferences:
    """Anchor the fused backward to the math, not just to the engine."""

    @pytest.mark.usefixtures("float64")
    def test_gru_sequence_input_gradient(self, rng):
        gru = GRU(3, 4, rng)
        x0 = rng.normal(size=(2, 5, 3))
        mask = np.ones((2, 5), dtype=bool)
        mask[1, 3:] = False

        def forward_sum(x_data):
            with use_kernels():
                return gru(Tensor(x_data), mask).data.sum()

        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels():
            out = gru(x, mask)
        out.backward(np.ones_like(out.data))
        eps = 1e-6
        # (1, 4, 0) is padding: both gradients are zero there.
        for index in [(0, 0, 0), (0, 4, 2), (1, 2, 1), (1, 4, 0)]:
            bumped = x0.copy()
            bumped[index] += eps
            plus = forward_sum(bumped)
            bumped[index] -= 2 * eps
            minus = forward_sum(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert x.grad[index] == pytest.approx(numeric, abs=1e-5)

    @pytest.mark.usefixtures("float64")
    def test_softmax_gradient(self, rng):
        x0 = rng.normal(size=(3, 5))

        def forward_weighted(x_data):
            with use_kernels():
                out = F.softmax(Tensor(x_data), axis=-1)
            return (out.data * weight).sum()

        weight = rng.normal(size=(3, 5))
        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels():
            F.softmax(x, axis=-1).backward(weight)
        eps = 1e-6
        for index in [(0, 0), (1, 3), (2, 4)]:
            bumped = x0.copy()
            bumped[index] += eps
            plus = forward_weighted(bumped)
            bumped[index] -= 2 * eps
            minus = forward_weighted(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert x.grad[index] == pytest.approx(numeric, abs=1e-5)


# --------------------------------------------------------------------- #
# DEFAULT_DTYPE consistency (satellite: GRU biases and initial state)
# --------------------------------------------------------------------- #
class TestRnnDtype:
    def test_cell_parameters_default_dtype(self, rng):
        cell = GRUCell(4, 6, rng)
        for p in cell.parameters():
            assert p.data.dtype == DEFAULT_DTYPE

    def test_initial_hidden_state_default_dtype(self, rng):
        gru = GRU(4, 6, rng)
        out = gru(Tensor(np.ones((2, 3, 4), dtype=np.float32)))
        assert out.data.dtype == DEFAULT_DTYPE

    def test_fused_output_dtype(self, rng):
        gru = BiGRU(4, 6, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        with use_kernels():
            out = gru(x)
        assert out.data.dtype == DEFAULT_DTYPE


# --------------------------------------------------------------------- #
# End-to-end: run_experiment (fused) vs a direct fit (composed)
# --------------------------------------------------------------------- #
def _fused_and_composed(name, pair, split):
    """``run_experiment``'s result, a direct fit's test metrics, and the
    :class:`~repro.core.model.FitResult` of every SDEA fit, in order."""
    fits = []
    fit = SDEA.fit

    def recording_fit(model, *args, **kwargs):
        fits.append(fit(model, *args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SDEA, "fit", recording_fit)
        fused = run_experiment(name, pair, split)
        assert not kernel_active()
        method = make_method(name)
        method.fit(pair, split)
        composed = method.evaluate(split.test).metrics
    return fused, composed, fits


def _assert_same_metrics(fused, composed):
    assert fused.hits_at_1 == composed.hits_at_1
    assert fused.hits_at_10 == composed.hits_at_10
    assert fused.mrr == composed.mrr


class TestEndToEndSDEA:
    @pytest.fixture(scope="class")
    def runs(self, tiny_pair, tiny_split):
        return _fused_and_composed("sdea", tiny_pair, tiny_split)

    def test_loss_trajectories_bitwise(self, runs):
        """Fused training reproduces every logged loss."""
        fused, composed = runs[2]
        assert fused.mlm_losses == composed.mlm_losses
        assert fused.attribute_log.losses == composed.attribute_log.losses
        assert fused.relation_log.losses == composed.relation_log.losses

    def test_eval_metrics_identical(self, runs):
        _assert_same_metrics(runs[0], runs[1])


# The other methods whose fit reaches a fused kernel.
@pytest.mark.parametrize("name", ["sdea-norel", "bert-int", "gat-align",
                                  "kecg", "naea", "rsn-lite"])
def test_runner_metrics_match_direct_fit(name, tiny_pair, tiny_split):
    fused, composed, _ = _fused_and_composed(name, tiny_pair, tiny_split)
    _assert_same_metrics(fused, composed)


def test_run_suite_fits_with_kernels_active(tiny_pair, tiny_split,
                                            monkeypatch):
    states = []
    make = runner.make_method

    def probing_make_method(name):
        method = make(name)
        fit = method.fit

        def probe(*args, **kwargs):
            states.append(kernel_active())
            return fit(*args, **kwargs)

        method.fit = probe
        return method

    monkeypatch.setattr(runner, "make_method", probing_make_method)
    run_suite(["jape-stru", "gcn"], tiny_pair, tiny_split)
    assert states == [True, True]
    assert not kernel_active()
