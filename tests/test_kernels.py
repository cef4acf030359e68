"""Fused-kernel layer: registry, gradcheck, bitwise parity, e2e SDEA.

Three layers of guarantees, from strongest to loosest:

* **exact mode** — outputs *and* gradients bit-for-bit identical to the
  composed autograd graph (``np.array_equal``, no tolerance);
* **fast mode** — outputs bitwise, gradients within float64 rounding of
  the composed graph (hypothesis gradcheck at 1e-6, typically ~1e-14);
* **finite differences** — the analytic backward agrees with a central
  difference of the forward, anchoring both modes to the math rather
  than to each other.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import SDEA, SDEAConfig
from repro.nn import functional as F
from repro.nn.kernels import (
    KERNEL_MODES,
    active_kernel_names,
    fused_gru_cell,
    get_kernel,
    kernel_active,
    kernel_mode,
    register_kernel,
    registered_kernels,
    use_kernels,
)
from repro.nn.layers import LayerNorm
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.rnn import GRU, BiGRU, GRUCell
from repro.nn.tensor import DEFAULT_DTYPE, Tensor

EXPECTED_KERNELS = (
    "cross_entropy", "gru_cell", "gru_sequence",
    "layer_norm", "log_softmax", "softmax",
)


# --------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_registered_names(self):
        assert registered_kernels() == EXPECTED_KERNELS

    def test_nothing_active_by_default(self):
        assert not any(kernel_active(n) for n in EXPECTED_KERNELS)
        assert list(active_kernel_names()) == []
        assert kernel_mode() == "exact"

    def test_activate_all(self):
        with use_kernels():
            assert all(kernel_active(n) for n in EXPECTED_KERNELS)
        assert not kernel_active("softmax")

    def test_activate_subset(self):
        with use_kernels("softmax", "layer_norm"):
            assert kernel_active("softmax")
            assert kernel_active("layer_norm")
            assert not kernel_active("gru_sequence")
            assert list(active_kernel_names()) == ["layer_norm", "softmax"]

    def test_nesting_restores_previous(self):
        with use_kernels("softmax"):
            with use_kernels("gru_cell", mode="fast"):
                assert not kernel_active("softmax")
                assert kernel_active("gru_cell")
                assert kernel_mode() == "fast"
            assert kernel_active("softmax")
            assert kernel_mode() == "exact"

    def test_enabled_false_forces_reference(self):
        with use_kernels():
            with use_kernels(enabled=False):
                assert not kernel_active("softmax")
            assert kernel_active("softmax")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            use_kernels("softmaxx")
        with pytest.raises(KeyError, match="registered"):
            get_kernel("nope")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            use_kernels(mode="sloppy")
        assert KERNEL_MODES == ("exact", "fast")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("softmax")(lambda: None)


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


def assert_exact_bitwise(fn, params, kernels=()):
    """Fused exact mode must equal the composed graph bit-for-bit."""
    ref_out, ref_grads = _run(fn, params)
    with use_kernels(*kernels, mode="exact"):
        fused_out, fused_grads = _run(fn, params)
    assert np.array_equal(ref_out, fused_out), "forward not bitwise"
    for i, (a, b) in enumerate(zip(ref_grads, fused_grads)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b), f"grad[{i}] not bitwise"


def assert_fast_close(fn, params, kernels=(), atol=1e-6):
    """Fast mode: bitwise forward, gradients within float64 rounding."""
    ref_out, ref_grads = _run(fn, params)
    with use_kernels(*kernels, mode="fast"):
        fused_out, fused_grads = _run(fn, params)
    assert np.array_equal(ref_out, fused_out), "forward not bitwise"
    for i, (a, b) in enumerate(zip(ref_grads, fused_grads)):
        if a is not None:
            np.testing.assert_allclose(
                a, b, atol=atol, rtol=0,
                err_msg=f"grad[{i}] beyond fast-mode tolerance")


# --------------------------------------------------------------------- #
# Bitwise exact-mode parity, kernel by kernel
# --------------------------------------------------------------------- #
class TestExactModeBitwise:
    def test_softmax_2d(self, rng):
        x = Tensor(rng.normal(size=(16, 11)), requires_grad=True)
        assert_exact_bitwise(lambda: F.softmax(x, axis=-1), [x],
                             ("softmax",))

    def test_softmax_4d_inner_axis(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 7)), requires_grad=True)
        assert_exact_bitwise(lambda: F.softmax(x, axis=1), [x],
                             ("softmax",))

    def test_log_softmax(self, rng):
        x = Tensor(rng.normal(size=(9, 13)), requires_grad=True)
        assert_exact_bitwise(lambda: F.log_softmax(x, axis=-1), [x],
                             ("log_softmax",))

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
        with use_kernels("cross_entropy", mode="exact"):
            fused_out, fused_grad = run()
        assert np.array_equal(ref_out, fused_out)
        assert np.array_equal(ref_grad, fused_grad)

    def test_layer_norm(self, rng):
        ln = LayerNorm(10)
        x = Tensor(rng.normal(size=(4, 5, 10)), requires_grad=True)
        assert_exact_bitwise(lambda: ln(x), [x, ln.gamma, ln.beta],
                             ("layer_norm",))

    def test_gru_cell(self, rng):
        cell = GRUCell(7, 5, rng)
        x = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        h = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        params = [x, h] + list(cell.parameters())
        assert_exact_bitwise(lambda: cell(x, h), params, ("gru_cell",))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_sequence_masked(self, rng, reverse):
        gru = GRU(7, 5, rng, reverse=reverse)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[0, 4:] = False
        mask[2, 2:] = False
        params = [x] + list(gru.parameters())
        assert_exact_bitwise(lambda: gru(x, mask), params,
                             ("gru_sequence",))

    def test_bigru_end_to_end(self, rng):
        bigru = BiGRU(7, 5, rng)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[1, 3:] = False
        params = [x] + list(bigru.parameters())
        assert_exact_bitwise(lambda: bigru(x, mask), params,
                             ("gru_sequence",))

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

        assert_exact_bitwise(three_calls, xs + list(bigru.parameters()),
                             ("gru_sequence",))

    def test_attention_all_kernels(self, rng):
        mha = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
        params = [x] + list(mha.parameters())
        assert_exact_bitwise(lambda: mha(x), params)


# --------------------------------------------------------------------- #
# Fast-mode gradcheck (hypothesis: fused closed form vs composed graph)
# --------------------------------------------------------------------- #
def _finite(shape, scale=2.0):
    return arrays(
        np.float64, shape,
        elements=st.floats(-scale, scale, allow_nan=False,
                           allow_infinity=False, width=64),
    )


class TestFastModeGradcheck:
    @settings(max_examples=25, deadline=None)
    @given(data=_finite((6, 9)))
    def test_softmax(self, data):
        x = Tensor(data, requires_grad=True)
        assert_fast_close(lambda: F.softmax(x, axis=-1), [x], ("softmax",))

    @settings(max_examples=25, deadline=None)
    @given(data=_finite((5, 8)))
    def test_log_softmax(self, data):
        x = Tensor(data, requires_grad=True)
        assert_fast_close(lambda: F.log_softmax(x, axis=-1), [x],
                          ("log_softmax",))

    @settings(max_examples=25, deadline=None)
    @given(data=_finite((4, 3, 10)))
    def test_layer_norm(self, data):
        ln = LayerNorm(10)
        x = Tensor(data, requires_grad=True)
        assert_fast_close(lambda: ln(x), [x, ln.gamma, ln.beta],
                          ("layer_norm",))

    @settings(max_examples=15, deadline=None)
    @given(data=_finite((3, 5, 4)), seed=st.integers(0, 2**32 - 1))
    def test_gru_sequence(self, data, seed):
        gru = GRU(4, 6, np.random.default_rng(seed))
        x = Tensor(data, requires_grad=True)
        params = [x] + list(gru.parameters())
        assert_fast_close(lambda: gru(x), params, ("gru_sequence",))

    @settings(max_examples=15, deadline=None)
    @given(data=_finite((4, 5)), seed=st.integers(0, 2**32 - 1))
    def test_cross_entropy(self, data, seed):
        logits = Tensor(data, requires_grad=True)
        targets = np.random.default_rng(seed).integers(0, 5, size=4)

        def run():
            logits.grad = None
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            return loss.data.copy(), logits.grad.copy()

        ref_out, ref_grad = run()
        with use_kernels("cross_entropy", mode="fast"):
            fused_out, fused_grad = run()
        assert np.array_equal(ref_out, fused_out)
        np.testing.assert_allclose(ref_grad, fused_grad, atol=1e-6, rtol=0)


class TestFiniteDifferences:
    """Anchor the fused backward to the math, not just to the engine."""

    def test_gru_cell_input_gradient(self, rng):
        cell = GRUCell(3, 4, rng)
        x0 = rng.normal(size=(2, 3))
        h0 = rng.normal(size=(2, 4))
        w, u, b = cell.packed_gates()

        def forward_sum(x_data):
            with use_kernels("gru_cell", mode="fast"):
                out = fused_gru_cell(
                    Tensor(x_data), Tensor(h0),
                    Tensor(w.data), Tensor(u.data), Tensor(b.data),
                )
            return out.data.sum()

        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels("gru_cell", mode="fast"):
            out = fused_gru_cell(x, Tensor(h0), Tensor(w.data),
                                 Tensor(u.data), Tensor(b.data))
        out.backward(np.ones_like(out.data))
        eps = 1e-6
        for index in [(0, 0), (0, 2), (1, 1)]:
            bumped = x0.copy()
            bumped[index] += eps
            plus = forward_sum(bumped)
            bumped[index] -= 2 * eps
            minus = forward_sum(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert x.grad[index] == pytest.approx(numeric, abs=1e-5)

    def test_softmax_gradient(self, rng):
        x0 = rng.normal(size=(3, 5))

        def forward_weighted(x_data):
            with use_kernels("softmax", mode="fast"):
                out = F.softmax(Tensor(x_data), axis=-1)
            return (out.data * weight).sum()

        weight = rng.normal(size=(3, 5))
        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels("softmax", mode="fast"):
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
# End-to-end: tiny SDEA fit, fused vs reference
# --------------------------------------------------------------------- #
class TestEndToEndSDEA:
    @pytest.fixture(scope="class")
    def configs(self):
        def make(fused):
            return SDEAConfig(
                bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
                max_seq_len=24, embed_dim=32, relation_hidden=24,
                attr_epochs=1, rel_epochs=2, mlm_epochs=1, vocab_size=400,
                patience=2, seed=1, fused_kernels=fused,
            )
        return make

    @pytest.fixture(scope="class")
    def trajectories(self, configs, tiny_pair):
        runs = {}
        for fused in (False, True):
            model = SDEA(configs(fused))
            result = model.fit(tiny_pair, tiny_pair.split(seed=3))
            metrics = model.evaluate(tiny_pair.split(seed=3).test)
            runs[fused] = (result, metrics)
        return runs

    def test_loss_trajectories_bitwise(self, trajectories):
        """Exact-mode fused training reproduces every logged loss."""
        ref, fused = trajectories[False][0], trajectories[True][0]
        assert ref.mlm_losses == fused.mlm_losses
        assert ref.attribute_log.losses == fused.attribute_log.losses
        assert ref.relation_log.losses == fused.relation_log.losses

    def test_eval_metrics_identical(self, trajectories):
        ref, fused = trajectories[False][1], trajectories[True][1]
        assert ref.metrics.hits_at_1 == fused.metrics.hits_at_1
        assert ref.metrics.hits_at_10 == fused.metrics.hits_at_10
        assert ref.metrics.mrr == fused.metrics.mrr
