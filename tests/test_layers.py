"""Core layers: Linear, Embedding, LayerNorm."""

import numpy as np
import pytest

from repro.nn import Embedding, LayerNorm, Linear, Tensor


class TestLinear:
    def test_output_shape_and_value(self, rng):
        layer = Linear(3, 2, rng)
        x = np.ones((4, 3))
        out = layer(Tensor(x))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 3))))
        np.testing.assert_allclose(out.data, np.zeros((1, 2)))

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(3, 2, rng)
        out = layer(Tensor(np.ones((4, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])

    def test_batched_input(self, rng):
        layer = Linear(3, 2, rng)
        out = layer(Tensor(np.ones((2, 5, 3))))
        assert out.shape == (2, 5, 2)


class TestEmbedding:
    def test_lookup_matches_weight_rows(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([1, 3, 3])
        out = emb(ids)
        np.testing.assert_array_equal(out.data, emb.weight.data[ids])

    def test_gradient_accumulates_for_repeated_ids(self, rng):
        emb = Embedding(5, 2, rng)
        out = emb(np.array([2, 2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], [3.0, 3.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])

    def test_2d_ids(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.zeros((2, 3), dtype=int))
        assert out.shape == (2, 3, 4)

    def test_out_of_range_raises(self, rng):
        emb = Embedding(5, 2, rng)
        with pytest.raises(IndexError):
            emb(np.array([5]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))


class TestLayerNorm:
    @pytest.mark.usefixtures("float64")
    def test_output_standardized(self, rng):
        layer = LayerNorm(8)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(4, 8)))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    @pytest.mark.usefixtures("float64")
    def test_gamma_beta_applied(self, rng):
        layer = LayerNorm(4)
        layer.gamma.data[...] = 2.0  # repro: noqa[R001] pre-forward weight forcing
        layer.beta.data[...] = 1.0  # repro: noqa[R001] pre-forward weight forcing
        x = Tensor(rng.normal(size=(3, 4)))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), np.ones(3), atol=1e-9)

    def test_gradients_flow(self, rng):
        layer = LayerNorm(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.gamma.grad is not None
        assert layer.beta.grad is not None
