"""Transformer encoder blocks."""

import numpy as np

from repro.nn import Tensor, TokenLayout, TransformerEncoder, \
    TransformerEncoderLayer


class TestEncoderLayer:
    def test_shape_preserved(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        out = layer(Tensor(np.ones((10, 8))), TokenLayout.dense(2, 5))
        assert out.shape == (10, 8)

    def test_gradients_flow(self, rng):
        layer = TransformerEncoderLayer(8, 2, 16, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)),
                   requires_grad=True)
        # Note: .sum() of a LayerNorm output is constant (zero grad), so a
        # squared loss is used to exercise the whole block.
        (layer(x, TokenLayout.dense(1, 4)) ** 2).sum().backward()
        assert np.abs(x.grad).sum() > 0


class TestEncoderStack:
    def test_layers_count(self, rng):
        encoder = TransformerEncoder(8, 2, 16, 3, rng)
        assert len(encoder.layers) == 3

    def test_padded_positions_do_not_affect_valid_ones(self, rng):
        """Rows padded to a wider grid encode as they do alone."""
        encoder = TransformerEncoder(8, 2, 16, 2, rng)
        rows = np.random.default_rng(1).normal(size=(4, 8))
        mask = np.array([[True, True, True, True, False]])
        padded = encoder(Tensor(rows), TokenLayout(mask)).data
        alone = encoder(Tensor(rows), TokenLayout.dense(1, 4)).data
        np.testing.assert_allclose(padded, alone, atol=1e-8)

    def test_deterministic_in_eval_mode(self, rng):
        encoder = TransformerEncoder(8, 2, 16, 2, rng, dropout=0.5)
        encoder.eval()
        x = Tensor(np.random.default_rng(2).normal(size=(8, 8)))
        layout = TokenLayout.dense(2, 4)
        np.testing.assert_array_equal(encoder(x, layout).data,
                                      encoder(x, layout).data)

    def test_dropout_changes_training_outputs(self, rng):
        encoder = TransformerEncoder(8, 2, 16, 1, rng, dropout=0.5)
        encoder.train()
        x = Tensor(np.random.default_rng(3).normal(size=(8, 8)))
        layout = TokenLayout.dense(2, 4)
        out1 = encoder(x, layout).data
        out2 = encoder(x, layout).data
        assert not np.allclose(out1, out2)
