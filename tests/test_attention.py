"""Attention: multi-head self-attention and SDEA's global pooling."""

import numpy as np
import pytest

from repro.nn import GlobalAttentionPooling, MultiHeadSelfAttention, Tensor, \
    TokenLayout


class TestTokenLayout:
    MASK = np.array([[True, True, False], [True, False, False],
                     [True, True, True]])

    def test_indices(self):
        layout = TokenLayout(self.MASK)
        assert (layout.batch, layout.steps, layout.count) == (3, 3, 6)
        assert layout.padded
        np.testing.assert_array_equal(layout.real, [0, 1, 3, 6, 7, 8])
        # Padding slots point past row N, at the zero rows pad() appends.
        np.testing.assert_array_equal(layout.slots,
                                      [[0, 1, 6], [2, 7, 8], [3, 4, 5]])

    @pytest.mark.usefixtures("float64")
    def test_pad_unpad_round_trip(self):
        layout = TokenLayout(self.MASK)
        rows = np.random.default_rng(0).normal(size=(6, 4))
        grid = layout.pad(Tensor(rows))
        assert grid.shape == (3, 3, 4)
        np.testing.assert_array_equal(grid.data[self.MASK], rows)
        np.testing.assert_array_equal(grid.data[~self.MASK], 0.0)
        np.testing.assert_array_equal(layout.unpad(grid).data, rows)

    @pytest.mark.usefixtures("float64")
    def test_pad_gradient_reaches_real_rows_only(self):
        layout = TokenLayout(self.MASK)
        rows = Tensor(np.ones((6, 4)), requires_grad=True)
        seed = np.random.default_rng(1).normal(size=(3, 3, 4))
        layout.pad(rows).backward(seed)
        np.testing.assert_array_equal(rows.grad, seed[self.MASK])

    def test_dense_layout_is_a_reshape(self):
        layout = TokenLayout.dense(2, 3)
        assert not layout.padded and layout.count == 6
        rows = Tensor(np.arange(12.0).reshape(6, 2))
        np.testing.assert_array_equal(layout.pad(rows).data,
                                      rows.data.reshape(2, 3, 2))

    def test_rejects_1d_mask(self):
        with pytest.raises(ValueError):
            TokenLayout(np.ones(4, dtype=bool))


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng)
        out = attn(Tensor(np.ones((10, 8))), TokenLayout.dense(2, 5))
        assert out.shape == (10, 8)

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, rng)

    def test_masked_keys_do_not_influence_output(self, rng):
        """A padded row attends exactly as the same tokens alone."""
        attn = MultiHeadSelfAttention(8, 2, rng)
        rows = np.random.default_rng(0).normal(size=(3, 8))
        mask = np.array([[True, True, True, False]])
        padded = attn(Tensor(rows), TokenLayout(mask)).data
        alone = attn(Tensor(rows), TokenLayout.dense(1, 3)).data
        np.testing.assert_allclose(padded, alone, atol=1e-9)

    def test_gradients_flow(self, rng):
        attn = MultiHeadSelfAttention(8, 4, rng)
        x = Tensor(np.random.default_rng(1).normal(size=(6, 8)),
                   requires_grad=True)
        attn(x, TokenLayout.dense(2, 3)).sum().backward()
        assert np.abs(x.grad).sum() > 0

    @pytest.mark.usefixtures("float64")
    def test_permutation_equivariance_without_positions(self, rng):
        """Self-attention itself is permutation-equivariant."""
        attn = MultiHeadSelfAttention(8, 2, rng)
        x = np.random.default_rng(2).normal(size=(4, 8))
        perm = [2, 0, 3, 1]
        layout = TokenLayout.dense(1, 4)
        out = attn(Tensor(x), layout).data
        out_perm = attn(Tensor(x[perm]), layout).data
        np.testing.assert_allclose(out[perm], out_perm, atol=1e-9)


class TestGlobalAttentionPooling:
    def test_output_shape(self, rng):
        pool = GlobalAttentionPooling(6, rng)
        states = Tensor(np.random.default_rng(3).normal(size=(2, 5, 6)))
        last = states[np.arange(2), np.array([4, 4]), :]
        out = pool(states, last)
        assert out.shape == (2, 6)

    @pytest.mark.usefixtures("float64")
    def test_weights_sum_to_one_over_valid(self, rng):
        pool = GlobalAttentionPooling(6, rng)
        states = Tensor(np.random.default_rng(4).normal(size=(2, 5, 6)))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=bool)
        last = states[np.arange(2), np.array([2, 4]), :]
        _, alpha = pool(states, last, mask, return_weights=True)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(2),
                                   rtol=1e-9)
        # padded slots get (numerically) zero weight
        np.testing.assert_allclose(alpha.data[0, 3:], np.zeros(2), atol=1e-20)

    def test_pooled_is_weighted_sum(self, rng):
        pool = GlobalAttentionPooling(4, rng)
        states = Tensor(np.random.default_rng(5).normal(size=(1, 3, 4)))
        last = states[:, 2, :]
        pooled, alpha = pool(states, last, return_weights=True)
        manual = (states.data * alpha.data[:, :, None]).sum(axis=1)
        np.testing.assert_allclose(pooled.data, manual, rtol=1e-12)

    def test_single_neighbor_gets_full_weight(self, rng):
        pool = GlobalAttentionPooling(4, rng)
        states = Tensor(np.random.default_rng(6).normal(size=(1, 3, 4)))
        mask = np.array([[True, False, False]])
        last = states[:, 0, :]
        pooled, alpha = pool(states, last, mask, return_weights=True)
        np.testing.assert_allclose(alpha.data[0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(pooled.data, states.data[:, 0], rtol=1e-12)
