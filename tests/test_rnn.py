"""GRU / BiGRU: recurrence equations, masking, direction handling."""

import numpy as np
import pytest

from repro.nn import BiGRU, GRU, GRUCell, Tensor


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(4, 6, rng)
        h = cell(Tensor(np.ones((3, 4))), Tensor(np.zeros((3, 6))))
        assert h.shape == (3, 6)

    @pytest.mark.usefixtures("float64")
    def test_matches_manual_equations(self, rng):
        """One step must satisfy Eq. 8–11 exactly."""
        cell = GRUCell(2, 3, rng)
        x = np.array([[0.5, -0.2]])
        h_prev = np.array([[0.1, 0.2, -0.1]])

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        r = sigmoid(x @ cell.w_r.data + h_prev @ cell.u_r.data + cell.b_r.data)
        z = sigmoid(x @ cell.w_z.data + h_prev @ cell.u_z.data + cell.b_z.data)
        candidate = np.tanh(
            x @ cell.w_h.data + (r * h_prev) @ cell.u_h.data + cell.b_h.data
        )
        expected = (1 - z) * h_prev + z * candidate
        out = cell(Tensor(x), Tensor(h_prev))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_zero_update_gate_keeps_state(self, rng):
        cell = GRUCell(2, 3, rng)
        # Force z ≈ 0 by a large negative bias: h_t ≈ h_{t-1}.
        cell.b_z.data[...] = -100.0  # repro: noqa[R001] pre-forward weight forcing
        cell.w_z.data[...] = 0.0  # repro: noqa[R001] pre-forward weight forcing
        cell.u_z.data[...] = 0.0  # repro: noqa[R001] pre-forward weight forcing
        h_prev = np.array([[1.0, -1.0, 0.5]])
        out = cell(Tensor(np.ones((1, 2))), Tensor(h_prev))
        np.testing.assert_allclose(out.data, h_prev, atol=1e-9)


class TestGRU:
    def test_output_shape(self, rng):
        gru = GRU(4, 6, rng)
        out = gru(Tensor(np.ones((2, 5, 4))))
        assert out.shape == (2, 5, 6)

    def test_mask_freezes_state_at_padding(self, rng):
        gru = GRU(3, 4, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 3)))
        mask = np.array([[True, True, False, False]])
        out = gru(x, mask).data
        # After the last valid step the hidden state must stay frozen.
        np.testing.assert_allclose(out[0, 2], out[0, 1])
        np.testing.assert_allclose(out[0, 3], out[0, 1])

    def test_padding_content_does_not_leak(self, rng):
        gru = GRU(3, 4, rng)
        base = np.random.default_rng(1).normal(size=(1, 4, 3))
        variant = base.copy()
        variant[0, 2:] = 999.0  # garbage in padded region
        mask = np.array([[True, True, False, False]])
        out1 = gru(Tensor(base), mask).data
        out2 = gru(Tensor(variant), mask).data
        np.testing.assert_allclose(out1[:, :2], out2[:, :2], atol=1e-12)

    def test_reverse_direction_sees_future(self, rng):
        fwd = GRU(2, 3, rng, reverse=False)
        x = np.random.default_rng(2).normal(size=(1, 3, 2))
        # In forward mode, output at t=0 must not depend on t=2 input.
        variant = x.copy()
        variant[0, 2] = 5.0
        out1 = fwd(Tensor(x)).data
        out2 = fwd(Tensor(variant)).data
        np.testing.assert_allclose(out1[0, 0], out2[0, 0])
        # In reverse mode it must depend on it.
        rev = GRU(2, 3, rng, reverse=True)
        out1 = rev(Tensor(x)).data
        out2 = rev(Tensor(variant)).data
        assert not np.allclose(out1[0, 0], out2[0, 0])

    def test_gradients_reach_inputs(self, rng):
        gru = GRU(3, 4, rng)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 3)),
                   requires_grad=True)
        gru(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestBiGRU:
    def test_output_is_sum_of_directions(self, rng):
        bigru = BiGRU(3, 4, rng)
        x = Tensor(np.random.default_rng(4).normal(size=(2, 5, 3)))
        mask = np.ones((2, 5), dtype=bool)
        combined = bigru(x, mask).data
        fwd = bigru.forward_gru(x, mask).data
        bwd = bigru.backward_gru(x, mask).data
        np.testing.assert_allclose(combined, fwd + bwd, rtol=1e-12)

    def test_masked_grad_zero_at_padding(self, rng):
        bigru = BiGRU(3, 4, rng)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 4, 3)),
                   requires_grad=True)
        mask = np.array([[True, True, True, False]])
        bigru(x, mask).sum().backward()
        np.testing.assert_allclose(x.grad[0, 3], np.zeros(3))
