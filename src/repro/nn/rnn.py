"""Gated recurrent units: GRUCell, GRU, and bidirectional GRU.

Implements the paper's relation-embedding recurrence (Eq. 8–11):

* reset gate   ``r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)``
* candidate    ``h~_t = tanh(W x_t + U (r_t * h_{t-1}) + b_h)``
* update gate  ``z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)``
* output       ``h_t = (1 - z_t) * h_{t-1} + z_t * h~_t``

The bidirectional variant sums the forward and backward hidden states,
exactly as SDEA does ("the final output h_t ... is the sum of the two
directions").
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .kernels import fused_gru_sequence, kernel_active
from .module import Module, Parameter
from .spec import shape_spec
from .tensor import DEFAULT_DTYPE, Tensor, concatenate, stack, where


class GRUCell(Module):
    """Single GRU step; processes one timestep of a batch.

    Parameters are stored per-gate (``w_r``/``u_r``/``b_r``, ...), which
    keeps state dicts and tests readable; a GRU call packs them once into
    ``(D_in, 3H)`` / ``(H, 3H)`` matrices via :meth:`packed_gates`, which
    the fused sequence kernel (see :mod:`repro.nn.kernels`) takes whole
    and the composed loop slices per gate (:meth:`gate_slices`).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Gate weights packed per-gate for clarity over speed.
        self.w_r = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.u_r = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.b_r = Parameter(np.zeros(hidden_dim, dtype=DEFAULT_DTYPE))
        self.w_z = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.u_z = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.b_z = Parameter(np.zeros(hidden_dim, dtype=DEFAULT_DTYPE))
        self.w_h = Parameter(init.xavier_uniform((input_dim, hidden_dim), rng))
        self.u_h = Parameter(init.xavier_uniform((hidden_dim, hidden_dim), rng))
        self.b_h = Parameter(np.zeros(hidden_dim, dtype=DEFAULT_DTYPE))

    def packed_gates(self) -> Tuple[Tensor, Tensor, Tensor]:
        """Packed ``(w, u, b)`` gate tensors in ``[r | z | c]`` order.

        Built with autograd :func:`~repro.nn.tensor.concatenate`, so
        gradients flow back to the per-gate parameters through the
        concat's split backward — three extra nodes per *sequence*, not
        per step.
        """
        w = concatenate([self.w_r, self.w_z, self.w_h], axis=1)
        u = concatenate([self.u_r, self.u_z, self.u_h], axis=1)
        b = concatenate([self.b_r, self.b_z, self.b_h], axis=0)
        return w, u, b

    def gate_slices(self, w: Tensor, u: Tensor, b: Tensor
                    ) -> Tuple[Tuple[Tensor, Tensor, Tensor], ...]:
        """Per-gate ``(w, u, b)`` for r, z and c, sliced from packed tensors."""
        hid, two = self.hidden_dim, 2 * self.hidden_dim
        return tuple((w[:, cols], u[:, cols], b[cols]) for cols in
                     (slice(0, hid), slice(hid, two), slice(two, None)))

    @shape_spec(x="b input_dim", h_prev="b hidden_dim", returns="b hidden_dim")
    def forward(self, x: Tensor, h_prev: Tensor,  # repro: noqa[R010] reference loop for fused_gru_sequence
                gates: Optional[tuple] = None) -> Tensor:
        """Advance one step: ``(B, D_in), (B, D_h) -> (B, D_h)``.

        ``gates`` lets the GRU loop share one set of weights across its
        steps, as the :meth:`gate_slices` of one :meth:`packed_gates`
        result; without it the step uses the parameters as they are.
        """
        (w_r, u_r, b_r), (w_z, u_z, b_z), (w_h, u_h, b_h) = (
            gates if gates is not None else
            ((self.w_r, self.u_r, self.b_r), (self.w_z, self.u_z, self.b_z),
             (self.w_h, self.u_h, self.b_h)))
        r = (x @ w_r + h_prev @ u_r + b_r).sigmoid()
        z = (x @ w_z + h_prev @ u_z + b_z).sigmoid()
        candidate = (x @ w_h + (r * h_prev) @ u_h + b_h).tanh()
        return (1.0 - z) * h_prev + z * candidate


class GRU(Module):
    """Unidirectional GRU over padded sequences.

    Accepts a boolean mask marking valid timesteps; at padded positions the
    hidden state is carried through unchanged so padding never contributes.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 reverse: bool = False):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng)
        self.hidden_dim = hidden_dim
        self.reverse = reverse

    @shape_spec(x="b t cell.input_dim", returns="b t hidden_dim")
    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Run the recurrence.

        Parameters
        ----------
        x:
            Input of shape ``(B, T, D_in)``.
        mask:
            Optional boolean array ``(B, T)``; ``False`` marks padding.

        Returns
        -------
        Tensor of shape ``(B, T, D_h)`` with a hidden state per timestep.
        """
        batch, steps, _ = x.shape
        if mask is None:
            mask = np.ones((batch, steps), dtype=bool)
        # One packed node per call on every path: the call's parameter
        # gradient is summed there before the per-gate leaves see it, so
        # several calls in one backward group the leaf sums alike and the
        # fused kernel stays bit-for-bit equal to the composed loop.
        w, u, b = self.cell.packed_gates()
        if kernel_active():
            # Whole recurrence as one autograd node: T steps of ~30 ops
            # collapse to a single hand-derived backward-through-time.
            return fused_gru_sequence(x, mask, w, u, b,
                                      reverse=self.reverse)
        gates = self.cell.gate_slices(w, u, b)
        order = range(steps - 1, -1, -1) if self.reverse else range(steps)
        h = Tensor(np.zeros((batch, self.hidden_dim), dtype=DEFAULT_DTYPE))
        outputs: list[Optional[Tensor]] = [None] * steps
        for t in order:
            x_t = x[:, t, :]
            h_new = self.cell(x_t, h, gates=gates)
            step_mask = mask[:, t:t + 1]
            h = where(step_mask, h_new, h)
            outputs[t] = h
        return stack(outputs, axis=1)


class BiGRU(Module):
    """Bidirectional GRU whose outputs are the sum of both directions.

    This is the neighbor-correlation encoder of SDEA's relation embedding
    module (Section III-B1).
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.forward_gru = GRU(input_dim, hidden_dim, rng, reverse=False)
        self.backward_gru = GRU(input_dim, hidden_dim, rng, reverse=True)
        self.hidden_dim = hidden_dim

    @shape_spec(x="b t forward_gru.cell.input_dim", returns="b t hidden_dim")
    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """``(B, T, D_in) -> (B, T, D_h)`` as forward + backward states."""
        return self.forward_gru(x, mask) + self.backward_gru(x, mask)
