"""Attention mechanisms.

Contains the multi-head self-attention block used by the mini-BERT
encoder, the token layout it runs on, and the global-vector attention
pooling used by SDEA's relation embedding module (Eq. 12–15).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .layers import Dropout, Linear
from .module import Module
from .spec import shape_spec
from .tensor import Tensor, concatenate

_NEG_INF = -1e9


class TokenLayout:
    """Where the real tokens of a padded ``(B, T)`` batch sit.

    The transformer runs position-wise work (every Linear, GELU,
    LayerNorm, residual add and dropout) on the ``(N, D)`` rows of the
    N real tokens, in row-major grid order, and only attention's core
    on the padded ``(B, H, T, T)`` grid: the padding-free layout of
    ByteTransformer (Zhai et al., IPDPS 2023).

    ``real`` holds the flat grid indices of the real tokens; ``slots``
    maps each grid slot to its packed row, and the padding slots to
    rows ``N, N+1, ...``: the zero rows :meth:`pad` appends.  No row
    is read twice, so the gather's gradient needs no accumulation.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError(f"expected a (batch, seq) mask, got shape "
                             f"{self.mask.shape}")
        self.batch, self.steps = self.mask.shape
        self.real = np.flatnonzero(self.mask)
        self.count = len(self.real)
        self.padded = self.count < self.mask.size
        order = np.concatenate([self.real, np.flatnonzero(~self.mask)])
        slots = np.empty(self.mask.size, dtype=np.intp)
        slots[order] = np.arange(self.mask.size)
        self.slots = slots.reshape(self.mask.shape)
        #: ``(B, 1, 1, T)`` score bias: 0 on real keys, -1e9 on padding.
        self.key_bias = np.where(self.mask[:, None, None, :], 0.0, _NEG_INF)

    @classmethod
    def dense(cls, batch: int, steps: int) -> "TokenLayout":
        """The layout of a batch with no padding (N = B·T)."""
        return cls(np.ones((batch, steps), dtype=bool))

    def pad(self, rows: Tensor) -> Tensor:
        """Scatter ``(N, D)`` rows onto the ``(B, T, D)`` grid, zero at padding."""
        width = rows.shape[-1]
        if not self.padded:
            return rows.reshape(self.batch, self.steps, width)
        zeros = Tensor(np.zeros((self.mask.size - self.count, width),
                                dtype=rows.dtype))
        return concatenate([rows, zeros]).take(self.slots)

    def unpad(self, grid: Tensor) -> Tensor:
        """Gather the real tokens' ``(N, D)`` rows from a ``(B, T, D)`` grid."""
        flat = grid.reshape(self.batch * self.steps, grid.shape[-1])
        return flat.take(self.real) if self.padded else flat


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    Parameters
    ----------
    dim:
        Model width; must be divisible by ``num_heads``.
    num_heads:
        Number of parallel attention heads.
    rng:
        Generator for projection initialisation.
    dropout:
        Dropout on the attention probabilities.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query = Linear(dim, dim, rng)
        self.key = Linear(dim, dim, rng)
        self.value = Linear(dim, dim, rng)
        self.output = Linear(dim, dim, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _heads(self, rows: Tensor, layout: TokenLayout) -> Tensor:
        # (N, D) -> (B, T, D) -> (B, H, T, D_h)
        grid = layout.pad(rows)
        return grid.reshape(layout.batch, layout.steps, self.num_heads,
                            self.head_dim).transpose(0, 2, 1, 3)

    @shape_spec(x="n dim", returns="n dim")
    def forward(self, x: Tensor, layout: TokenLayout) -> Tensor:
        """Attend within each sequence.

        Parameters
        ----------
        x:
            The real tokens' rows ``(N, D)``, ordered as ``layout.real``.
        layout:
            Where those tokens sit in the ``(B, T)`` grid; padding keys
            receive zero attention.
        """
        q = self._heads(self.query(x), layout)
        k = self._heads(self.key(x), layout)
        v = self._heads(self.value(x), layout)

        scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(self.head_dim)
        if layout.padded:
            scores = scores + Tensor(layout.key_bias)
        probs = F.softmax(scores, axis=-1)
        if self.dropout is not None:
            probs = self.dropout(probs)
        context = probs @ v  # (B, H, T, D_h)
        merged = context.transpose(0, 2, 1, 3).reshape(
            layout.batch, layout.steps, self.dim)
        return self.output(layout.unpad(merged))


class GlobalAttentionPooling(Module):
    """SDEA's neighbor-contribution attention (Eq. 12–15).

    A global attention vector ``h_hat`` is produced by an MLP over the last
    BiGRU state; each neighbor's contribution is its inner product with
    ``h_hat``, softmax-normalised, and the pooled output is the weighted sum
    of the neighbor states.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.head = Linear(dim, dim, rng)

    @shape_spec(states="b t head.in_features", last_state="b head.in_features",
                returns="b head.out_features")
    def forward(self, states: Tensor, last_state: Tensor,
                mask: Optional[np.ndarray] = None,
                return_weights: bool = False):
        """Pool neighbor states into one vector per entity.

        Parameters
        ----------
        states:
            BiGRU outputs ``(B, T, D)`` (one per neighbor).
        last_state:
            The final valid BiGRU output per sequence, ``(B, D)``.
        mask:
            Boolean ``(B, T)``; ``False`` marks padded neighbor slots.
        return_weights:
            Also return the attention weights ``alpha`` of shape ``(B, T)``.
        """
        h_hat = self.head(last_state)  # (B, D) — Eq. 12
        scores = (states * h_hat.reshape(h_hat.shape[0], 1, h_hat.shape[1])).sum(axis=-1)
        if mask is not None:
            bias = np.where(mask, 0.0, _NEG_INF)
            scores = scores + Tensor(bias)
        alpha = F.softmax(scores, axis=-1)  # (B, T) — Eq. 14
        pooled = (states * alpha.reshape(alpha.shape[0], alpha.shape[1], 1)).sum(axis=1)
        if return_weights:
            return pooled, alpha
        return pooled
