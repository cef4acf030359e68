"""Transformer encoder blocks (the BERT-style backbone).

Pre-LN is deliberately *not* used: the original BERT uses post-LN residual
blocks, and the attribute-embedding module of SDEA fine-tunes a BERT
encoder, so we follow the same block structure at a smaller scale.

The blocks take the real tokens' ``(N, D)`` rows plus their
:class:`~repro.nn.attention.TokenLayout`: every position-wise layer is
one 2-D product over the N rows, and only attention sees the padded
grid.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .attention import MultiHeadSelfAttention, TokenLayout
from .layers import Dropout, LayerNorm, Linear
from .module import Module, ModuleList
from .spec import shape_spec
from .tensor import Tensor


class TransformerEncoderLayer(Module):
    """One post-LN transformer block: self-attention + feed-forward."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.attention = MultiHeadSelfAttention(dim, num_heads, rng, dropout)
        self.norm1 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng)
        self.ff2 = Linear(ff_dim, dim, rng)
        self.norm2 = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    @shape_spec(x="n attention.dim", returns="n attention.dim")
    def forward(self, x: Tensor, layout: TokenLayout) -> Tensor:
        attended = self.attention(x, layout)
        if self.dropout is not None:
            attended = self.dropout(attended)
        x = self.norm1(x + attended)
        ff = self.ff2(F.gelu(self.ff1(x)))
        if self.dropout is not None:
            ff = self.dropout(ff)
        return self.norm2(x + ff)


class TransformerEncoder(Module):
    """Stack of encoder layers."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int, num_layers: int,
                 rng: np.random.Generator, dropout: float = 0.0):
        super().__init__()
        self.layers = ModuleList(
            TransformerEncoderLayer(dim, num_heads, ff_dim, rng, dropout)
            for _ in range(num_layers)
        )

    @shape_spec(x="n d", returns="n d")
    def forward(self, x: Tensor, layout: TokenLayout) -> Tensor:
        out = x
        for layer in self.layers:
            out = layer(out, layout)
        return out
