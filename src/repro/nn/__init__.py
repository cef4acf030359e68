"""Numpy-backed neural-network substrate (autograd, layers, optimisers).

Substitutes for PyTorch in this reproduction: reverse-mode autodiff over
numpy arrays with the layers the SDEA models need (Linear, Embedding,
LayerNorm, multi-head attention, BiGRU, transformer encoder) and Adam/SGD
optimisers.
"""

from . import functional, kernels
from .attention import GlobalAttentionPooling, MultiHeadSelfAttention, \
    TokenLayout
from .layers import MLP, Dropout, Embedding, LayerNorm, Linear
from .module import Module, ModuleList, Parameter
from .optim import Adam, LinearWarmupSchedule, SGD, clip_grad_norm
from .rnn import BiGRU, GRU, GRUCell
from .serialization import BestCheckpoint, load_state, save_state
from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    concatenate,
    default_dtype,
    get_default_dtype,
    no_grad,
    ones,
    stack,
    where,
    zeros,
)
from .transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "functional", "kernels",
    "Tensor", "no_grad", "concatenate", "stack", "where", "zeros", "ones",
    "DEFAULT_DTYPE", "default_dtype", "get_default_dtype",
    "Module", "ModuleList", "Parameter",
    "Linear", "Embedding", "LayerNorm", "Dropout", "MLP",
    "MultiHeadSelfAttention", "GlobalAttentionPooling", "TokenLayout",
    "GRUCell", "GRU", "BiGRU",
    "TransformerEncoder", "TransformerEncoderLayer",
    "SGD", "Adam", "clip_grad_norm", "LinearWarmupSchedule",
    "save_state", "load_state", "BestCheckpoint",
]
