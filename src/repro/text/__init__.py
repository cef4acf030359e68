"""Language-model substrate: tokenizer, MiniBert, MLM pre-training.

Replaces HuggingFace Transformers in this reproduction (see DESIGN.md
substitution table).
"""

from .bert import BertConfig, BertForMaskedLM, MiniBert, SequenceEncoder
from .pretrain import (
    IGNORE_INDEX,
    PretrainConfig,
    build_pretrained_bert,
    mask_tokens,
    pretrain_mlm,
)
from .tokenizer import WordPieceTokenizer, normalize, pretokenize
from .vocab import (
    CLS_TOKEN,
    MASK_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    Vocab,
)

__all__ = [
    "Vocab", "SPECIAL_TOKENS",
    "PAD_TOKEN", "UNK_TOKEN", "CLS_TOKEN", "SEP_TOKEN", "MASK_TOKEN",
    "WordPieceTokenizer", "normalize", "pretokenize",
    "BertConfig", "MiniBert", "BertForMaskedLM", "SequenceEncoder",
    "PretrainConfig", "pretrain_mlm", "mask_tokens", "build_pretrained_bert",
    "IGNORE_INDEX",
]
