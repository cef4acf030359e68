"""Configuration for the SDEA model and its two training phases."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConstraintError
from ..text.bert import BertConfig


@dataclass
class SDEAConfig:
    """Hyper-parameters for SDEA (paper Section IV + our CPU scale).

    Attributes
    ----------
    bert_dim, bert_heads, bert_layers, bert_ff_dim:
        MiniBert encoder size (BERT-base in the paper).
    max_seq_len:
        Max attribute-sequence length (128 in the paper; smaller here).
    embed_dim:
        Output width of the attribute embedding H_a (the MLP over [CLS]).
    relation_hidden:
        BiGRU hidden width (= H_r width).
    relation_aggregator:
        Neighbor aggregation: 'bigru_attention' (the paper's design),
        'attention_only', 'mean' or 'max' (the alternatives Section III-B
        rejects; compared in bench_aggregators).
    max_neighbors:
        Cap on the neighbor sequence fed to the BiGRU.
    margin:
        β of the margin-based ranking loss (Eq. 18).
    num_candidates:
        Size of GenCandidates' per-entity candidate set (hard negatives).
    attr_epochs / attr_batch_size / attr_lr:
        Algorithm 2 (attribute-module pre-training) settings; paper batch
        size is 8.
    rel_epochs / rel_batch_size / rel_lr:
        Algorithm 3 (relation-module training) settings; paper batch size
        is 256.
    patience:
        Early stopping: stop when validation Hits@1 has not improved for
        this many consecutive validations (5 in the paper).
    vocab_size:
        Subword vocabulary budget for the in-repo tokenizer.
    mlm_epochs:
        MLM pre-training epochs for MiniBert (substitutes the downloaded
        pre-trained BERT).
    pooling:
        Attribute-encoder pooling: 'cls' (strict paper form), 'mean', or
        'cls_mean' (default; see AttributeEmbeddingModule docstring).
    use_relation:
        Ablation switch: False gives "SDEA w/o rel." (H_ent = H_a).
    numeric_channel / numeric_dim / numeric_weight:
        Opt-in numeric-value channel (the paper's Section III-A "handle
        the numeric values separately" direction): appends a weighted
        random-Fourier embedding of each entity's numeric values to the
        final embedding.
    detect_anomaly:
        Run both training phases under the
        :mod:`repro.analysis.anomaly` sanitizer: every op records its
        provenance and the first NaN/Inf in a forward value or backward
        gradient raises with the originating op's stack snippet
        (substitute for ``torch.autograd.set_detect_anomaly``).
    seed:
        Master seed for all RNGs.
    """

    bert_dim: int = 160
    bert_heads: int = 4
    bert_layers: int = 1
    bert_ff_dim: int = 320
    max_seq_len: int = 64
    embed_dim: int = 160
    relation_hidden: int = 96
    relation_aggregator: str = "bigru_attention"
    max_neighbors: int = 12
    margin: float = 1.0
    num_candidates: int = 10
    attr_epochs: int = 14
    attr_batch_size: int = 8
    attr_lr: float = 1e-3
    rel_epochs: int = 30
    rel_batch_size: int = 32
    rel_lr: float = 1e-3
    patience: int = 5
    dropout: float = 0.1
    vocab_size: int = 2400
    mlm_epochs: int = 2
    mlm_lr: float = 1e-3
    pooling: str = "cls_mean"
    use_relation: bool = True
    numeric_channel: bool = False
    numeric_dim: int = 32
    numeric_weight: float = 0.3
    detect_anomaly: bool = False
    seed: int = 17

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Fail fast on dimension-contract violations.

        Checks the sizes and choices the trainer wires together at
        construction time, so a mis-sized config dies here with a
        message naming the field instead of deep inside a matmul after
        minutes of BERT pre-training.

        Raises
        ------
        ConstraintError
            Listing every violated constraint.
        """
        sizes = ("bert_dim", "bert_heads", "bert_layers", "bert_ff_dim",
                 "max_seq_len", "embed_dim", "relation_hidden",
                 "max_neighbors", "vocab_size")
        errors = [f"{name} = {getattr(self, name)} must be positive"
                  for name in sizes if getattr(self, name) <= 0]
        if self.bert_heads <= 0 or self.bert_dim % self.bert_heads:
            errors.append(
                f"bert_heads = {self.bert_heads} does not divide bert_dim = "
                f"{self.bert_dim} (multi-head attention splits bert_dim "
                "across heads)")
        for name, options in (
                ("pooling", ("cls", "mean", "cls_mean")),
                ("relation_aggregator",
                 ("bigru_attention", "attention_only", "mean", "max"))):
            if getattr(self, name) not in options:
                errors.append(f"{getattr(self, name)!r} is not one of "
                              f"{list(options)} ({name})")
        if not 0.0 <= self.dropout < 1.0:
            errors.append(f"dropout = {self.dropout} must be in [0, 1)")
        if self.margin <= 0.0:
            errors.append(f"margin = {self.margin} must be positive")
        if self.numeric_channel and self.numeric_dim <= 0:
            errors.append(f"numeric_dim = {self.numeric_dim} must be "
                          "positive when numeric_channel is enabled")
        if errors:
            details = "\n".join(f"  - {e}" for e in errors)
            raise ConstraintError(
                f"invalid SDEAConfig:\n{details}")

    def entity_dim(self) -> int:
        """Width of the final entity embedding ``[h_r; h_a; h_m]``.

        ``relation_hidden + 2 * embed_dim`` with the relation module on
        (h_m is the joint output, wired to ``embed_dim``); ``embed_dim``
        alone for the "w/o rel." ablation.  The numeric channel, when
        enabled, appends ``numeric_dim`` more at inference time.
        """
        if not self.use_relation:
            base = self.embed_dim
        else:
            base = self.relation_hidden + 2 * self.embed_dim
        if self.numeric_channel:
            base += self.numeric_dim
        return base

    def bert_config(self, vocab_size: int) -> BertConfig:
        """Instantiate the MiniBert config for a trained vocabulary."""
        return BertConfig(
            vocab_size=vocab_size,
            dim=self.bert_dim,
            num_heads=self.bert_heads,
            ff_dim=self.bert_ff_dim,
            num_layers=self.bert_layers,
            max_len=self.max_seq_len,
            dropout=self.dropout,
        )
