"""SDEA — the public entry point of the reproduction.

Wires the full pipeline of the paper (Fig. 3):

1. Algorithm 1: build attribute sequences for every entity of both KGs.
2. Substitution for "pre-trained BERT": train a subword tokenizer and
   MLM-pre-train MiniBert on the KGs' attribute-value corpus.
3. Algorithm 2: fine-tune the attribute embedding module with margin
   ranking loss and hard negatives → H_a.
4. Algorithm 3: train the BiGRU-attention relation module and the joint
   MLP over frozen H_a → H_r, H_m.
5. Inference: rank targets by cosine similarity of
   H_ent = [H_r; H_a; H_m] (or H_a alone for "SDEA w/o rel.").

Typical usage::

    pair = build_dataset("dbp15k/zh_en")
    split = pair.split()                      # 2:1:7
    model = SDEA(SDEAConfig())
    model.fit(pair, split)
    result = model.evaluate(split.test)
    print(result.metrics)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..align.evaluator import EvaluationResult, evaluate_embeddings
from ..kg.pair import AlignmentSplit, KGPair, Link
from ..kg.sequences import build_sequences
from ..text.tokenizer import WordPieceTokenizer
from .attribute_module import AttributeEmbeddingModule, prepare_text_encoder
from .config import SDEAConfig
from .numeric import NumericSignature, append_numeric_channel
from .relation_module import NeighborIndex
from .trainer import (
    RelationModel,
    TrainLog,
    pretrain_attribute_module,
    train_relation_model,
)


@dataclass
class FitResult:
    """Diagnostics from a full SDEA fit."""

    mlm_losses: List[float] = field(default_factory=list)
    attribute_log: Optional[TrainLog] = None
    relation_log: Optional[TrainLog] = None


class SDEA:
    """Semantics-Driven entity embedding for Entity Alignment."""

    def __init__(self, config: Optional[SDEAConfig] = None):
        self.config = config or SDEAConfig()
        self.tokenizer: Optional[WordPieceTokenizer] = None
        self.attribute_module: Optional[AttributeEmbeddingModule] = None
        self.relation_model: Optional[RelationModel] = None
        self._attr1: Optional[np.ndarray] = None
        self._attr2: Optional[np.ndarray] = None
        self._numeric1: Optional[np.ndarray] = None
        self._numeric2: Optional[np.ndarray] = None
        self._pair: Optional[KGPair] = None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, pair: KGPair, split: Optional[AlignmentSplit] = None
            ) -> FitResult:
        """Train SDEA on a KG pair with seed alignment.

        Parameters
        ----------
        pair:
            The two KGs plus ground-truth links.
        split:
            Train/valid/test partition of the links; defaults to the
            paper's 2:1:7 split.
        """
        config = self.config
        split = split or pair.split()
        self._pair = pair
        result = FitResult()
        rng = np.random.default_rng(config.seed)

        # Algorithm 1 — attribute sequences with per-KG fixed attr order.
        sequences1 = build_sequences(pair.kg1, np.random.default_rng(config.seed + 11))
        sequences2 = build_sequences(pair.kg2, np.random.default_rng(config.seed + 12))

        # Tokenizer, LSA prior and MLM pre-training (substitute for the
        # downloaded pre-trained BERT — see DESIGN.md).
        prepared = prepare_text_encoder(sequences1, sequences2, config, rng)
        self.tokenizer = prepared.tokenizer
        self.attribute_module = prepared.module
        result.mlm_losses = prepared.mlm_losses

        # Algorithm 2 — attribute module fine-tuning.
        self._attr1, self._attr2, result.attribute_log = pretrain_attribute_module(
            self.attribute_module, prepared.encoder1, prepared.encoder2,
            split.train, split.valid, config,
        )

        # Optional numeric channel (paper's "Remarks" extension).
        if config.numeric_channel:
            signature = NumericSignature(config.numeric_dim,
                                         seed=config.seed + 99)
            self._numeric1 = signature.embed_graph(pair.kg1)
            self._numeric2 = signature.embed_graph(pair.kg2)

        # Algorithm 3 — relation module + joint representation.
        if config.use_relation:
            neighbors1 = NeighborIndex(
                pair.kg1, config.max_neighbors,
                np.random.default_rng(config.seed + 21),
            )
            neighbors2 = NeighborIndex(
                pair.kg2, config.max_neighbors,
                np.random.default_rng(config.seed + 22),
            )
            self.relation_model, result.relation_log = train_relation_model(
                self._attr1, self._attr2, neighbors1, neighbors2,
                split.train, split.valid, config,
            )
        return result

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def embeddings(self, side: int) -> np.ndarray:
        """Final entity embeddings of one KG (1 or 2).

        Full SDEA returns H_ent = [H_r; H_a; H_m]; with
        ``use_relation=False`` ("SDEA w/o rel.") this is H_a alone.
        """
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        if self._attr1 is None:
            raise RuntimeError("fit() must be called before embeddings()")
        if self.config.use_relation:
            assert self.relation_model is not None
            base = self.relation_model.embed_all(side)
        else:
            base = self._attr1 if side == 1 else self._attr2
        if self.config.numeric_channel:
            signatures = self._numeric1 if side == 1 else self._numeric2
            assert signatures is not None
            base = append_numeric_channel(base, signatures,
                                          self.config.numeric_weight)
        return base

    def evaluate(self, links: Sequence[Link],
                 with_stable_matching: bool = False) -> EvaluationResult:
        """Hits@1/Hits@10/MRR on held-out links (optionally + stable H@1)."""
        emb1 = self.embeddings(1)
        emb2 = self.embeddings(2)
        return evaluate_embeddings(emb1, emb2, links,
                                   with_stable_matching=with_stable_matching)

    def attribute_embeddings(self, side: int) -> np.ndarray:
        """The frozen attribute embeddings H_a (for ablations/diagnostics)."""
        if self._attr1 is None:
            raise RuntimeError("fit() must be called before embeddings()")
        return self._attr1 if side == 1 else self._attr2

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, directory) -> None:
        """Write the fitted model to a directory (see core.persistence)."""
        from .persistence import save_model
        save_model(self, directory)

    @classmethod
    def load(cls, directory, pair: KGPair) -> "SDEA":
        """Restore a model saved with :meth:`save` for the same pair."""
        from .persistence import load_model
        return load_model(directory, pair)
