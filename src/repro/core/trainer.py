"""SDEA training procedures (paper Algorithms 2 and 3).

Two phases, matching the paper's separation ("we separate the training of
the attribute embedding module ... because fine-tuning the transformer
model consumes much GPU memory"):

1. :func:`pretrain_attribute_module` — fine-tune MiniBert + head with the
   margin ranking loss over hard negatives from GenCandidates, early
   stopping on validation Hits@1 (Algorithm 2).
2. :func:`train_relation_model` — with attribute embeddings frozen, train
   the BiGRU-attention relation module and the joint MLP, the loss taken
   over ``[H_r; H_m]`` (Algorithm 3).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..align.evaluator import similarity_for_links
from ..align.metrics import evaluate_similarity
from ..analysis.anomaly import detect_anomaly
from ..kg.pair import Link
from ..nn import Adam, BestCheckpoint, Tensor, clip_grad_norm, no_grad
from ..obs import metrics, telemetry, trace
from .attribute_module import AttributeEmbeddingModule, SequenceEncoder, encode_all
from .candidates import gen_candidates, sample_negatives
from .config import SDEAConfig
from .joint import JointRepresentation, final_embedding, training_embedding
from .losses import triplet_margin_loss
from .relation_module import (
    NeighborIndex,
    RelationEmbeddingModule,
    gather_neighbor_embeddings,
)


@dataclass
class TrainLog:
    """Per-epoch diagnostics collected during a training phase.

    ``losses`` / ``valid_hits1`` / ``stopped_epoch`` are the original API;
    ``epoch_seconds`` and ``learning_rates`` record per-epoch wall time and
    the optimiser's learning rate at the end of each epoch.  Each record
    call emits one telemetry event, from which the active metrics
    registry derives its ``trainer.*`` series (see
    :data:`repro.obs.telemetry.DERIVED`).
    """

    losses: List[float] = field(default_factory=list)
    valid_hits1: List[float] = field(default_factory=list)
    stopped_epoch: int = -1
    epoch_seconds: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    def record_epoch(self, phase: str, epoch: int, loss: float,
                     seconds: float, lr: float,
                     grad_norm: Optional[float]) -> None:
        """Append one epoch's loss/time/lr and emit its ``epoch`` event.

        ``grad_norm`` is the epoch's last pre-clipping gradient norm,
        ``None`` when the epoch ran no batch.
        """
        self.losses.append(loss)
        self.epoch_seconds.append(seconds)
        self.learning_rates.append(lr)
        telemetry.emit("epoch", phase=phase, epoch=epoch, loss=loss,
                       seconds=seconds, lr=lr, grad_norm=grad_norm)

    def record_validation(self, phase: str, epoch: int, hits1: float) -> None:
        self.valid_hits1.append(hits1)
        telemetry.emit("validation", phase=phase, epoch=epoch, hits1=hits1)


def _batched(indices: np.ndarray, batch_size: int):
    for start in range(0, len(indices), batch_size):
        yield indices[start:start + batch_size]


def _anomaly_context(config: SDEAConfig):
    """The NaN/Inf sanitizer when ``config.detect_anomaly``, else a no-op."""
    return detect_anomaly() if config.detect_anomaly else nullcontext()


def pretrain_attribute_module(
    module: AttributeEmbeddingModule,
    encoder1: SequenceEncoder,
    encoder2: SequenceEncoder,
    train_links: Sequence[Link],
    valid_links: Sequence[Link],
    config: SDEAConfig,
) -> Tuple[np.ndarray, np.ndarray, TrainLog]:
    """Algorithm 2 — fine-tune the attribute module on seed alignment.

    Returns the final (best-checkpoint) attribute embeddings of both KGs
    and the training log.  Each epoch after the first draws its candidates
    from the previous epoch's validation encode: nothing changes the
    parameters in between (``BestCheckpoint.update`` only copies them).
    Without validation links every epoch runs and the last epoch's
    parameters are kept; no epoch is scored.
    """
    rng = np.random.default_rng(config.seed + 1)
    optimizer = Adam(module.parameters(), lr=config.attr_lr)
    checkpoint = BestCheckpoint(module)
    log = TrainLog()
    train_links = list(train_links)
    sources = np.array([e1 for e1, _ in train_links], dtype=int)
    positives = np.array([e2 for _, e2 in train_links], dtype=int)
    bad_rounds = 0

    for epoch in range(config.attr_epochs):
        epoch_start = time.perf_counter()
        with trace.span("attr_pretrain/epoch", epoch=epoch), \
                _anomaly_context(config):
            # Lines 2–4: refresh embeddings and candidate sets.
            if epoch == 0:
                with trace.span("encode"):
                    h1 = encode_all(module, encoder1)
                    h2 = encode_all(module, encoder2)
            with trace.span("candidates"):
                candidates = gen_candidates(h1, h2, k=config.num_candidates)
                negatives = sample_negatives(candidates, sources, positives,
                                             rng)

            # Lines 5–10: margin-loss updates over the training pairs.
            module.train()
            order = rng.permutation(len(train_links))
            epoch_losses = []
            grad_norm = None
            batch_hist = metrics.histogram("trainer.batch_seconds")
            for batch_idx in _batched(order, config.attr_batch_size):
                batch_start = time.perf_counter()
                with trace.span("batch"):
                    batch_src = sources[batch_idx]
                    batch_pos = positives[batch_idx]
                    batch_neg = negatives[batch_idx]
                    ids_a, mask_a = encoder1.batch(batch_src)
                    ids_p, mask_p = encoder2.batch(batch_pos)
                    ids_n, mask_n = encoder2.batch(batch_neg)
                    anchor = module(ids_a, mask_a)
                    positive = module(ids_p, mask_p)
                    negative = module(ids_n, mask_n)
                    loss = triplet_margin_loss(anchor, positive, negative,
                                               config.margin)
                    optimizer.zero_grad()
                    loss.backward()
                    grad_norm = clip_grad_norm(module.parameters(), 5.0)
                    optimizer.step()
                    epoch_losses.append(loss.item())
                batch_hist.observe(time.perf_counter() - batch_start,
                                   phase="attr")
            # Line 11: validation with early stopping on Hits@1.
            with trace.span("validate"):
                h1 = encode_all(module, encoder1)
                h2 = encode_all(module, encoder2)
                if valid_links:
                    hits1 = _validation_hits1(h1, h2, valid_links)
            log.record_epoch(
                "attr", epoch,
                float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                time.perf_counter() - epoch_start, optimizer.lr, grad_norm,
            )
            if valid_links:
                log.record_validation("attr", epoch, hits1)
        if not valid_links:
            continue  # no score to keep a checkpoint or stop early on
        if checkpoint.update(hits1):
            bad_rounds = 0
        else:
            bad_rounds += 1
            if bad_rounds >= config.patience:
                log.stopped_epoch = epoch
                telemetry.emit("early_stop", phase="attr", epoch=epoch,
                               best_hits1=max(log.valid_hits1))
                break

    # Encoded again even when the last epoch is the best: e2ebench's
    # tracer reads a run's last two encode_all calls as this final encode.
    checkpoint.restore()
    module.eval()
    h1 = encode_all(module, encoder1)
    h2 = encode_all(module, encoder2)
    return h1, h2, log


@dataclass
class RelationModel:
    """The trained Alg.-3 components plus frozen attribute embeddings."""

    relation_module: RelationEmbeddingModule
    joint: JointRepresentation
    attr1: np.ndarray
    attr2: np.ndarray
    neighbors1: NeighborIndex
    neighbors2: NeighborIndex

    def embed_entities(self, side: int, entity_ids: Sequence[int]) -> np.ndarray:
        """Final H_ent = [H_r; H_a; H_m] for entities of one KG (no grad)."""
        attrs = self.attr1 if side == 1 else self.attr2
        neighbors = self.neighbors1 if side == 1 else self.neighbors2
        ids, mask, lengths = neighbors.batch(entity_ids)
        with no_grad():
            self.relation_module.eval()
            self.joint.eval()
            x = gather_neighbor_embeddings(attrs, ids)
            h_r = self.relation_module(x, mask, lengths)
            h_a = Tensor(attrs[np.asarray(entity_ids, dtype=int)])
            h_m = self.joint(h_a, h_r)
            return final_embedding(h_r, h_a, h_m).numpy()

    def embed_all(self, side: int, batch_size: int = 256) -> np.ndarray:
        """H_ent for every entity of one KG."""
        attrs = self.attr1 if side == 1 else self.attr2
        rows = []
        for start in range(0, len(attrs), batch_size):
            ids = np.arange(start, min(start + batch_size, len(attrs)))
            rows.append(self.embed_entities(side, ids))
        return np.concatenate(rows, axis=0)


def train_relation_model(
    attr1: np.ndarray,
    attr2: np.ndarray,
    neighbors1: NeighborIndex,
    neighbors2: NeighborIndex,
    train_links: Sequence[Link],
    valid_links: Sequence[Link],
    config: SDEAConfig,
) -> Tuple[RelationModel, TrainLog]:
    """Algorithm 3 — train relation module + joint MLP over frozen H_a."""
    rng = np.random.default_rng(config.seed + 2)
    relation_module = RelationEmbeddingModule(
        attr1.shape[1], config.relation_hidden, rng,
        aggregator=config.relation_aggregator,
    )
    joint = JointRepresentation(
        attr1.shape[1], config.relation_hidden, config.embed_dim, rng
    )
    model = RelationModel(
        relation_module=relation_module, joint=joint,
        attr1=attr1, attr2=attr2,
        neighbors1=neighbors1, neighbors2=neighbors2,
    )
    parameters = list(relation_module.parameters()) + list(joint.parameters())
    optimizer = Adam(parameters, lr=config.rel_lr)
    log = TrainLog()
    train_links = list(train_links)
    sources = np.array([e1 for e1, _ in train_links], dtype=int)
    positives = np.array([e2 for _, e2 in train_links], dtype=int)

    # Line 1: candidates from the *pre-trained attribute* embeddings, once.
    with trace.span("rel_train/candidates"):
        candidates = gen_candidates(attr1, attr2, k=config.num_candidates)

    def forward_side(side: int, entity_ids: np.ndarray):
        attrs = attr1 if side == 1 else attr2
        neighbors = neighbors1 if side == 1 else neighbors2
        ids, mask, lengths = neighbors.batch(entity_ids)
        x = gather_neighbor_embeddings(attrs, ids)
        h_r = relation_module(x, mask, lengths)
        h_a = Tensor(attrs[entity_ids])
        h_m = joint(h_a, h_r)
        return training_embedding(h_r, h_m)

    checkpoint_rel = BestCheckpoint(relation_module)
    checkpoint_joint = BestCheckpoint(joint)
    bad_rounds = 0
    for epoch in range(config.rel_epochs):
        epoch_start = time.perf_counter()
        with trace.span("rel_train/epoch", epoch=epoch), \
                _anomaly_context(config):
            negatives = sample_negatives(candidates, sources, positives, rng)
            relation_module.train()
            joint.train()
            order = rng.permutation(len(train_links))
            epoch_losses = []
            grad_norm = None
            batch_hist = metrics.histogram("trainer.batch_seconds")
            for batch_idx in _batched(order, config.rel_batch_size):
                batch_start = time.perf_counter()
                with trace.span("batch"):
                    anchor = forward_side(1, sources[batch_idx])
                    positive = forward_side(2, positives[batch_idx])
                    negative = forward_side(2, negatives[batch_idx])
                    loss = triplet_margin_loss(anchor, positive, negative,
                                               config.margin)
                    optimizer.zero_grad()
                    loss.backward()
                    grad_norm = clip_grad_norm(parameters, 5.0)
                    optimizer.step()
                    epoch_losses.append(loss.item())
                batch_hist.observe(time.perf_counter() - batch_start,
                                   phase="rel")
            # Line 12: validate with the full H_ent embeddings.
            with trace.span("validate"):
                if valid_links:
                    v_src = np.array([e1 for e1, _ in valid_links], dtype=int)
                    v_tgt = np.array([e2 for _, e2 in valid_links], dtype=int)
                    emb1 = model.embed_entities(1, v_src)
                    emb2 = model.embed_entities(2, v_tgt)
                    hits1 = _validation_hits1(
                        emb1, emb2, [(i, i) for i in range(len(emb1))])
                else:
                    hits1 = (-float(np.mean(epoch_losses))
                             if epoch_losses else 0.0)
            log.record_epoch(
                "rel", epoch,
                float(np.mean(epoch_losses)) if epoch_losses else 0.0,
                time.perf_counter() - epoch_start, optimizer.lr, grad_norm,
            )
            log.record_validation("rel", epoch, hits1)
        improved = checkpoint_rel.update(hits1)
        checkpoint_joint.update(hits1)
        if improved:
            bad_rounds = 0
        else:
            bad_rounds += 1
            if bad_rounds >= config.patience:
                log.stopped_epoch = epoch
                telemetry.emit("early_stop", phase="rel", epoch=epoch,
                               best_hits1=max(log.valid_hits1))
                break

    checkpoint_rel.restore()
    checkpoint_joint.restore()
    relation_module.eval()
    joint.eval()
    return model, log


def _validation_hits1(h1: np.ndarray, h2: np.ndarray,
                      links: Sequence[Link]) -> float:
    """Hits@1 of the validation links.  Ranked without
    ``evaluate_embeddings``, whose ``eval`` event marks a test ranking;
    the caller's ``validation`` event carries this score."""
    similarity, targets = similarity_for_links(h1, h2, links)
    return evaluate_similarity(similarity, targets).hits_at_1
