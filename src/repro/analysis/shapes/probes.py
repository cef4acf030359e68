"""Per-method abstract-execution probes for ``repro shape-check``.

Each probe builds the real model classes of one registered method at
tiny witness sizes and drives their forwards under a
:class:`~.abstract.SymbolicTrace` — the same ``Module.forward`` code
that trains on real data executes here on zero-FLOP abstract tensors,
so every shape contract (broadcasts, matmul contractions, concat
widths, reductions) is checked statically, in milliseconds, without a
dataset.

Witness-size discipline: symbolic atoms use distinct small odd primes
(B=3 guarded, T=5, H_a=11, H_r=13, H_m=17, N=19, N2=23) and every plain
hyper-parameter in a probe is a power of two (1/2/4/8/16/32), so
``ShapeEnv.resymbolize`` maps sizes back to atoms unambiguously.

Probes assert their method's output contracts via ``ctx.expect*`` and
record findings on the active trace; unexpected exceptions are turned
into probe-error findings by the interpreter.  Model imports live
*inside* each probe so this module stays importable while ``repro.nn``
/ ``repro.core`` initialize (the spec decorator is imported from
``nn.layers``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from .abstract import AbstractTensor, current_trace, lift_tensor
from .dims import ShapeEnv

__all__ = ["PROBES", "ProbeContext", "probe"]

PROBES: Dict[str, Callable[["ProbeContext"], None]] = {}


def probe(*names: str):
    """Register one probe function for one or more method names."""

    def register(fn):
        for name in names:
            PROBES[name] = fn
        return fn

    return register


class ProbeContext:
    """Symbolic environment + helpers shared by all probes."""

    def __init__(self):
        self.env = ShapeEnv()
        self.B = self.env.dim("B", 3, guard_broadcast=True)   # batch
        self.T = self.env.dim("T", 5)                         # seq/neighbors
        self.H_a = self.env.dim("H_a", 11)                    # attr width
        self.H_r = self.env.dim("H_r", 13)                    # relation width
        self.H_m = self.env.dim("H_m", 17)                    # joint width
        self.N = self.env.dim("N", 19)                        # KG1 entities
        self.N2 = self.env.dim("N2", 23)                      # KG2 entities
        self.rng = np.random.default_rng(0)

    # ---------------- inputs ------------------------------------------ #
    def input(self, *sym, requires_grad: bool = False,
              dtype=None) -> AbstractTensor:
        return AbstractTensor(sym, dtype, requires_grad=requires_grad)

    def ids(self, *sym, high: int) -> np.ndarray:
        """Concrete integer-id array with witness-sized axes."""
        shape = tuple(int(e) for e in sym)
        return self.rng.integers(high, size=shape)

    def mask(self, *sym) -> np.ndarray:
        return np.ones(tuple(int(e) for e in sym), dtype=bool)

    def lift(self, tensor) -> AbstractTensor:
        return lift_tensor(tensor, self.env)

    # ---------------- expectations ------------------------------------ #
    def _record(self, kind: str, message: str) -> None:
        trace = current_trace()
        if trace is not None:
            trace.record(kind, "probe", message)

    def expect(self, tensor, *sym) -> None:
        """Assert a tensor's witness shape matches the expected one."""
        shape = getattr(tensor, "shape", None)
        expected = tuple(int(e) for e in sym)
        actual = None if shape is None else tuple(int(e) for e in shape)
        if actual != expected:
            want = "(" + ", ".join(repr(e) for e in sym) + ")"
            self._record(
                "mismatch",
                f"expected output shape {want}, got "
                f"{tuple(shape) if shape is not None else type(tensor)}",
            )

    def expect_scalar(self, tensor) -> None:
        self.expect(tensor)

    def expect_grad(self, tensor) -> None:
        if not getattr(tensor, "requires_grad", False):
            self._record(
                "grad",
                "loss does not require grad — the backward pass would be "
                "a silent no-op for this method's parameters",
            )


# ---------------------------------------------------------------------- #
# Translation-embedding family
# ---------------------------------------------------------------------- #
@probe("mtranse", "jape-stru", "jape", "bootea")
def probe_transe(ctx: ProbeContext) -> None:
    from ...baselines.transe import _TransEModel
    from ...nn import functional as F

    model = _TransEModel(32, 4, 8, ctx.rng)
    heads = ctx.ids(ctx.B, high=32)
    rels = ctx.ids(ctx.B, high=4)
    tails = ctx.ids(ctx.B, high=32)
    pos = model(heads, rels, tails)
    ctx.expect(pos, ctx.B)
    neg = model(ctx.ids(ctx.B, high=32), rels, tails)
    loss = F.margin_ranking_loss(pos, neg, 1.0)
    # Seed-alignment pull term over the same table.
    h1 = model.entities(ctx.ids(ctx.B, high=32))
    h2 = model.entities(ctx.ids(ctx.B, high=32))
    loss = loss + 5.0 * F.l2_distance(h1, h2).mean()
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("transedge")
def probe_transedge(ctx: ProbeContext) -> None:
    from ...baselines.transe_variants import TransEdge
    from ...nn import functional as F

    model = TransEdge()
    model._build(None, 32, 4, ctx.rng)  # pair is unused by this _build
    pos = model._score(ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
                       ctx.ids(ctx.B, high=32))
    ctx.expect(pos, ctx.B)
    neg = model._score(ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
                       ctx.ids(ctx.B, high=32))
    loss = F.margin_ranking_loss(pos, neg, model.config.margin)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("naea")
def probe_naea(ctx: ProbeContext) -> None:
    from ...baselines.transe_variants import NAEA
    from ...nn import Embedding, Linear

    model = NAEA()
    # _build needs a KGPair for the neighbor tables; fabricate them at
    # witness sizes instead so _represent/_score run abstractly.
    model._entities = Embedding(32, 8, ctx.rng, std=0.1)
    model._relations = Embedding(4, 8, ctx.rng, std=0.1)
    model._attention = Linear(8, 1, ctx.rng)
    model._neighbor_ids = ctx.ids(32, ctx.T, high=32)
    model._neighbor_rels = ctx.ids(32, ctx.T, high=4)
    model._neighbor_mask = ctx.mask(32, ctx.T)
    score = model._score(ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
                         ctx.ids(ctx.B, high=32))
    ctx.expect(score, ctx.B)
    ctx.expect_grad(score)


@probe("iptranse")
def probe_iptranse(ctx: ProbeContext) -> None:
    from ...baselines.transe_variants import IPTransE
    from ...nn import Embedding

    model = IPTransE()
    model._entities = Embedding(32, 8, ctx.rng, std=0.1)
    model._relations = Embedding(4, 8, ctx.rng, std=0.1)
    model._paths = np.stack(
        [ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
         ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
         ctx.ids(ctx.B, high=32)], axis=1,
    )
    score = model._score(ctx.ids(ctx.B, high=32), ctx.ids(ctx.B, high=4),
                         ctx.ids(ctx.B, high=32))
    ctx.expect(score, ctx.B)
    extra = model._extra_loss(ctx.rng, 32)
    ctx.expect_scalar(extra)
    ctx.expect_grad(extra)


@probe("rsn-lite")
def probe_rsn(ctx: ProbeContext) -> None:
    from ...baselines.rsn import _PathModel
    from ...nn import functional as F

    model = _PathModel(32, 8, ctx.rng)
    context = model.context(ctx.ids(ctx.B, ctx.T, high=32))
    ctx.expect(context, ctx.B, 8)
    positive = model.entities(ctx.ids(ctx.B, high=32))
    negative = model.entities(ctx.ids(ctx.B, high=32))
    loss = F.margin_ranking_loss(F.l2_distance(context, positive),
                                 F.l2_distance(context, negative), 1.0)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


# ---------------------------------------------------------------------- #
# Graph-convolution family
# ---------------------------------------------------------------------- #
def _gcn_pair_loss(ctx: ProbeContext, h1, h2):
    from ...nn import functional as F

    src = ctx.ids(ctx.B, high=int(ctx.N))
    tgt = ctx.ids(ctx.B, high=int(ctx.N2))
    pos_d = F.l2_distance(h1[src], h2[tgt])
    neg_d = F.l2_distance(h1[src], h2[ctx.ids(ctx.B, high=int(ctx.N2))])
    return pos_d.mean() + F.margin_ranking_loss(pos_d, neg_d, 1.0)


@probe("gcn", "gcn-align", "cea")
def probe_gcn(ctx: ProbeContext) -> None:
    from ...baselines.gcn import _SharedGCN

    model = _SharedGCN(int(ctx.N), int(ctx.N2), 8, 2, ctx.rng)
    h1 = model.encode(1, np.eye(int(ctx.N)))
    h2 = model.encode(2, np.eye(int(ctx.N2)))
    ctx.expect(h1, ctx.N, 8)
    ctx.expect(h2, ctx.N2, 8)
    loss = _gcn_pair_loss(ctx, h1, h2)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("gat-align")
def probe_gat(ctx: ProbeContext) -> None:
    from ...baselines.gat import _GATLayer
    from ...nn import Parameter

    layers = [_GATLayer(8, ctx.rng, activate=True),
              _GATLayer(8, ctx.rng, activate=False)]
    mask1 = ctx.mask(ctx.N, ctx.N)
    mask2 = ctx.mask(ctx.N2, ctx.N2)
    feat1 = ctx.lift(Parameter(ctx.rng.normal(0.0, 0.1, size=(int(ctx.N), 8))))
    feat2 = ctx.lift(Parameter(ctx.rng.normal(0.0, 0.1, size=(int(ctx.N2), 8))))
    h1, h2 = feat1, feat2
    for layer in layers:
        h1 = layer(h1, mask1)
        h2 = layer(h2, mask2)
    ctx.expect(h1, ctx.N, 8)
    ctx.expect(h2, ctx.N2, 8)
    loss = _gcn_pair_loss(ctx, h1, h2)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("kecg")
def probe_kecg(ctx: ProbeContext) -> None:
    from ...baselines.gat import _NEG_INF
    from ...nn import Embedding, Linear, Parameter, Tensor
    from ...nn import functional as F

    # Mirrors the gat() closure KECG.fit builds inline (Embedding front
    # end + shared projection + additive attention scores).
    entities = Embedding(int(ctx.N) + int(ctx.N2), 8, ctx.rng, std=0.1)
    relations = Embedding(4, 8, ctx.rng, std=0.1)
    proj = Linear(8, 8, ctx.rng, bias=False)
    attn_src = Parameter(ctx.rng.normal(0.0, 0.1, size=(8,)))
    attn_dst = Parameter(ctx.rng.normal(0.0, 0.1, size=(8,)))

    def gat(ids_range, adjacency_mask):
        hidden = entities(ids_range)
        projected = proj(hidden)
        n = projected.shape[0]
        scores = (projected @ attn_src).reshape(n, 1) + \
            (projected @ attn_dst).reshape(1, n)
        scores = scores.relu() - (-scores).relu() * 0.2
        bias = np.where(adjacency_mask, 0.0, _NEG_INF)
        alpha = F.softmax(scores + Tensor(bias), axis=-1)
        return alpha @ projected

    h1 = gat(np.arange(int(ctx.N)), ctx.mask(ctx.N, ctx.N))
    h2 = gat(np.arange(int(ctx.N2)) + int(ctx.N), ctx.mask(ctx.N2, ctx.N2))
    ctx.expect(h1, ctx.N, 8)
    ctx.expect(h2, ctx.N2, 8)
    loss = _gcn_pair_loss(ctx, h1, h2)
    # TransE side loss over the merged table.
    total = int(ctx.N) + int(ctx.N2)
    pos = F.l2_distance(entities(ctx.ids(ctx.B, high=total))
                        + relations(ctx.ids(ctx.B, high=4)),
                        entities(ctx.ids(ctx.B, high=total)))
    loss = loss + pos.mean()
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("hman")
def probe_hman(ctx: ProbeContext) -> None:
    from ...nn import Linear, Parameter, Tensor
    from ...nn import functional as F

    # Mirrors the encode() closure HMAN.fit builds inline: two GCN
    # convolutions plus relation/attribute profile aspects concatenated.
    conv1 = Linear(8, 8, ctx.rng)
    conv2 = Linear(8, 8, ctx.rng)
    rel_fnn = Linear(4, 2, ctx.rng)
    attr_fnn = Linear(4, 2, ctx.rng)

    def encode(n_atom):
        n = int(n_atom)
        features = ctx.lift(Parameter(ctx.rng.normal(0.0, 0.1, size=(n, 8))))
        adj = Tensor(np.eye(n))
        hidden = conv1(adj @ features).relu()
        hidden = conv2(adj @ hidden)
        rel_aspect = rel_fnn(Tensor(ctx.rng.random((n, 4)))).tanh()
        attr_aspect = attr_fnn(Tensor(ctx.rng.random((n, 4)))).tanh()
        return F.concatenate([hidden, rel_aspect, attr_aspect], axis=-1)

    h1 = encode(ctx.N)
    h2 = encode(ctx.N2)
    ctx.expect(h1, ctx.N, 12)
    ctx.expect(h2, ctx.N2, 12)
    loss = _gcn_pair_loss(ctx, h1, h2)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("rdgcn", "hgcn")
def probe_highway_gcn(ctx: ProbeContext) -> None:
    from ...baselines.rdgcn import _HighwayGCN
    from ...nn import Parameter

    model = _HighwayGCN(8, 2, ctx.rng)
    feat1 = ctx.lift(Parameter(ctx.rng.normal(0.0, 0.1, size=(int(ctx.N), 8))))
    feat2 = ctx.lift(Parameter(ctx.rng.normal(0.0, 0.1, size=(int(ctx.N2), 8))))
    h1 = model(feat1, np.eye(int(ctx.N)))
    h2 = model(feat2, np.eye(int(ctx.N2)))
    ctx.expect(h1, ctx.N, 8)
    ctx.expect(h2, ctx.N2, 8)
    loss = _gcn_pair_loss(ctx, h1, h2)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


# ---------------------------------------------------------------------- #
# SDEA core modules (+ the BERT-interaction baseline built on them)
# ---------------------------------------------------------------------- #
def _attribute_module(ctx: ProbeContext):
    from ...core.attribute_module import AttributeEmbeddingModule
    from ...text.bert import BertConfig, MiniBert

    config = BertConfig(vocab_size=32, dim=16, num_heads=2, ff_dim=32,
                        num_layers=1, max_len=8, dropout=0.0)
    bert = MiniBert(config, ctx.rng)
    module = AttributeEmbeddingModule(bert, int(ctx.H_a), ctx.rng,
                                      pooling="cls_mean", idf=None)
    ids = ctx.ids(ctx.B, ctx.T, high=32)
    mask = ctx.mask(ctx.B, ctx.T)
    h_a = module(ids, mask)
    ctx.expect(h_a, ctx.B, ctx.H_a)
    ctx.expect_grad(h_a)
    return h_a


@probe("bert-int")
def probe_bert_int(ctx: ProbeContext) -> None:
    from ...nn import functional as F

    h_a = _attribute_module(ctx)
    # Interaction similarity + margin fine-tuning over the embeddings.
    sim = F.cosine_similarity(h_a, h_a.detach())
    ctx.expect(sim, ctx.B)
    loss = F.margin_ranking_loss(F.l2_distance(h_a, h_a.detach()),
                                 F.l2_distance(h_a, h_a.detach()), 1.0)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


def _relation_module(ctx: ProbeContext, aggregator: str):
    from ...core.relation_module import RelationEmbeddingModule

    module = RelationEmbeddingModule(int(ctx.H_a), int(ctx.H_r), ctx.rng,
                                     aggregator=aggregator)
    # Neighbor attribute embeddings are frozen inputs during Algorithm 3.
    neighbors = ctx.input(ctx.B, ctx.T, ctx.H_a)
    mask = ctx.mask(ctx.B, ctx.T)
    lengths = np.full(int(ctx.B), int(ctx.T))
    h_r = module(neighbors, mask, lengths)
    ctx.expect(h_r, ctx.B, ctx.H_r)
    ctx.expect_grad(h_r)
    return h_r


@probe("sdea")
def probe_sdea(ctx: ProbeContext) -> None:
    from ...core import losses
    from ...core.joint import JointRepresentation, final_embedding, \
        training_embedding

    h_a = _attribute_module(ctx)
    for aggregator in ("attention_only", "mean", "max"):
        _relation_module(ctx, aggregator)
    h_r = _relation_module(ctx, "bigru_attention")

    joint = JointRepresentation(int(ctx.H_a), int(ctx.H_r), int(ctx.H_m),
                                ctx.rng)
    h_m = joint(h_a, h_r)
    ctx.expect(h_m, ctx.B, ctx.H_m)
    ent = final_embedding(h_r, h_a, h_m)
    ctx.expect(ent, ctx.B, ctx.H_r + ctx.H_a + ctx.H_m)
    train = training_embedding(h_r, h_m)
    ctx.expect(train, ctx.B, ctx.H_r + ctx.H_m)

    perm = np.arange(int(ctx.B))[::-1].copy()
    loss = losses.triplet_margin_loss(train, train[perm], train[perm], 1.0)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


@probe("sdea-norel")
def probe_sdea_norel(ctx: ProbeContext) -> None:
    from ...core import losses

    # Ablation: H_ent = H_a; the relation module never runs.
    h_a = _attribute_module(ctx)
    perm = np.arange(int(ctx.B))[::-1].copy()
    loss = losses.triplet_margin_loss(h_a, h_a[perm], h_a[perm], 1.0)
    ctx.expect_scalar(loss)
    ctx.expect_grad(loss)


def available_probes() -> List[str]:
    """Sorted names of every method a probe is registered for."""
    return sorted(PROBES)
