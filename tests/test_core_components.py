"""SDEA components: candidates, relation module, joint, losses, config."""

import numpy as np
import pytest

from repro.core import (
    JointRepresentation,
    NeighborIndex,
    RelationEmbeddingModule,
    SDEAConfig,
    candidate_recall,
    final_embedding,
    gather_neighbor_embeddings,
    gen_candidates,
    mean_pool_neighbors,
    sample_negatives,
    training_embedding,
    triplet_margin_loss,
)
from repro.kg import KnowledgeGraph
from repro.nn import Tensor


class TestConfig:
    def test_bert_config_propagates(self):
        config = SDEAConfig(bert_dim=32, bert_heads=2, max_seq_len=40)
        bert_config = config.bert_config(vocab_size=100)
        assert bert_config.dim == 32
        assert bert_config.max_len == 40
        assert bert_config.vocab_size == 100


class TestCandidates:
    def test_gen_candidates_topk(self, rng):
        emb1 = np.eye(4)
        emb2 = np.eye(4)
        candidates = gen_candidates(emb1, emb2, k=2)
        assert candidates.shape == (4, 2)
        for i in range(4):
            assert candidates[i, 0] == i  # identical vector ranks first

    def test_gen_candidates_rejects_bad_k(self, rng):
        with pytest.raises(ValueError):
            gen_candidates(np.eye(2), np.eye(2), k=0)

    def test_negatives_never_equal_positive(self, rng):
        candidates = np.array([[0, 1, 2], [1, 2, 3]])
        for _ in range(20):
            negs = sample_negatives(candidates, [0, 1], [0, 2], rng)
            assert negs[0] != 0
            assert negs[1] != 2

    def test_negatives_degenerate_candidates(self, rng):
        candidates = np.array([[5, 5, 5]])
        negs = sample_negatives(candidates, [0], [5], rng)
        assert negs[0] != 5

    def test_candidate_recall(self):
        candidates = np.array([[0, 1], [2, 3]])
        links = [(0, 1), (1, 0)]
        assert candidate_recall(candidates, links) == 0.5
        assert candidate_recall(candidates, []) == 0.0


def _chain_graph(n):
    graph = KnowledgeGraph()
    for i in range(n - 1):
        graph.add_rel_triple(f"e{i}", "r", f"e{i + 1}")
    return graph


class TestNeighborIndex:
    def test_padding_and_lengths(self):
        graph = _chain_graph(4)
        index = NeighborIndex(graph, max_neighbors=3)
        # middle entity has two neighbors
        assert index.lengths[1] == 2
        assert index.mask[1].sum() == 2

    def test_isolated_entity_gets_self_loop(self):
        graph = KnowledgeGraph()
        graph.add_entity("lonely")
        graph.add_attr_triple("lonely", "name", "x")
        index = NeighborIndex(graph, max_neighbors=3)
        assert index.lengths[0] == 1
        assert index.neighbor_ids[0, 0] == 0

    def test_cap_respected(self):
        graph = KnowledgeGraph()
        for i in range(10):
            graph.add_rel_triple("hub", "r", f"x{i}")
        index = NeighborIndex(graph, max_neighbors=4,
                              rng=np.random.default_rng(0))
        hub = graph.entity_id("hub")
        assert index.lengths[hub] == 4

    def test_batch_shapes(self):
        graph = _chain_graph(5)
        index = NeighborIndex(graph, max_neighbors=3)
        ids, mask, lengths = index.batch([0, 2, 4])
        assert ids.shape == (3, 3)
        assert mask.shape == (3, 3)
        assert lengths.shape == (3,)


class TestRelationModule:
    def test_output_shape(self, rng):
        module = RelationEmbeddingModule(8, 6, rng)
        x = Tensor(rng.normal(size=(4, 5, 8)))
        mask = np.ones((4, 5), dtype=bool)
        lengths = np.full(4, 5)
        out = module(x, mask, lengths)
        assert out.shape == (4, 6)

    def test_attention_weights_valid(self, rng):
        module = RelationEmbeddingModule(8, 6, rng)
        x = Tensor(rng.normal(size=(2, 4, 8)))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
        lengths = np.array([2, 4])
        _, alpha = module(x, mask, lengths, return_weights=True)
        np.testing.assert_allclose(alpha.data.sum(axis=1), np.ones(2),
                                   rtol=1e-9)
        np.testing.assert_allclose(alpha.data[0, 2:], np.zeros(2), atol=1e-15)

    @pytest.mark.usefixtures("float64")
    def test_gather_neighbor_embeddings_constant(self, rng):
        attrs = rng.normal(size=(5, 3))
        ids = np.array([[0, 1], [2, 2]])
        out = gather_neighbor_embeddings(attrs, ids)
        assert not out.requires_grad
        np.testing.assert_array_equal(out.data, attrs[ids])

    def test_mean_pool_ignores_padding(self, rng):
        attrs = np.arange(12.0).reshape(4, 3)
        ids = np.array([[0, 1, 3]])
        mask = np.array([[True, True, False]])
        pooled = mean_pool_neighbors(attrs, ids, mask)
        np.testing.assert_allclose(pooled[0], attrs[[0, 1]].mean(axis=0))


class TestJoint:
    def test_joint_and_final_shapes(self, rng):
        joint = JointRepresentation(attr_dim=6, rel_dim=4, out_dim=5, rng=rng)
        h_a = Tensor(rng.normal(size=(3, 6)))
        h_r = Tensor(rng.normal(size=(3, 4)))
        h_m = joint(h_a, h_r)
        assert h_m.shape == (3, 5)
        assert final_embedding(h_r, h_a, h_m).shape == (3, 15)
        assert training_embedding(h_r, h_m).shape == (3, 9)


class TestTripletLoss:
    def test_zero_when_well_separated(self, rng):
        anchor = Tensor(np.zeros((2, 4)))
        positive = Tensor(np.zeros((2, 4)))
        negative = Tensor(np.full((2, 4), 10.0))
        assert triplet_margin_loss(anchor, positive, negative, 1.0).item() == 0

    def test_positive_when_violated(self, rng):
        anchor = Tensor(np.zeros((1, 4)))
        positive = Tensor(np.full((1, 4), 5.0))
        negative = Tensor(np.zeros((1, 4)))
        assert triplet_margin_loss(anchor, positive, negative, 1.0).item() > 0

    def test_gradients_pull_positive_closer(self, rng):
        anchor = Tensor(np.zeros((1, 2)))
        positive = Tensor(np.array([[3.0, 0.0]]), requires_grad=True)
        negative = Tensor(np.array([[0.1, 0.0]]), requires_grad=True)
        loss = triplet_margin_loss(anchor, positive, negative, 1.0)
        loss.backward()
        # moving positive toward the anchor decreases its distance:
        # gradient must point away from anchor (positive x component)
        assert positive.grad[0, 0] > 0


class TestAggregatorVariants:
    def _inputs(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 8)))
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]],
                        dtype=bool)
        lengths = np.array([2, 3, 4])
        return x, mask, lengths

    @pytest.mark.parametrize("aggregator",
                             ["bigru_attention", "attention_only",
                              "mean", "max"])
    def test_output_shape(self, rng, aggregator):
        module = RelationEmbeddingModule(8, 6, rng, aggregator=aggregator)
        x, mask, lengths = self._inputs(rng)
        out = module(x, mask, lengths)
        assert out.shape == (3, 6)

    def test_unknown_aggregator_rejected(self, rng):
        with pytest.raises(ValueError):
            RelationEmbeddingModule(8, 6, rng, aggregator="magic")

    def test_mean_ignores_padding(self, rng):
        module = RelationEmbeddingModule(8, 6, rng, aggregator="mean")
        x, mask, lengths = self._inputs(rng)
        variant = Tensor(x.data.copy())
        variant.data[0, 2:] = 99.0  # padded slots of row 0  # repro: noqa[R001] pre-forward fixture setup
        out1 = module(x, mask, lengths).data
        out2 = module(variant, mask, lengths).data
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-12)

    def test_max_ignores_padding(self, rng):
        module = RelationEmbeddingModule(8, 6, rng, aggregator="max")
        x, mask, lengths = self._inputs(rng)
        variant = Tensor(x.data.copy())
        variant.data[0, 2:] = 99.0  # repro: noqa[R001] pre-forward fixture setup
        out1 = module(x, mask, lengths).data
        out2 = module(variant, mask, lengths).data
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-12)

    def test_gradients_flow_in_all_variants(self, rng):
        for aggregator in RelationEmbeddingModule.AGGREGATORS:
            module = RelationEmbeddingModule(8, 6, rng,
                                             aggregator=aggregator)
            x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8)),
                       requires_grad=True)
            mask = np.ones((2, 3), dtype=bool)
            out = module(x, mask, np.array([3, 3]))
            (out * out).sum().backward()
            assert np.abs(x.grad).sum() > 0, aggregator
