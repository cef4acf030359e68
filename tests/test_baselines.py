"""Baseline aligners: one fit+evaluate sanity test per method plus
method-specific behaviours."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BertInt,
    BertIntConfig,
    BootEA,
    BootEAConfig,
    CEA,
    CEAConfig,
    GATAlign,
    GATAlignConfig,
    GCN,
    GCNAlign,
    GCNAlignConfig,
    JAPE,
    JAPEConfig,
    JAPEStru,
    MTransE,
    RSNConfig,
    RSNLite,
    TransEAligner,
    TransEConfig,
    attribute_embeddings,
    available_baselines,
    char_ngram_embedding,
    entity_display_name,
    levenshtein,
    levenshtein_similarity_matrix,
    make_baseline,
    random_walks,
)
from repro.core import SDEAConfig

FAST_TRANSE = TransEConfig(dim=16, epochs=5)
FAST_GCN = GCNAlignConfig(dim=16, epochs=10)


def _check_aligner(aligner, pair, split):
    aligner.fit(pair, split)
    emb1 = aligner.embeddings(1)
    emb2 = aligner.embeddings(2)
    assert emb1.shape[0] == pair.kg1.num_entities
    assert emb2.shape[0] == pair.kg2.num_entities
    assert np.isfinite(emb1).all() and np.isfinite(emb2).all()
    result = aligner.evaluate(split.test)
    assert 0.0 <= result.metrics.hits_at_1 <= result.metrics.hits_at_10 <= 1.0
    return result


class TestTransEFamily:
    def test_mtranse(self, tiny_pair, tiny_split):
        _check_aligner(MTransE(TransEConfig(dim=16, epochs=5,
                                            negative_sampling=False)),
                       tiny_pair, tiny_split)

    def test_jape_stru(self, tiny_pair, tiny_split):
        _check_aligner(JAPEStru(TransEConfig(dim=16, epochs=5)),
                       tiny_pair, tiny_split)

    def test_embeddings_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TransEAligner().embeddings(1)

    @pytest.mark.usefixtures("float64")
    def test_entity_norms_bounded(self, tiny_pair, tiny_split):
        aligner = JAPEStru(TransEConfig(dim=16, epochs=3))
        aligner.fit(tiny_pair, tiny_split)
        norms = np.linalg.norm(aligner.embeddings(1), axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_warm_start_continues(self, tiny_pair, tiny_split):
        aligner = TransEAligner(TransEConfig(dim=16, epochs=2),
                                warm_start=True)
        aligner.fit(tiny_pair, tiny_split)
        first = aligner.embeddings(1).copy()
        aligner.fit(tiny_pair, tiny_split)
        # warm start refines rather than re-initialising: embeddings move
        # but are correlated with the previous state
        second = aligner.embeddings(1)
        corr = np.corrcoef(first.ravel(), second.ravel())[0, 1]
        assert corr > 0.5


class TestJAPE:
    def test_full_jape(self, tiny_pair, tiny_split):
        _check_aligner(JAPE(JAPEConfig(transe=TransEConfig(dim=16, epochs=5),
                                       attr_dim=8)),
                       tiny_pair, tiny_split)

    def test_attribute_embeddings_shapes(self, tiny_pair):
        attr1, attr2 = attribute_embeddings(tiny_pair, dim=8)
        assert attr1.shape[0] == tiny_pair.kg1.num_entities
        assert attr2.shape[0] == tiny_pair.kg2.num_entities
        assert attr1.shape[1] == attr2.shape[1]


class TestBootEA:
    def test_bootstrapping_runs(self, tiny_pair, tiny_split):
        config = BootEAConfig(transe=TransEConfig(dim=16),
                              rounds=2, epochs_per_round=3,
                              confidence=0.0, max_new_pairs_per_round=5)
        aligner = BootEA(config)
        _check_aligner(aligner, tiny_pair, tiny_split)
        # with zero confidence threshold it must propose something
        assert len(aligner.bootstrapped_pairs) > 0

    def test_proposals_are_mutually_nearest(self, tiny_pair, tiny_split):
        config = BootEAConfig(transe=TransEConfig(dim=16),
                              rounds=2, epochs_per_round=3,
                              confidence=0.99)
        aligner = BootEA(config)
        aligner.fit(tiny_pair, tiny_split)
        # high threshold: proposals (if any) are unique per side
        sources = [a for a, _ in aligner.bootstrapped_pairs]
        assert len(set(sources)) == len(sources)


class TestGNNs:
    def test_gcn_align(self, tiny_pair, tiny_split):
        _check_aligner(GCNAlign(GCNAlignConfig(dim=16, epochs=10)),
                       tiny_pair, tiny_split)

    def test_gcn_structure_only(self, tiny_pair, tiny_split):
        aligner = GCN(GCNAlignConfig(dim=16, epochs=10))
        assert not aligner.config.use_attributes
        _check_aligner(aligner, tiny_pair, tiny_split)

    def test_gat_align(self, tiny_pair, tiny_split):
        _check_aligner(GATAlign(GATAlignConfig(dim=16, epochs=10)),
                       tiny_pair, tiny_split)


class TestRSN:
    def test_rsn_lite(self, tiny_pair, tiny_split):
        _check_aligner(
            RSNLite(RSNConfig(dim=16, epochs=2, walks_per_entity=1)),
            tiny_pair, tiny_split,
        )

    def test_random_walks_valid(self, tiny_pair):
        rng = np.random.default_rng(0)
        walks = random_walks(tiny_pair.kg1, length=4, per_entity=1, rng=rng)
        assert walks
        for walk in walks:
            assert 2 <= len(walk) <= 4
            for node in walk:
                assert 0 <= node < tiny_pair.kg1.num_entities

    def test_random_walks_offset(self, tiny_pair):
        rng = np.random.default_rng(0)
        walks = random_walks(tiny_pair.kg2, length=3, per_entity=1, rng=rng,
                             offset=1000)
        assert all(node >= 1000 for walk in walks for node in walk)


# Mixed case, non-ASCII letters ("İ" lowercases to two code points) and
# empty names of unequal lengths.
_NAMES = st.text(alphabet="abAB éÉßİΣσ", max_size=9)


class TestCEA:
    def test_levenshtein_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("same", "same") == 0

    def test_levenshtein_symmetry(self):
        assert levenshtein("ronaldo", "ronald") == \
            levenshtein("ronald", "ronaldo")

    def test_similarity_matrix_bounds(self):
        sim = levenshtein_similarity_matrix(["abc", "xyz"], ["abc", "abd"])
        assert sim[0, 0] == pytest.approx(1.0)
        assert (sim >= 0).all() and (sim <= 1).all()

    @given(st.lists(_NAMES, max_size=6), st.lists(_NAMES, max_size=6))
    @example([], ["abc"])
    @example(["abc", ""], [])
    @example(["İstanbul", "KITTEN", ""], ["istanbul", "sitting", "ß", ""])
    @settings(max_examples=150, deadline=None)
    def test_similarity_matrix_equals_scalar_levenshtein(self, names1, names2):
        expected = np.empty((len(names1), len(names2)))
        for i, a in enumerate(names1):
            for j, b in enumerate(names2):
                a_low, b_low = a.lower(), b.lower()
                expected[i, j] = 1.0 - levenshtein(a_low, b_low) / max(
                    len(a_low), len(b_low), 1)
        assert np.array_equal(levenshtein_similarity_matrix(names1, names2),
                              expected)

    def test_char_ngram_identical_names_similar(self):
        emb = char_ngram_embedding(["cristiano ronaldo",
                                    "cristiano ronaldo",
                                    "lionel messi"])
        assert emb[0] @ emb[1] == pytest.approx(1.0)
        assert emb[0] @ emb[2] < 0.5

    def test_entity_display_name_prefers_attribute(self, tiny_pair):
        graph = tiny_pair.kg1
        for entity in graph.entities():
            name = entity_display_name(graph, entity)
            assert isinstance(name, str) and name

    def test_cea_end_to_end(self, tiny_pair, tiny_split):
        aligner = CEA(CEAConfig(struct=GCNAlignConfig(dim=16, epochs=5,
                                                      use_attributes=False)))
        aligner.fit(tiny_pair, tiny_split)
        result = aligner.evaluate(tiny_split.test, with_stable_matching=True)
        assert result.stable_hits_at_1 is not None
        # names are literal-similar in the tiny pair → CEA should be strong
        assert result.metrics.hits_at_1 > 0.5

    def test_cea_fused_similarity_shape(self, tiny_pair, tiny_split):
        aligner = CEA(CEAConfig(struct=GCNAlignConfig(dim=16, epochs=3,
                                                      use_attributes=False)))
        aligner.fit(tiny_pair, tiny_split)
        sim = aligner.fused_similarity(tiny_split.test)
        n = len(tiny_split.test)
        assert sim.shape == (n, n)


class TestBertInt:
    def test_bert_int_end_to_end(self, tiny_pair, tiny_split):
        config = BertIntConfig(
            sdea=SDEAConfig(bert_dim=32, bert_heads=2, bert_layers=1,
                            bert_ff_dim=64, max_seq_len=12, embed_dim=32,
                            attr_epochs=2, mlm_epochs=1, vocab_size=300,
                            patience=2, seed=1),
        )
        aligner = BertInt(config)
        result = _check_aligner(aligner, tiny_pair, tiny_split)
        # names are similar here, so it should do clearly better than random
        assert result.metrics.hits_at_1 > 0.2

    def test_interaction_matrix_shape(self, tiny_pair, tiny_split):
        config = BertIntConfig(
            sdea=SDEAConfig(bert_dim=32, bert_heads=2, bert_layers=1,
                            bert_ff_dim=64, max_seq_len=12, embed_dim=32,
                            attr_epochs=1, mlm_epochs=0, vocab_size=300,
                            patience=1, seed=1),
        )
        aligner = BertInt(config)
        aligner.fit(tiny_pair, tiny_split)
        matrix = aligner.interaction_similarity(tiny_split.test[:5])
        assert matrix.shape == (5, 5)


class TestRegistry:
    def test_all_baselines_instantiable(self):
        for name in available_baselines():
            aligner = make_baseline(name)
            assert aligner.name in (name, "transe")

    def test_unknown_baseline(self):
        with pytest.raises(KeyError):
            make_baseline("definitely-not-a-method")
