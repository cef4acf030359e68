"""End-to-end SDEA model tests (tiny configuration)."""

import numpy as np
import pytest

from repro.core import SDEA, SDEAConfig
from repro.core.attribute_module import (
    AttributeEmbeddingModule,
    SequenceEncoder,
    encode_all,
    prepare_text_encoder,
)


class TestSDEAFit:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_pair):
        config = SDEAConfig(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=32, embed_dim=32, relation_hidden=24,
            attr_epochs=3, rel_epochs=4, mlm_epochs=1, vocab_size=500,
            patience=2, seed=1,
        )
        model = SDEA(config)
        split = tiny_pair.split(seed=3)
        result = model.fit(tiny_pair, split)
        return model, split, result

    def test_fit_produces_logs(self, fitted):
        _, _, result = fitted
        assert result.attribute_log is not None
        assert len(result.attribute_log.losses) >= 1
        assert result.relation_log is not None

    def test_embedding_shapes(self, fitted, tiny_pair):
        model, _, _ = fitted
        emb1 = model.embeddings(1)
        emb2 = model.embeddings(2)
        assert emb1.shape[0] == tiny_pair.kg1.num_entities
        assert emb2.shape[0] == tiny_pair.kg2.num_entities
        # H_ent = [H_r; H_a; H_m]
        config = model.config
        expected_dim = (config.relation_hidden + config.embed_dim
                        + config.embed_dim)
        assert emb1.shape[1] == expected_dim

    def test_evaluation_beats_random(self, fitted):
        model, split, _ = fitted
        result = model.evaluate(split.test)
        random_h1 = 1.0 / len(split.test)
        assert result.metrics.hits_at_1 > 3 * random_h1

    def test_stable_matching_reported(self, fitted):
        model, split, _ = fitted
        result = model.evaluate(split.test, with_stable_matching=True)
        assert result.stable_hits_at_1 is not None

    def test_attribute_embeddings_accessible(self, fitted, tiny_pair):
        model, _, _ = fitted
        attr = model.attribute_embeddings(1)
        assert attr.shape == (tiny_pair.kg1.num_entities,
                              model.config.embed_dim)


class TestSDEAAblation:
    def test_without_relation_uses_attr_only(self, tiny_pair,
                                             tiny_sdea_config):
        tiny_sdea_config.use_relation = False
        model = SDEA(tiny_sdea_config)
        split = tiny_pair.split(seed=3)
        result = model.fit(tiny_pair, split)
        assert result.relation_log is None
        emb = model.embeddings(1)
        assert emb.shape[1] == tiny_sdea_config.embed_dim


class TestSDEAErrors:
    def test_embeddings_before_fit(self):
        model = SDEA()
        with pytest.raises(RuntimeError):
            model.embeddings(1)
        with pytest.raises(RuntimeError):
            model.attribute_embeddings(1)

    def test_invalid_side(self, tiny_pair, tiny_sdea_config):
        model = SDEA(tiny_sdea_config)
        with pytest.raises(ValueError):
            model.embeddings(3)


class TestPreparedEncoder:
    def test_prepare_text_encoder_shapes(self, tiny_sdea_config):
        texts1 = ["alpha beta", "gamma delta", "epsilon"]
        texts2 = ["alpha gamma", "beta delta", "zeta"]
        rng = np.random.default_rng(0)
        prepared = prepare_text_encoder(texts1, texts2, tiny_sdea_config, rng)
        assert len(prepared.encoder1) == 3
        assert prepared.stats.idf.shape == (prepared.tokenizer.vocab_size,)
        emb = encode_all(prepared.module, prepared.encoder1)
        assert emb.shape == (3, tiny_sdea_config.embed_dim)

    @pytest.mark.usefixtures("float64")
    def test_encode_all_matches_padded_entity_order_reference(
            self, tiny_pair, tiny_sdea_config):
        """Length-sorted, trimmed blocks == padded blocks in entity order."""
        from repro.kg.sequences import build_sequences
        from repro.nn import no_grad
        texts1 = build_sequences(tiny_pair.kg1)
        texts2 = build_sequences(tiny_pair.kg2)
        tiny_sdea_config.max_seq_len = 64
        prepared = prepare_text_encoder(texts1, texts2, tiny_sdea_config,
                                        np.random.default_rng(0))
        encoder, module = prepared.encoder1, prepared.module
        lengths = encoder.lengths
        assert lengths.max() < encoder.ids.shape[1]
        assert not (np.diff(lengths) >= 0).all()
        module.eval()
        with no_grad():
            reference = np.concatenate([
                module(encoder.ids[start:start + 8],
                       encoder.mask[start:start + 8]).numpy()
                for start in range(0, len(encoder), 8)
            ])
        module.train()
        out = encode_all(module, encoder, batch_size=8)
        assert module.training
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)

    def test_lsa_initialised_token_embeddings(self, tiny_sdea_config):
        texts = ["alpha beta"] * 4
        rng = np.random.default_rng(0)
        prepared = prepare_text_encoder(texts, texts, tiny_sdea_config, rng)
        weights = prepared.module.bert.token_embedding.weight.data
        # observed tokens should have been re-initialised (non-Gaussian
        # tiny-norm rows): rows for used tokens have near-unit norm after
        # MLM fine-tuning shifted them only slightly.
        norms = np.linalg.norm(weights, axis=1)
        assert norms.max() > 0.5

    def test_pooling_variants(self, tiny_sdea_config, rng):
        from repro.text.bert import BertConfig, MiniBert
        bert = MiniBert(BertConfig(vocab_size=50, dim=16, num_heads=2,
                                   ff_dim=32, num_layers=1, max_len=8), rng)
        ids = np.random.default_rng(1).integers(5, 50, size=(3, 8))
        mask = np.ones((3, 8), dtype=bool)
        for pooling in ("cls", "mean", "cls_mean"):
            module = AttributeEmbeddingModule(bert, 12, rng, pooling=pooling)
            assert module(ids, mask).shape == (3, 12)

    def test_unknown_pooling_rejected(self, rng):
        from repro.text.bert import BertConfig, MiniBert
        bert = MiniBert(BertConfig(vocab_size=50, dim=16, num_heads=2,
                                   ff_dim=32, num_layers=1, max_len=8), rng)
        with pytest.raises(ValueError):
            AttributeEmbeddingModule(bert, 12, rng, pooling="max")

    def test_idf_weighting_changes_output(self, rng):
        from repro.text.bert import BertConfig, MiniBert
        bert = MiniBert(BertConfig(vocab_size=50, dim=16, num_heads=2,
                                   ff_dim=32, num_layers=1, max_len=8), rng)
        bert.eval()
        ids = np.random.default_rng(1).integers(5, 50, size=(2, 8))
        mask = np.ones((2, 8), dtype=bool)
        idf = np.linspace(0.1, 3.0, 50)
        flat = AttributeEmbeddingModule(bert, 12, rng, pooling="mean")
        weighted = AttributeEmbeddingModule(bert, 12, rng, pooling="mean",
                                            idf=idf)
        weighted.head = flat.head  # same head → isolate pooling effect
        out_flat = flat(ids, mask).data
        out_weighted = weighted(ids, mask).data
        assert not np.allclose(out_flat, out_weighted)
