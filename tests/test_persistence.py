"""SDEA model persistence and CSLS re-ranking."""

import numpy as np
import pytest

from repro.align import (
    csls_similarity_matrix,
    evaluate_embeddings,
    evaluate_similarity,
)
from repro.core import SDEA, SDEAConfig
from repro.obs.metrics import Registry, use_registry
from repro.text import WordPieceTokenizer


class TestTokenizerSerialization:
    def test_roundtrip(self):
        corpus = ["alpha beta gamma", "beta gamma delta", "alpha delta"]
        tokenizer = WordPieceTokenizer.train(corpus, vocab_size=200)
        restored = WordPieceTokenizer.from_dict(tokenizer.to_dict())
        for text in corpus + ["unseen epsilon words"]:
            assert restored.tokenize(text) == tokenizer.tokenize(text)
            assert restored.encode(text, 16) == tokenizer.encode(text, 16)

    def test_rejects_corrupt_payload(self):
        with pytest.raises(ValueError):
            WordPieceTokenizer.from_dict({"tokens": ["bad"], "merges": []})


class TestModelPersistence:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_pair):
        config = SDEAConfig(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=24, embed_dim=32, relation_hidden=16,
            attr_epochs=2, rel_epochs=2, mlm_epochs=1, vocab_size=400,
            patience=2, seed=7,
        )
        model = SDEA(config)
        split = tiny_pair.split(seed=3)
        model.fit(tiny_pair, split)
        return model, split

    def test_roundtrip_embeddings_identical(self, fitted, tiny_pair,
                                            tmp_path):
        model, _ = fitted
        model.save(tmp_path / "model")
        restored = SDEA.load(tmp_path / "model", tiny_pair)
        np.testing.assert_allclose(
            restored.embeddings(1), model.embeddings(1), atol=1e-12
        )
        np.testing.assert_allclose(
            restored.embeddings(2), model.embeddings(2), atol=1e-12
        )

    def test_roundtrip_evaluation_identical(self, fitted, tiny_pair,
                                            tmp_path):
        model, split = fitted
        model.save(tmp_path / "model2")
        restored = SDEA.load(tmp_path / "model2", tiny_pair)
        original = model.evaluate(split.test).metrics
        reloaded = restored.evaluate(split.test).metrics
        assert original.hits_at_1 == reloaded.hits_at_1
        assert original.mrr == reloaded.mrr

    def test_tokenizer_restored(self, fitted, tiny_pair, tmp_path):
        model, _ = fitted
        model.save(tmp_path / "model3")
        restored = SDEA.load(tmp_path / "model3", tiny_pair)
        text = "some attribute value 1985"
        assert restored.tokenizer.tokenize(text) == \
            model.tokenizer.tokenize(text)

    def test_unfitted_model_cannot_save(self, tmp_path):
        with pytest.raises(RuntimeError):
            SDEA().save(tmp_path / "nope")

    def test_norel_model_roundtrip(self, tiny_pair, tiny_sdea_config,
                                   tmp_path):
        tiny_sdea_config.use_relation = False
        tiny_sdea_config.numeric_channel = True
        model = SDEA(tiny_sdea_config)
        split = tiny_pair.split(seed=3)
        model.fit(tiny_pair, split)
        model.save(tmp_path / "norel")
        restored = SDEA.load(tmp_path / "norel", tiny_pair)
        np.testing.assert_allclose(
            restored.embeddings(1), model.embeddings(1), atol=1e-12
        )


class TestCSLS:
    def test_shape_and_symmetric_penalty(self, rng):
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(8, 4))
        out = csls_similarity_matrix(a, b, k=3)
        assert out.shape == (6, 8)

    def test_identity_match_still_ranks_first(self, rng):
        emb = rng.normal(size=(10, 6))
        sim = csls_similarity_matrix(emb, emb, k=3)
        assert (sim.argmax(axis=1) == np.arange(10)).all()

    def test_penalises_hubs(self, rng):
        # a hub close to everything gets its similarity reduced most
        b = rng.normal(size=(5, 4))
        hub = b.mean(axis=0) * 3
        b_with_hub = np.vstack([b, hub])
        a = b.copy()
        cos = a @ b_with_hub.T
        csls = csls_similarity_matrix(a, b_with_hub, k=2)
        # relative score of the hub column drops under CSLS
        cos_margin = cos[:, -1].mean() - cos[:, :-1].mean()
        csls_margin = csls[:, -1].mean() - csls[:, :-1].mean()
        assert csls_margin < cos_margin

    def test_evaluator_csls_flag(self, rng):
        emb = rng.normal(size=(12, 5))
        noisy = emb + rng.normal(scale=0.8, size=emb.shape)
        links = [(i, i) for i in range(12)]
        with use_registry(Registry()) as registry:
            calls = registry.counter("similarity.cosine.calls")
            result = evaluate_embeddings(emb, emb, links, csls_k=3)
            assert calls.value() == 1  # one cosine matrix per evaluation
            noisy_result = evaluate_embeddings(emb, noisy, links, csls_k=3)
            assert calls.value() == 2
        assert result.metrics.hits_at_1 == 1.0
        expected = evaluate_similarity(csls_similarity_matrix(emb, noisy, k=3),
                                       np.arange(12))
        assert noisy_result.metrics == expected
