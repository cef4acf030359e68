"""Trainer internals: early stopping, checkpoint restoration, edge cases."""

import numpy as np
import pytest

from repro.core import SDEAConfig, trainer
from repro.core.attribute_module import encode_all, prepare_text_encoder
from repro.core.candidates import gen_candidates
from repro.core.relation_module import NeighborIndex
from repro.core.trainer import (
    pretrain_attribute_module,
    train_relation_model,
)


def _tiny_config(**overrides):
    config = SDEAConfig(
        bert_dim=24, bert_heads=2, bert_layers=1, bert_ff_dim=48,
        max_seq_len=16, embed_dim=24, relation_hidden=12,
        attr_epochs=6, rel_epochs=6, mlm_epochs=0, vocab_size=300,
        patience=2, seed=3,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture(scope="module")
def prepared_texts():
    texts1 = [f"entity alpha{i} year 19{i:02d}" for i in range(20)]
    texts2 = [f"entity alpha{i} born 19{i:02d}" for i in range(20)]
    return texts1, texts2


class TestAttributePretraining:
    def test_early_stopping_respects_patience(self, prepared_texts):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=50, patience=1)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        train = [(i, i) for i in range(10)]
        valid = [(i, i) for i in range(10, 14)]
        _, _, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            train, valid, config,
        )
        # with patience 1 on a saturating metric, far fewer than 50 epochs
        assert len(log.losses) < 50
        assert log.stopped_epoch >= 0

    def test_returns_best_checkpoint_embeddings(self, prepared_texts):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=3, patience=5)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        train = [(i, i) for i in range(10)]
        valid = [(i, i) for i in range(10, 14)]
        h1, h2, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            train, valid, config,
        )
        # embeddings returned must equal a fresh encode of the module
        np.testing.assert_allclose(
            h1, encode_all(prepared.module, prepared.encoder1), atol=1e-12
        )
        assert h2.shape == (len(texts2), config.embed_dim)
        assert len(log.valid_hits1) == len(log.losses)

    @pytest.mark.parametrize("epochs, patience, stops",
                             [(4, 10, False), (50, 1, True)])
    def test_epochs_reuse_the_previous_validation_encode(
            self, prepared_texts, monkeypatch, epochs, patience, stops):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=epochs, patience=patience)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        calls = []
        fresh = []

        def counting_encode_all(module, encoder, *args, **kwargs):
            calls.append(encoder)
            return encode_all(module, encoder, *args, **kwargs)

        def checking_gen_candidates(h1, h2, **kwargs):
            fresh.append(
                np.array_equal(h1, encode_all(prepared.module,
                                              prepared.encoder1))
                and np.array_equal(h2, encode_all(prepared.module,
                                                  prepared.encoder2)))
            return gen_candidates(h1, h2, **kwargs)

        monkeypatch.setattr(trainer, "encode_all", counting_encode_all)
        monkeypatch.setattr(trainer, "gen_candidates",
                            checking_gen_candidates)
        _, _, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            [(i, i) for i in range(10)], [(i, i) for i in range(10, 14)],
            config,
        )
        ran = len(log.losses)
        assert (log.stopped_epoch >= 0) is stops
        # First epoch, one validation per epoch, final encode; 2 each.
        assert len(calls) == 2 + 2 * ran + 2
        assert fresh == [True] * ran

    def test_without_validation_links_every_epoch_runs(self, prepared_texts):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=6, patience=2)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        h1, h2, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            [(i, i) for i in range(10)], [], config,
        )
        assert len(log.losses) == 6
        assert log.stopped_epoch == -1
        assert log.valid_hits1 == []
        assert np.array_equal(h1, encode_all(prepared.module,
                                             prepared.encoder1))
        assert np.array_equal(h2, encode_all(prepared.module,
                                             prepared.encoder2))


class TestRelationTraining:
    def test_empty_valid_links_uses_loss_proxy(self, tiny_pair):
        """Without validation links the trainer falls back to -loss."""
        config = _tiny_config(rel_epochs=2, patience=10)
        n1 = tiny_pair.kg1.num_entities
        n2 = tiny_pair.kg2.num_entities
        rng = np.random.default_rng(0)
        attr1 = rng.normal(size=(n1, config.embed_dim))
        attr2 = rng.normal(size=(n2, config.embed_dim))
        neighbors1 = NeighborIndex(tiny_pair.kg1, 4)
        neighbors2 = NeighborIndex(tiny_pair.kg2, 4)
        train = tiny_pair.links[:8]
        model, log = train_relation_model(
            attr1, attr2, neighbors1, neighbors2, train, [], config,
        )
        assert len(log.losses) == 2
        emb = model.embed_all(1)
        expected_dim = config.relation_hidden + 2 * config.embed_dim
        assert emb.shape == (n1, expected_dim)

    def test_embed_entities_subsets(self, tiny_pair):
        config = _tiny_config(rel_epochs=1)
        n1 = tiny_pair.kg1.num_entities
        rng = np.random.default_rng(1)
        attr1 = rng.normal(size=(n1, config.embed_dim))
        attr2 = rng.normal(size=(tiny_pair.kg2.num_entities,
                                 config.embed_dim))
        model, _ = train_relation_model(
            attr1, attr2,
            NeighborIndex(tiny_pair.kg1, 4), NeighborIndex(tiny_pair.kg2, 4),
            tiny_pair.links[:6], tiny_pair.links[6:9], config,
        )
        subset = model.embed_entities(1, [0, 5, 7])
        full = model.embed_all(1)
        np.testing.assert_allclose(subset, full[[0, 5, 7]], atol=1e-12)
