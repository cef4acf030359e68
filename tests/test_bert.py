"""MiniBert encoder, MLM head, masking, and LSA statistics."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.text import pretrain as pretrain_module
from repro.text import (
    BertConfig,
    BertForMaskedLM,
    IGNORE_INDEX,
    MiniBert,
    PretrainConfig,
    SequenceEncoder,
    WordPieceTokenizer,
    mask_tokens,
    pretrain_mlm,
)
from repro.text.lsa import (
    corpus_stats,
    document_term_matrix,
    inverse_document_frequency,
    lsa_token_vectors,
)

CORPUS = [
    "alpha beta gamma delta",
    "alpha beta gamma",
    "delta epsilon zeta",
    "beta gamma delta epsilon",
] * 3


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer.train(CORPUS, vocab_size=200)


@pytest.fixture()
def config(tokenizer):
    return BertConfig(vocab_size=tokenizer.vocab_size, dim=16, num_heads=2,
                      ff_dim=32, num_layers=1, max_len=12, dropout=0.0)


class TestBertConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            BertConfig(vocab_size=100, dim=10, num_heads=3)

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            BertConfig(vocab_size=3)


class TestMiniBert:
    def test_hidden_shape(self, config, rng):
        bert = MiniBert(config, rng)
        ids = np.zeros((2, 8), dtype=int)
        assert bert(ids).shape == (2, 8, 16)

    def test_cls_vector_shape(self, config, rng):
        bert = MiniBert(config, rng)
        ids = np.zeros((3, 8), dtype=int)
        assert bert.encode_cls(ids).shape == (3, 16)

    def test_rejects_overlong_sequence(self, config, rng):
        bert = MiniBert(config, rng)
        with pytest.raises(ValueError):
            bert(np.zeros((1, 13), dtype=int))

    def test_rejects_1d_ids(self, config, rng):
        bert = MiniBert(config, rng)
        with pytest.raises(ValueError):
            bert(np.zeros(8, dtype=int))

    def test_rejects_mask_of_another_shape(self, config, rng):
        bert = MiniBert(config, rng)
        with pytest.raises(ValueError, match="mask shape"):
            bert(np.zeros((2, 8), dtype=int), np.ones((2, 7), dtype=bool))

    def test_position_matters(self, config, rng, tokenizer):
        bert = MiniBert(config, rng)
        bert.eval()
        ids1, mask = tokenizer.encode("alpha beta", max_len=8)
        ids2, _ = tokenizer.encode("beta alpha", max_len=8)
        out1 = bert.encode_cls(np.array([ids1]), np.array([mask])).data
        out2 = bert.encode_cls(np.array([ids2]), np.array([mask])).data
        assert not np.allclose(out1, out2)


class TestPackedEncoder:
    """MiniBert computes on the real tokens; padding changes nothing."""

    MASK = np.array([[True] * 6 + [False] * 3,
                     [True] * 9,
                     [True] * 2 + [False] * 7])

    @pytest.fixture()
    def batch(self, config):
        ids = np.random.default_rng(7).integers(5, config.vocab_size,
                                                size=self.MASK.shape)
        return ids, self.MASK

    @pytest.mark.usefixtures("float64")
    def test_states_equal_rows_encoded_alone(self, config, rng, batch):
        bert = MiniBert(config, rng)
        bert.eval()
        ids, mask = batch
        states = bert(ids, mask).data
        for row, length in enumerate(mask.sum(axis=1)):
            alone = bert(ids[row:row + 1, :length]).data[0]
            np.testing.assert_allclose(states[row, :length], alone,
                                       rtol=1e-12, atol=0)
        assert np.all(states[~mask] == 0.0)

    def test_padding_ids_are_never_read(self, config, rng, batch):
        bert = MiniBert(config, rng)
        bert.eval()
        ids, mask = batch
        other = ids.copy()
        other[~mask] = np.random.default_rng(8).integers(
            0, config.vocab_size, size=int((~mask).sum()))
        np.testing.assert_array_equal(bert(ids, mask).data,
                                      bert(other, mask).data)

    @pytest.mark.usefixtures("float64")
    def test_gradients_are_the_sum_of_rows_alone(self, config, rng, batch):
        bert = MiniBert(config, rng)
        ids, mask = batch
        weights = np.random.default_rng(9).normal(size=mask.shape + (16,))

        def grads(row_ids, row_mask, row_weights):
            bert.zero_grad()
            (bert(row_ids, row_mask) * row_weights).sum().backward()
            return [param.grad.copy() for param in bert.parameters()]

        batched = grads(ids, mask, weights)
        summed = None
        for row, length in enumerate(mask.sum(axis=1)):
            alone = grads(ids[row:row + 1, :length], None,
                          weights[row:row + 1, :length])
            summed = alone if summed is None else [
                a + b for a, b in zip(summed, alone)]
        for got, want in zip(batched, summed):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_dropout_draws_real_tokens_only(self, tokenizer, batch):
        config = BertConfig(vocab_size=tokenizer.vocab_size, dim=16,
                            num_heads=2, ff_dim=32, num_layers=2,
                            max_len=12, dropout=0.1)
        bert = MiniBert(config, np.random.default_rng(0))
        draws = {}

        class Recorder:
            def __init__(self, name, rng):
                self.name, self.rng = name, rng

            def random(self, shape):
                draws.setdefault(self.name, []).append(tuple(shape))
                return self.rng.random(shape)

        sites = {"embed": bert.embed_dropout}
        for i, layer in enumerate(bert.encoder.layers):
            sites[f"layer{i}"] = layer.dropout
            sites[f"layer{i}.attention"] = layer.attention.dropout
        for name, site in sites.items():
            site._rng = Recorder(name, site._rng)
        ids, mask = batch
        bert.train()
        bert(ids, mask)
        count, (batch_size, steps) = int(mask.sum()), mask.shape
        assert set(draws) == set(sites)
        for name, shapes in draws.items():
            if name.endswith(".attention"):
                # Attention probabilities live on the padded grid.
                assert shapes == [(batch_size, 2, steps, steps)]
            else:
                # Embedding dropout once, each block's dropout twice.
                assert shapes == [(count, 16)] * (1 if name == "embed" else 2)


class TestSequenceEncoder:
    TEXTS = ["alpha", "beta gamma delta epsilon", "", "gamma delta"]

    def test_rows_match_tokenizer_encode(self, tokenizer):
        rows = SequenceEncoder.from_texts(tokenizer, self.TEXTS, max_len=12)
        assert rows.ids.shape == (4, 12) and rows.mask.dtype == bool
        for row, text in enumerate(self.TEXTS):
            ids, mask = tokenizer.encode(text, 12)
            np.testing.assert_array_equal(rows.ids[row], ids)
            np.testing.assert_array_equal(rows.mask[row], mask)
        np.testing.assert_array_equal(rows.lengths, rows.mask.sum(axis=1))

    @pytest.mark.parametrize("selected", [[0], [0, 2], [3, 0], [1, 3, 2]])
    def test_batch_is_cut_to_longest_selected_row(self, tokenizer, selected):
        rows = SequenceEncoder.from_texts(tokenizer, self.TEXTS, max_len=12)
        ids, mask = rows.batch(selected)
        width = max(rows.lengths[i] for i in selected)
        assert ids.shape == mask.shape == (len(selected), width)
        assert mask[:, -1].any()
        np.testing.assert_array_equal(ids, rows.ids[selected, :width])
        np.testing.assert_array_equal(mask, rows.mask[selected, :width])
        assert not rows.mask[selected, width:].any()


class TestMaskedLMHead:
    def test_logits_only_at_positions(self, config, rng):
        model = BertForMaskedLM(config, rng)
        ids = np.full((2, 6), 7)
        positions = np.array([1, 4, 8])
        logits = model(ids, np.ones((2, 6), dtype=bool), positions)
        assert logits.shape == (3, config.vocab_size)

    def test_loss_matches_full_logit_loss(self, tokenizer, rng):
        """Trimmed batch + gathered head == padded batch + every logit."""
        config = BertConfig(vocab_size=tokenizer.vocab_size, dim=16,
                            num_heads=2, ff_dim=32, num_layers=2, max_len=16)
        model = BertForMaskedLM(config, rng)
        model.eval()
        padded = SequenceEncoder.from_texts(tokenizer, CORPUS[:6], 16)
        corrupted, labels = mask_tokens(
            padded.ids, padded.mask, tokenizer.vocab.mask_id,
            tokenizer.vocab_size, np.random.default_rng(4), mask_prob=0.4)
        hidden = model.bert(corrupted, padded.mask)
        every = model.decoder(model.norm(model.transform(hidden).tanh()))
        reference = F.cross_entropy(every.reshape(-1, config.vocab_size),
                                    labels.reshape(-1),
                                    ignore_index=IGNORE_INDEX)

        width = int(padded.lengths.max())
        assert width < 16
        flat = labels[:, :width].reshape(-1)
        positions = np.flatnonzero(flat != IGNORE_INDEX)
        assert 0 < len(positions) < flat.size
        logits = model(corrupted[:, :width], padded.mask[:, :width],
                       positions)
        loss = F.cross_entropy(logits, flat[positions])
        assert abs(loss.item() - reference.item()) <= 1e-12


class TestMaskTokens:
    def test_cls_and_padding_never_masked(self, rng):
        ids = np.array([[2, 10, 11, 0, 0]])
        attention = np.array([[True, True, True, False, False]])
        for _ in range(20):
            corrupted, labels = mask_tokens(ids, attention, mask_id=4,
                                            vocab_size=50, rng=rng,
                                            mask_prob=0.9)
            assert corrupted[0, 0] == 2
            assert labels[0, 0] == IGNORE_INDEX
            assert (labels[0, 3:] == IGNORE_INDEX).all()

    def test_labels_hold_original_ids(self, rng):
        ids = np.full((4, 10), 7)
        ids[:, 0] = 2
        attention = np.ones((4, 10), dtype=bool)
        corrupted, labels = mask_tokens(ids, attention, mask_id=4,
                                        vocab_size=50, rng=rng, mask_prob=1.0)
        masked = labels != IGNORE_INDEX
        assert masked.any()
        assert (labels[masked] == 7).all()

    def test_zero_probability_masks_nothing(self, rng):
        ids = np.full((2, 6), 9)
        attention = np.ones((2, 6), dtype=bool)
        corrupted, labels = mask_tokens(ids, attention, mask_id=4,
                                        vocab_size=50, rng=rng, mask_prob=0.0)
        np.testing.assert_array_equal(corrupted, ids)
        assert (labels == IGNORE_INDEX).all()


def _rows(tokenizer, texts, max_len=12):
    rows = SequenceEncoder.from_texts(tokenizer, texts, max_len)
    return rows.ids, rows.mask


class TestPretrainMLM:
    def test_loss_decreases(self, tokenizer, config, rng):
        model = BertForMaskedLM(config, rng)
        losses = pretrain_mlm(
            model, tokenizer.vocab, *_rows(tokenizer, CORPUS),
            PretrainConfig(epochs=6, batch_size=4, seed=0),
        )
        assert len(losses) == 6
        assert losses[-1] < losses[0]

    def test_empty_corpus_rejected(self, tokenizer, config, rng):
        model = BertForMaskedLM(config, rng)
        with pytest.raises(ValueError):
            pretrain_mlm(model, tokenizer.vocab,
                         *_rows(tokenizer, ["", "  "]),
                         PretrainConfig(epochs=1))

    def test_model_left_in_eval_mode(self, tokenizer, config, rng):
        model = BertForMaskedLM(config, rng)
        pretrain_mlm(model, tokenizer.vocab, *_rows(tokenizer, CORPUS),
                     PretrainConfig(epochs=1))
        assert not model.training

    def test_drops_exactly_the_blank_rows(self, tokenizer, config,
                                          monkeypatch):
        """Blank lines leave training unchanged; one-token lines stay."""
        texts = CORPUS + ["alpha", "zeta"]
        with_blanks = []
        for line in texts:
            with_blanks += [line, "", " \t "]
        pretrain = PretrainConfig(epochs=2, batch_size=4, seed=0)
        trajectories, rows_seen = [], []
        for corpus in (texts, with_blanks):
            seen = _batches_seen(monkeypatch)
            model = BertForMaskedLM(config, np.random.default_rng(1))
            trajectories.append(pretrain_mlm(
                model, tokenizer.vocab, *_rows(tokenizer, corpus), pretrain))
            rows_seen.append(sum(len(mask) for mask in seen))
        assert trajectories[0] == trajectories[1]
        assert rows_seen == [2 * len(texts)] * 2

    def test_every_batch_is_trimmed(self, tokenizer, config, rng,
                                    monkeypatch):
        seen = _batches_seen(monkeypatch)
        model = BertForMaskedLM(config, rng)
        pretrain_mlm(model, tokenizer.vocab, *_rows(tokenizer, CORPUS),
                     PretrainConfig(epochs=1, batch_size=4, seed=0))
        assert len(seen) == 3
        for mask in seen:
            assert mask.shape[1] < 12 and mask[:, -1].any()


def _batches_seen(monkeypatch):
    """Record the attention mask of every batch ``pretrain_mlm`` masks."""
    seen = []
    real = pretrain_module.mask_tokens

    def spy(ids, attention, *args):
        seen.append(attention)
        return real(ids, attention, *args)

    monkeypatch.setattr(pretrain_module, "mask_tokens", spy)
    return seen


class TestLSA:
    def test_document_term_counts(self):
        ids = np.array([[2, 5, 5, 0], [2, 6, 0, 0]])
        mask = np.array([[True, True, True, False],
                         [True, True, False, False]])
        matrix = document_term_matrix(ids, mask, vocab_size=8)
        assert matrix[0, 5] == 2.0
        assert matrix[1, 6] == 1.0
        assert matrix[0, 0] == 0.0  # padding not counted

    def test_idf_rare_tokens_weigh_more(self):
        matrix = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        idf = inverse_document_frequency(matrix)
        assert idf[1] > idf[0]

    def test_lsa_vectors_unit_or_zero(self):
        rng = np.random.default_rng(0)
        matrix = (rng.random((10, 6)) > 0.5).astype(float)
        matrix[:, 5] = 0.0  # unseen token
        idf = inverse_document_frequency(matrix)
        vectors = lsa_token_vectors(matrix, idf, dim=4)
        norms = np.linalg.norm(vectors, axis=1)
        for token in range(5):
            if matrix[:, token].sum() > 0:
                assert norms[token] == pytest.approx(1.0)
        assert norms[5] == 0.0

    def test_lsa_pads_when_rank_deficient(self):
        matrix = np.ones((2, 3))
        idf = inverse_document_frequency(matrix)
        vectors = lsa_token_vectors(matrix, idf, dim=10)
        assert vectors.shape == (3, 10)

    def test_cooccurring_tokens_are_similar(self):
        # tokens 0,1 always co-occur; token 2 appears alone.
        matrix = np.array(
            [[1, 1, 0], [1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]],
            dtype=float,
        )
        stats = corpus_stats(
            ids=np.zeros((1, 1), dtype=int),  # unused path below
            mask=np.zeros((1, 1), dtype=bool),
            vocab_size=3, dim=2,
        )
        idf = inverse_document_frequency(matrix)
        vectors = lsa_token_vectors(matrix, idf, dim=2)
        sim_01 = vectors[0] @ vectors[1]
        sim_02 = vectors[0] @ vectors[2]
        assert sim_01 > sim_02


class TestBuildPretrainedBert:
    def test_one_call_pretraining(self):
        from repro.text import build_pretrained_bert, BertConfig, PretrainConfig
        corpus = ["alpha beta gamma", "beta gamma delta"] * 4
        model, tokenizer = build_pretrained_bert(
            corpus,
            bert_config=None,
            pretrain_config=PretrainConfig(epochs=1, max_len=12, seed=0),
            vocab_size=200,
        )
        assert model.bert.config.vocab_size == tokenizer.vocab_size
        ids, mask = tokenizer.encode("alpha beta", max_len=12)
        out = model.bert.encode_cls(np.array([ids]), np.array([mask]))
        assert out.shape == (1, model.bert.config.dim)
