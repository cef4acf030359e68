"""Vocab and WordPiece tokenizer."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import (
    CLS_TOKEN,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    Vocab,
    WordPieceTokenizer,
    normalize,
    pretokenize,
)
from repro.text.tokenizer import _apply_merge, _merge_symbol, _word_pieces_seed

CORPUS = [
    "Fabian Wendelin Bruskewitz",
    "Fabian was born in Milwaukee in 1935",
    "Roman Catholic Church bishop of Lincoln",
    "Cristiano Ronaldo plays for Real Madrid",
    "Ronaldo was born in Madeira Portugal in 1985",
    "the club was founded in 1902 in Madrid",
]


def train_by_full_recount(corpus, vocab_size, min_pair_count=2):
    """Reference BPE loop: recount every pair of every word for each merge
    and take ``Counter.most_common(1)``.  Returns (merges, vocab tokens)."""
    word_counts = Counter()
    for line in corpus:
        word_counts.update(pretokenize(line))
    vocab = Vocab()
    segmentations = {}
    for word in word_counts:
        segmentations[word] = list(_word_pieces_seed(word))
        for piece in segmentations[word]:
            vocab.add(piece)
    merges = []
    while len(vocab) < vocab_size:
        pair_counts = Counter()
        for word, pieces in segmentations.items():
            for pair in zip(pieces, pieces[1:]):
                pair_counts[pair] += word_counts[word]
        if not pair_counts:
            break
        (a, b), count = pair_counts.most_common(1)[0]
        if count < min_pair_count:
            break
        merged = _merge_symbol(a, b)
        merges.append((a, b))
        vocab.add(merged)
        for word, pieces in segmentations.items():
            segmentations[word] = _apply_merge(pieces, a, b, merged)
    return merges, vocab.tokens


@pytest.fixture(scope="module")
def tokenizer():
    return WordPieceTokenizer.train(CORPUS, vocab_size=400)


class TestVocab:
    def test_special_tokens_occupy_first_slots(self):
        vocab = Vocab()
        for i, token in enumerate(SPECIAL_TOKENS):
            assert vocab.token_of(i) == token

    def test_add_is_idempotent(self):
        vocab = Vocab()
        first = vocab.add("hello")
        second = vocab.add("hello")
        assert first == second

    def test_unknown_maps_to_unk(self):
        vocab = Vocab()
        assert vocab.id_of("nonexistent") == vocab.unk_id

    def test_contains_and_len(self):
        vocab = Vocab(["a", "b"])
        assert "a" in vocab
        assert "zz" not in vocab
        assert len(vocab) == len(SPECIAL_TOKENS) + 2


class TestNormalize:
    def test_lowercases_and_squeezes(self):
        assert normalize("  Hello   WORLD ") == "hello world"

    def test_pretokenize_splits_punctuation(self):
        assert pretokenize("C. Ronaldo, star!") == [
            "c", ".", "ronaldo", ",", "star", "!"
        ]


class TestTraining:
    def test_frequent_words_become_single_tokens(self, tokenizer):
        # "in" and "was" are frequent; they should be whole tokens.
        assert tokenizer.tokenize_word("in") == ["in"]
        assert tokenizer.tokenize_word("was") == ["was"]

    def test_rare_words_split_into_pieces(self, tokenizer):
        pieces = tokenizer.tokenize_word("bruskewitzish")
        assert len(pieces) >= 2 or pieces == ["[UNK]"]

    def test_continuation_pieces_marked(self, tokenizer):
        pieces = tokenizer.tokenize_word("madrid")
        for piece in pieces[1:]:
            assert piece.startswith("##")

    def test_unknown_characters_yield_unk(self, tokenizer):
        assert tokenizer.tokenize_word("ÿÿÿ") == ["[UNK]"]

    def test_vocab_size_bounded(self):
        small = WordPieceTokenizer.train(CORPUS, vocab_size=50)
        assert small.vocab_size <= 50 + 60  # chars can exceed budget slightly

    @pytest.mark.parametrize("vocab_size", [50, 300, 400])
    @pytest.mark.parametrize("min_pair_count", [1, 2])
    def test_training_equals_full_recount(self, vocab_size, min_pair_count):
        trained = WordPieceTokenizer.train(CORPUS, vocab_size=vocab_size,
                                           min_pair_count=min_pair_count)
        merges, tokens = train_by_full_recount(CORPUS, vocab_size,
                                               min_pair_count)
        assert trained.merges == merges
        assert trained.vocab.tokens == tokens

    def test_training_is_deterministic(self):
        a = WordPieceTokenizer.train(CORPUS, vocab_size=300)
        b = WordPieceTokenizer.train(CORPUS, vocab_size=300)
        assert a.vocab.tokens == b.vocab.tokens
        assert a.merges == b.merges


class TestEncoding:
    def test_encode_prepends_cls(self, tokenizer):
        ids, mask = tokenizer.encode("Ronaldo", max_len=8)
        assert ids[0] == tokenizer.vocab.cls_id
        assert mask[0] is True or mask[0] == True  # noqa: E712

    def test_encode_pads_to_max_len(self, tokenizer):
        ids, mask = tokenizer.encode("Ronaldo", max_len=16)
        assert len(ids) == 16 and len(mask) == 16
        pad_id = tokenizer.vocab.pad_id
        n_valid = sum(mask)
        assert all(i == pad_id for i in ids[n_valid:])
        assert not any(mask[n_valid:])

    def test_encode_truncates(self, tokenizer):
        text = " ".join(CORPUS)
        ids, mask = tokenizer.encode(text, max_len=10)
        assert len(ids) == 10
        assert all(mask)

    def test_decode_recovers_known_words(self, tokenizer):
        ids, mask = tokenizer.encode("ronaldo was born in madrid", max_len=32)
        decoded = tokenizer.decode([i for i, m in zip(ids, mask) if m])
        assert "ronaldo" in decoded
        assert "madrid" in decoded

    def test_tokenize_empty_string(self, tokenizer):
        assert tokenizer.tokenize("") == []

    def test_cache_consistency(self, tokenizer):
        first = tokenizer.tokenize_word("madrid")
        second = tokenizer.tokenize_word("madrid")
        assert first == second
        assert first is not second  # caller gets a copy


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                                      max_codepoint=0x7F),
               min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_encode_never_crashes_and_has_fixed_length(text):
    tokenizer = WordPieceTokenizer.train(CORPUS, vocab_size=300)
    ids, mask = tokenizer.encode(text, max_len=12)
    assert len(ids) == 12 and len(mask) == 12
    assert all(isinstance(i, int) for i in ids)


@given(st.sampled_from(CORPUS))
@settings(max_examples=10, deadline=None)
def test_tokenize_then_decode_contains_all_known_whole_words(line):
    tokenizer = WordPieceTokenizer.train(CORPUS, vocab_size=400)
    decoded = tokenizer.decode(
        [tokenizer.vocab.id_of(t) for t in tokenizer.tokenize(line)]
    )
    for word in pretokenize(line):
        if tokenizer.tokenize_word(word) != ["[UNK]"]:
            assert word in decoded


# Corpora built for ties: 2-4 letter alphabets, so many pairs share a
# count and words repeat letters (overlapping pairs such as "aaaa").
_TIE_CORPORA = st.integers(2, 4).flatmap(lambda size: st.lists(
    st.lists(st.text(alphabet="abcd"[:size], min_size=1, max_size=8),
             min_size=1, max_size=4).map(" ".join),
    min_size=1, max_size=6))


@given(_TIE_CORPORA, st.integers(10, 80), st.integers(1, 3))
@example(["aaaa aaa aa a", "baaab aaab"], 40, 1)
@example(["abab baba abba", "ab ba"], 80, 2)
@settings(max_examples=200, deadline=None)
def test_training_equals_full_recount_on_tied_corpora(corpus, vocab_size,
                                                      min_pair_count):
    trained = WordPieceTokenizer.train(corpus, vocab_size=vocab_size,
                                       min_pair_count=min_pair_count)
    merges, tokens = train_by_full_recount(corpus, vocab_size,
                                           min_pair_count)
    assert trained.merges == merges
    assert trained.vocab.tokens == tokens
    # Every merge makes a new symbol, which the incremental counts rely on.
    assert len({_merge_symbol(a, b) for a, b in merges}) == len(merges)
