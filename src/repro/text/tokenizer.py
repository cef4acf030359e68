"""WordPiece-style subword tokenizer with an in-repo BPE trainer.

The paper relies on a pre-trained BERT whose subword tokenizer makes rare
words decomposable into shared pieces ("BERT uses a subword-based
tokenization strategy to deal with rare words").  This module reproduces
that behaviour: a byte-pair-encoding trainer learns merges from a corpus,
and encoding uses greedy longest-match WordPiece segmentation with the
``##`` continuation convention.

The trainer is BPE as learned by Sennrich et al. (2016,
https://arxiv.org/abs/1508.07909): it keeps the adjacent-pair counts and
the words holding each pair, and recounts after a merge only the words
that held the merged pair.  Ties between equally frequent pairs go to
the pair met first when the words are scanned in first-seen order, each
left to right, which is the pair ``Counter.most_common(1)`` returns from a
full recount.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .vocab import Vocab

_WORD_RE = re.compile(r"[\w']+|[^\w\s]", re.UNICODE)


def normalize(text: str) -> str:
    """Lowercase and squeeze whitespace (BERT uncased-style)."""
    return " ".join(str(text).lower().split())


def pretokenize(text: str) -> List[str]:
    """Split normalised text into words and punctuation marks."""
    return _WORD_RE.findall(normalize(text))


def _word_pieces_seed(word: str) -> Tuple[str, ...]:
    """Initial segmentation of a word into characters, ## after the first."""
    if not word:
        return ()
    return (word[0],) + tuple("##" + ch for ch in word[1:])


def _merge_symbol(a: str, b: str) -> str:
    """Concatenate two pieces, dropping the continuation prefix of ``b``."""
    return a + (b[2:] if b.startswith("##") else b)


class WordPieceTokenizer:
    """Subword tokenizer trained with BPE merges, encoded WordPiece-style.

    Typical usage::

        tokenizer = WordPieceTokenizer.train(corpus, vocab_size=2000)
        ids, mask = tokenizer.encode("Fabian Wendelin Bruskewitz", max_len=32)
    """

    def __init__(self, vocab: Vocab, merges: Sequence[Tuple[str, str]] = ()):
        self.vocab = vocab
        self.merges = list(merges)
        self._encode_cache: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @classmethod
    def train(cls, corpus: Iterable[str], vocab_size: int = 2000,
              min_pair_count: int = 2) -> "WordPieceTokenizer":
        """Learn a subword vocabulary from raw text lines.

        Each step merges the most frequent adjacent pair of pieces; among
        tied pairs, the smallest (first word index, first position in
        that word's current segmentation), words indexed in first-seen
        order.

        Parameters
        ----------
        corpus:
            Iterable of text lines (attribute values, names, sentences).
        vocab_size:
            Target total vocabulary size including special tokens and
            single characters.
        min_pair_count:
            Stop merging when the best pair occurs fewer times than this.
        """
        word_counts: Counter = Counter()
        for line in corpus:
            word_counts.update(pretokenize(line))

        # Seed vocab with all single characters (and their ## variants).
        vocab = Vocab()
        words: List[List[str]] = []
        for word in word_counts:
            pieces = list(_word_pieces_seed(word))
            words.append(pieces)
            for piece in pieces:
                vocab.add(piece)

        pairs = _PairCounts(words, list(word_counts.values()))
        merges: List[Tuple[str, str]] = []
        while len(vocab) < vocab_size:
            best = pairs.pop_best()
            if best is None:
                break
            (best_a, best_b), best_count = best
            if best_count < min_pair_count:
                break
            merged = _merge_symbol(best_a, best_b)
            merges.append((best_a, best_b))
            vocab.add(merged)
            pairs.merge(best_a, best_b, merged)
        return cls(vocab, merges)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def tokenize_word(self, word: str) -> List[str]:
        """Greedy longest-match WordPiece segmentation of one word."""
        cached = self._encode_cache.get(word)
        if cached is not None:
            return list(cached)
        pieces: List[str] = []
        start = 0
        n = len(word)
        while start < n:
            end = n
            piece = None
            while end > start:
                candidate = word[start:end]
                if start > 0:
                    candidate = "##" + candidate
                if candidate in self.vocab:
                    piece = candidate
                    break
                end -= 1
            if piece is None:
                pieces = ["[UNK]"]
                break
            pieces.append(piece)
            start = end
        self._encode_cache[word] = pieces
        return list(pieces)

    def tokenize(self, text: str) -> List[str]:
        """Tokenize raw text into subword pieces."""
        tokens: List[str] = []
        for word in pretokenize(text):
            tokens.extend(self.tokenize_word(word))
        return tokens

    def encode(self, text: str, max_len: int,
               add_cls: bool = True) -> Tuple[List[int], List[bool]]:
        """Encode text to fixed-length ids plus an attention mask.

        Prepends ``[CLS]`` (paper Eq. 5), truncates to ``max_len`` and pads
        with ``[PAD]``.

        Returns
        -------
        (ids, mask):
            ``ids`` has length ``max_len``; ``mask[i]`` is True for real
            tokens and False for padding.
        """
        tokens = self.tokenize(text)
        if add_cls:
            tokens = ["[CLS]"] + tokens
        tokens = tokens[:max_len]
        ids = [self.vocab.id_of(t) for t in tokens]
        mask = [True] * len(ids)
        while len(ids) < max_len:
            ids.append(self.vocab.pad_id)
            mask.append(False)
        return ids, mask

    def decode(self, ids: Sequence[int]) -> str:
        """Best-effort inverse of :meth:`tokenize` (for debugging)."""
        words: List[str] = []
        for token_id in ids:
            token = self.vocab.token_of(int(token_id))
            if token in ("[PAD]", "[CLS]", "[SEP]"):
                continue
            if token.startswith("##") and words:
                words[-1] += token[2:]
            else:
                words.append(token)
        return " ".join(words)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable representation (tokens in id order + merges)."""
        return {
            "tokens": self.vocab.tokens,
            "merges": [list(pair) for pair in self.merges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WordPieceTokenizer":
        """Inverse of :meth:`to_dict`."""
        from .vocab import SPECIAL_TOKENS
        tokens = payload["tokens"]
        if tuple(tokens[:len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError("serialised vocab missing special tokens")
        vocab = Vocab(tokens[len(SPECIAL_TOKENS):])
        merges = [tuple(pair) for pair in payload.get("merges", [])]
        return cls(vocab, merges)


Pair = Tuple[str, str]


class _PairCounts:
    """Adjacent-pair counts over the segmented words, updated per merge.

    ``counts`` maps a pair to its occurrences weighted by word frequency
    and ``where`` maps it to the indices of the words holding it.  The
    heap holds ``(-count, first, pair)`` entries whose ``first`` is at
    most the smallest index in ``where[pair]``; an entry whose count has
    moved on is dropped when it reaches the top, and one whose ``first``
    is too small is pushed back with the right value.
    """

    def __init__(self, words: List[List[str]], freqs: List[int]):
        self.words = words
        self.freqs = freqs
        self.counts: Dict[Pair, int] = {}
        self.where: Dict[Pair, Set[int]] = {}
        for index, pieces in enumerate(words):
            for pair in zip(pieces, pieces[1:]):
                self.counts[pair] = self.counts.get(pair, 0) + freqs[index]
                self.where.setdefault(pair, set()).add(index)
        self.heap = [(-count, min(self.where[pair]), pair)
                     for pair, count in self.counts.items()]
        heapq.heapify(self.heap)

    def pop_best(self) -> Optional[Tuple[Pair, int]]:
        """The most frequent pair and its count, None when no pair is left.

        Among equally frequent pairs it returns the one met first when the
        words are scanned in index order, each left to right: the smallest
        (first word index, first position in that word's segmentation).
        """
        heap = self.heap
        top: Optional[Tuple[int, int]] = None
        ties: Set[Pair] = set()
        while heap:
            negative, first, pair = heap[0]
            if top is not None and (negative, first) != top:
                break
            if self.counts.get(pair) != -negative:
                heapq.heappop(heap)
                continue
            actual = min(self.where[pair])
            if actual != first:
                heapq.heapreplace(heap, (negative, actual, pair))
                continue
            heapq.heappop(heap)
            top = (negative, first)
            ties.add(pair)
        if top is None:
            return None
        pieces = self.words[top[1]]
        best = next(pair for pair in zip(pieces, pieces[1:]) if pair in ties)
        for pair in ties - {best}:
            heapq.heappush(heap, (*top, pair))
        return best, -top[0]

    def merge(self, a: str, b: str, merged: str) -> None:
        """Merge ``(a, b)`` in every word holding it; recount only those.

        A pair gains a word only next to ``merged``.  No earlier merge made
        that symbol: a piece forms only from merges among its own
        characters, which go the same way wherever those characters
        occur, so one symbol string has one merge.  A pair that gains a
        word is therefore new and its count changes.  Every pair whose
        count changes gets an entry with ``first = 0``; a pair that only
        loses words keeps entries whose ``first`` is still low enough.
        """
        delta: Dict[Pair, int] = {}
        for index in list(self.where[(a, b)]):
            old = self.words[index]
            new = _apply_merge(old, a, b, merged)
            self.words[index] = new
            freq = self.freqs[index]
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for pair in old_pairs:
                delta[pair] = delta.get(pair, 0) - freq
            for pair in new_pairs:
                delta[pair] = delta.get(pair, 0) + freq
            for pair in set(old_pairs).difference(new_pairs):
                self.where[pair].discard(index)
            for pair in set(new_pairs).difference(old_pairs):
                self.where.setdefault(pair, set()).add(index)
        for pair, change in delta.items():
            if not change:
                continue
            count = self.counts.get(pair, 0) + change
            if count:
                self.counts[pair] = count
                heapq.heappush(self.heap, (-count, 0, pair))
            else:
                del self.counts[pair], self.where[pair]


def _apply_merge(pieces: List[str], a: str, b: str, merged: str) -> List[str]:
    """Replace adjacent (a, b) occurrences in a segmentation by ``merged``."""
    out: List[str] = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == a and pieces[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out
