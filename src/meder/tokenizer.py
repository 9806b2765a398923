"""Trainable subword vocabulary with greedy longest-match encoding.

The vocabulary is induced from the working corpus by iterative pair
merging, then used exactly like a WordPiece vocabulary: word-initial
pieces are stored plain, word-internal pieces carry a "##" prefix, and
a word that cannot be fully covered encodes as a single [UNK].
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import DataError

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3

DEFAULT_TARGET_SIZE = 8000
DEFAULT_MIN_FREQ = 2


@dataclass(frozen=True)
class Vocab:
    """Dense token inventory; index in `tokens` is the token id."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.tokens[:4] != SPECIALS:
            raise DataError(
                f"first four vocab entries must be {','.join(SPECIALS)}, got {self.tokens[:4]}"
            )
        if any(not t for t in self.tokens):
            raise DataError("vocab contains an empty token")
        if len(set(self.tokens)) != len(self.tokens):
            dupes = sorted(t for t, c in Counter(self.tokens).items() if c > 1)
            raise DataError(f"vocab contains duplicate tokens: {dupes}")

    @cached_property
    def id_of(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @cached_property
    def encoded(self) -> dict[str, tuple[int, ...]]:
        """word -> its encode_word ids, filled in by encode_text."""
        return {}

    def __len__(self) -> int:
        return len(self.tokens)


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple([word[0]] + ["##" + c for c in word[1:]])


def _merge_token(a: str, b: str) -> str:
    return a + (b[2:] if b.startswith("##") else b)


def train_vocab(
    corpus: Iterable[Sequence[str]],
    target_size: int = DEFAULT_TARGET_SIZE,
    min_freq: int = DEFAULT_MIN_FREQ,
) -> Vocab:
    """Induce a subword vocabulary by frequency-ordered pair merging.

    Starts from the specials plus every character symbol seen at least
    min_freq times, then repeatedly merges the most frequent adjacent
    symbol pair whose merged token is new, until target_size entries
    exist or no pair occurs min_freq times.  Ties go to the
    lexicographically smallest merged token; two pairs that merge to
    the same token with the same count (#+#####a and ####+##a both give
    ####a) go to the smallest (left, right) pair.

    Pair counts are taken once; a merge rewrites only the words that
    hold the merged pair and updates the counts of the pairs it changed
    (Sennrich et al., ACL 2016).
    """
    if min_freq < 1:
        raise DataError(f"min_freq must be at least 1, got {min_freq}")
    word_freq: Counter = Counter()
    for tokens in corpus:
        word_freq.update(tokens)

    seqs = {word: _word_symbols(word) for word in word_freq}
    sym_freq: Counter = Counter()
    for word, f in word_freq.items():
        for s in seqs[word]:
            sym_freq[s] += f
    alphabet = sorted(s for s, f in sym_freq.items() if f >= min_freq)
    needed = 4 + len(alphabet)
    if target_size < needed:
        raise DataError(
            f"target_size {target_size} too small: need at least {needed} "
            f"(4 specials + {len(alphabet)} alphabet symbols)"
        )

    vocab = list(SPECIALS) + alphabet
    vocab_set = set(vocab)
    pair_freq: Counter = Counter()
    words_with: defaultdict[tuple[str, str], set[str]] = defaultdict(set)
    for word, f in word_freq.items():
        seq = seqs[word]
        for pair in zip(seq, seq[1:]):
            pair_freq[pair] += f
            words_with[pair].add(word)
    # (-count, merged, pair); an entry is stale once its pair's count has
    # moved or its merged token has entered the vocabulary
    heap = [(-f, _merge_token(*pair), pair) for pair, f in pair_freq.items()]
    heapq.heapify(heap)
    while len(vocab) < target_size and heap:
        neg_f, merged, (a, b) = heapq.heappop(heap)
        if pair_freq[a, b] != -neg_f or merged in vocab_set:
            continue
        if -neg_f < min_freq:
            break
        vocab.append(merged)
        vocab_set.add(merged)
        delta: Counter = Counter()
        for word in words_with.pop((a, b)):
            seq = seqs[word]
            out: list[str] = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            f = word_freq[word]
            for pair in zip(seq, seq[1:]):
                delta[pair] -= f
            for pair in zip(out, out[1:]):
                delta[pair] += f
                if merged in pair:
                    words_with[pair].add(word)
            seqs[word] = tuple(out)
        for pair, d in delta.items():
            if d:
                pair_freq[pair] += d
                heapq.heappush(heap, (-pair_freq[pair], _merge_token(*pair), pair))
    return Vocab(tuple(vocab))


def encode_word(word: str, v: Vocab) -> list[int]:
    """Greedy longest-match encoding of one word; whole-word [UNK] when
    any position fails to match."""
    if not word:
        raise DataError("encode_word requires a non-empty token")
    ids: list[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        piece_id = None
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            pid = v.id_of.get(piece)
            if pid is not None and piece not in SPECIALS:
                piece_id = pid
                break
            end -= 1
        if piece_id is None:
            return [UNK_ID]
        ids.append(piece_id)
        start = end
    return ids


def encode_text(tokens: Sequence[str], v: Vocab) -> list[int]:
    """encode_word over tokens, concatenated; each distinct word is
    encoded once per vocabulary."""
    memo = v.encoded
    ids: list[int] = []
    for t in tokens:
        word_ids = memo.get(t)
        if word_ids is None:
            word_ids = memo[t] = tuple(encode_word(t, v))
        ids.extend(word_ids)
    return ids


def decode(ids: Sequence[int], v: Vocab) -> str:
    """Join pieces back into words: specials dropped, "##" pieces fused
    onto their predecessor."""
    words: list[str] = []
    for i in ids:
        if not 0 <= i < len(v.tokens):
            raise DataError(f"token id {i} out of range for vocab of size {len(v.tokens)}")
        if i < 4:
            continue
        tok = v.tokens[i]
        if tok.startswith("##") and words:
            words[-1] += tok[2:]
        elif tok.startswith("##"):
            words.append(tok[2:])
        else:
            words.append(tok)
    return " ".join(words)


def save_vocab(v: Vocab, path: Union[str, Path]) -> None:
    Path(path).write_text("".join(f"{t}\n" for t in v.tokens), encoding="utf-8")


def load_vocab(path: Union[str, Path]) -> Vocab:
    p = Path(path)
    lines = p.read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1]:
        lines.pop()
    for lineno, tok in enumerate(lines, start=1):
        if not tok:
            raise DataError(f"{p}:{lineno}: empty vocab entry")
    try:
        return Vocab(tuple(lines))
    except DataError as e:
        raise DataError(f"{p}: {e}") from None
