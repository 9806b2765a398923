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


def _merge_sites(seq: tuple[str, ...], a: str, b: str) -> list[int]:
    """Start indices of the (a, b) pairs that a left-to-right merge
    rewrites: the leftmost first, none overlapping the one before."""
    if seq.count(a) == 1:  # most words: one look, no search to the end
        j = seq.index(a)
        return [j] if j + 1 < len(seq) and seq[j + 1] == b else []
    sites: list[int] = []
    i = 0
    while True:
        try:
            j = seq.index(a, i, len(seq) - 1)
        except ValueError:
            return sites
        if seq[j + 1] == b:
            sites.append(j)
            i = j + 2
        else:
            i = j + 1


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

    Pair counts are taken once (Sennrich et al., ACL 2016).  A merge
    rewrites only the words that hold the merged pair and, in each,
    updates only the pairs at its sites: the old pairs that overlap a
    site and the new pairs on either side of each merged symbol, each
    counted once where adjacent sites share it.  Every pair whose count
    moved gets one new heap entry, so the merge order does not depend on
    the order in which words are visited.
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
        delta: defaultdict[tuple[str, str], int] = defaultdict(int)
        for word in words_with.pop((a, b)):
            seq = seqs[word]
            sites = _merge_sites(seq, a, b)
            if not sites:
                continue
            f = word_freq[word]
            if len(sites) == 1:
                # the common case: five pairs change
                j = sites[0]
                delta[a, b] -= f
                if j:
                    left = seq[j - 1]
                    delta[left, a] -= f
                    delta[left, merged] += f
                    words_with[left, merged].add(word)
                if j + 2 < len(seq):
                    right = seq[j + 2]
                    delta[b, right] -= f
                    delta[merged, right] += f
                    words_with[merged, right].add(word)
                seqs[word] = seq[:j] + (merged,) + seq[j + 2:]
                continue
            parts: list[str] = []
            start = 0
            for j in sites:
                parts += seq[start:j]
                parts.append(merged)
                start = j + 2
            out = tuple(parts) + seq[start:]
            # the old pairs next to a site and the new ones next to a
            # merged symbol (the t-th sits at j - t), by start index;
            # adjacent sites share one
            for i in {i for j in sites for i in (j - 1, j, j + 1) if 0 <= i < len(seq) - 1}:
                delta[seq[i], seq[i + 1]] -= f
            for i in {i for t, j in enumerate(sites) for i in (j - t - 1, j - t)
                      if 0 <= i < len(out) - 1}:
                pair = (out[i], out[i + 1])
                delta[pair] += f
                words_with[pair].add(word)
            seqs[word] = out
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
