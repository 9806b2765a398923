"""Subword vocabulary training and greedy encoding tests."""

import os
import random
import string
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meder
from meder.bundled import SAMPLE_CORPUS_FILE, data_path
from meder.corpus import LabelSet, SplitSpec, load_corpus, split
from meder.errors import DataError
from meder.textprep import PrepConfig, preprocess_record
from meder.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIALS,
    UNK_ID,
    Vocab,
    decode,
    encode_text,
    encode_word,
    load_vocab,
    save_vocab,
    train_vocab,
)


def vocab_of(*tokens):
    return Vocab(SPECIALS + tuple(tokens))


def recount_train_vocab(corpus, target_size, min_freq):
    """Reference learner: recount every pair of every word on every
    merge and rewrite every word.  Same merge order as train_vocab:
    highest count, then smallest merged token, then smallest pair."""
    word_freq = Counter(w for tokens in corpus for w in tokens)
    seqs = {w: tuple([w[0]] + ["##" + c for c in w[1:]]) for w in word_freq}
    sym_freq = Counter()
    for word, f in word_freq.items():
        for s in seqs[word]:
            sym_freq[s] += f
    vocab = list(SPECIALS) + sorted(s for s, f in sym_freq.items() if f >= min_freq)
    while len(vocab) < target_size:
        pair_freq = Counter()
        for word, f in word_freq.items():
            seq = seqs[word]
            for pair in zip(seq, seq[1:]):
                pair_freq[pair] += f
        best = None
        for (a, b), f in pair_freq.items():
            merged = a + (b[2:] if b.startswith("##") else b)
            if f < min_freq or merged in vocab:
                continue
            key = (-f, merged, (a, b))
            if best is None or key < best:
                best = key
        if best is None:
            break
        _, merged, (a, b) = best
        vocab.append(merged)
        for word, seq in seqs.items():
            out, i = [], 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seqs[word] = tuple(out)
    return tuple(vocab)


def sample_train_tokens():
    """The token lists `meder vocab` induces from at the CLI defaults."""
    labels = LabelSet.default()
    train_split = split(load_corpus(data_path(SAMPLE_CORPUS_FILE), labels), SplitSpec.default())[0]
    prep = PrepConfig.default()
    token_lists = []
    for r in train_split:
        cr = preprocess_record(r, prep, labels)
        token_lists += [list(cr.clean_text), list(cr.clean_entity)]
    return token_lists


def test_special_ids():
    assert SPECIALS == ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)


def test_vocab_validation():
    with pytest.raises(DataError, match="first four"):
        Vocab(("[PAD]", "[UNK]", "[SEP]", "[CLS]"))
    with pytest.raises(DataError, match="duplicate"):
        Vocab(SPECIALS + ("x", "x"))
    with pytest.raises(DataError, match="empty token"):
        Vocab(SPECIALS + ("",))
    v = vocab_of("a", "##b")
    assert len(v) == 6
    assert v.id_of["##b"] == 5


def test_train_vocab_merges_ab():
    v = train_vocab([["ab", "ab", "ab"]], target_size=10, min_freq=1)
    assert "a" in v.tokens
    assert "##b" in v.tokens
    assert "ab" in v.tokens
    # the only mergeable pair is (a, ##b), appended right after the alphabet
    assert v.tokens[:4] == SPECIALS
    assert sorted(v.tokens[4:]) == ["##b", "a", "ab"]
    assert v.tokens[-1] == "ab"


def test_train_vocab_empty_corpus():
    v = train_vocab([], target_size=4, min_freq=1)
    assert v.tokens == SPECIALS


def test_train_vocab_target_too_small():
    with pytest.raises(DataError, match="target_size 4 too small"):
        train_vocab([["abc"]], target_size=4, min_freq=1)
    with pytest.raises(DataError, match="min_freq"):
        train_vocab([["abc"]], target_size=10, min_freq=0)


def test_train_vocab_min_freq_filters_alphabet():
    # "z" appears once: below min_freq 2, so it never enters the alphabet
    v = train_vocab([["aa", "aa", "z"]], target_size=12, min_freq=2)
    assert "z" not in v.tokens
    assert "a" in v.tokens


def test_train_vocab_deterministic_on_random_corpus():
    rng = random.Random(5)
    words = [
        "".join(rng.choice(string.ascii_lowercase[:6]) for _ in range(rng.randint(1, 8)))
        for _ in range(1000)
    ]
    a = train_vocab([words], target_size=120, min_freq=2)
    b = train_vocab([list(words)], target_size=120, min_freq=2)
    assert a.tokens == b.tokens
    assert len(a) <= 120


def test_train_vocab_tie_break_is_lexicographic():
    # pairs (a,##b) and (a,##c) both occur twice; "ab" < "ac" merges first
    v = train_vocab([["ab", "ab", "ac", "ac"]], target_size=9, min_freq=1)
    merged = [t for t in v.tokens if len(t) == 2 and not t.startswith("##")]
    assert merged == ["ab", "ac"]
    assert v.tokens.index("ab") < v.tokens.index("ac")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_train_vocab_matches_the_recount_reference(data):
    letters = data.draw(st.sampled_from(["a", "ab", "abc"]))
    words = data.draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=9), max_size=40))
    min_freq = data.draw(st.integers(1, 3))
    sym_freq = Counter(c if i == 0 else "##" + c for w in words for i, c in enumerate(w))
    smallest = 4 + sum(f >= min_freq for f in sym_freq.values())
    target = data.draw(st.integers(smallest, max(smallest, 60)))
    got = train_vocab([words], target, min_freq).tokens
    assert got == recount_train_vocab([words], target, min_freq)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_train_vocab_matches_the_recount_reference_on_runs_of_merge_sites(data):
    # Long words over one or two letters hold several adjacent and
    # overlapping sites of one pair (aaaa, abab, and (a, ##a) runs), where
    # neighbouring sites share the pairs a merge updates.  Repeated words
    # give pairs weights above one.
    letters = data.draw(st.sampled_from(["a", "ab"]))
    distinct = data.draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=24),
                                  min_size=1, max_size=8))
    repeats = data.draw(st.lists(st.integers(1, 4), min_size=len(distinct),
                                 max_size=len(distinct)))
    words = [w for w, n in zip(distinct, repeats) for _ in range(n)]
    min_freq = data.draw(st.integers(1, 3))
    target = data.draw(st.integers(8, 80))  # 8: the specials and a, b, ##a, ##b
    got = train_vocab([words], target, min_freq).tokens
    assert got == recount_train_vocab([words], target, min_freq)


@pytest.mark.parametrize("target", [120, 200, 300, 8000])
def test_train_vocab_matches_the_recount_reference_on_the_sample(target):
    tokens = sample_train_tokens()
    assert train_vocab(tokens, target, 2).tokens == recount_train_vocab(tokens, target, 2)


@pytest.mark.parametrize("words", [["####a", "###a"], ["###a", "####a"]])
def test_train_vocab_breaks_a_same_token_tie_by_the_smallest_pair(words):
    # After merging ####, ##### and #####a, the words are (#, #####a) and
    # (#, ####, ##a).  Both #+#####a and ####+##a occur once and merge to
    # ####a.  The smallest pair, (#, #####a), wins in either corpus order;
    # the other word keeps ####+##a, whose token is then taken, so no
    # further merge qualifies.  Had (####, ##a) won, #+####a would add ###a.
    v = train_vocab([words], target_size=60, min_freq=1)
    assert v.tokens == SPECIALS + ("#", "###", "##a", "####", "#####", "#####a", "####a")
    assert v.tokens == recount_train_vocab([words], 60, 1)


def test_vocab_file_does_not_depend_on_the_hash_seed(tmp_path):
    written = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(meder.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "meder.cli", "vocab", "--out-dir", str(out)],
                       check=True, capture_output=True, env=env, timeout=120)
        written.append((out / "vocab.txt").read_bytes())
    assert written[0] == written[1]


def test_encode_word_whole_word_hit():
    v = vocab_of("drug")
    assert encode_word("drug", v) == [v.id_of["drug"]]


def test_encode_word_greedy_longest_match():
    v = vocab_of("ca", "##ab", "c", "##a", "##b")
    # greedy takes "ca" then "##ab", never the shorter pieces
    assert encode_word("caab", v) == [v.id_of["ca"], v.id_of["##ab"]]


def test_encode_word_unk_on_any_gap():
    v = vocab_of("ca", "##ab")
    # "x" has no piece at position 0
    assert encode_word("xab", v) == [UNK_ID]
    # fails midway: whole word collapses to UNK, not partial pieces
    assert encode_word("cax", v) == [UNK_ID]
    with pytest.raises(DataError, match="non-empty"):
        encode_word("", v)


def test_encode_word_never_emits_structural_specials():
    rng = random.Random(9)
    corpus = [["".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
               for _ in range(300)]]
    v = train_vocab(corpus, target_size=40, min_freq=1)
    for word in corpus[0]:
        ids = encode_word(word, v)
        assert PAD_ID not in ids
        assert CLS_ID not in ids
        assert SEP_ID not in ids


def test_encode_text_is_flat_map():
    v = vocab_of("x", "y")
    assert encode_text([], v) == []
    assert encode_text(["x", "y"], v) == [v.id_of["x"], v.id_of["y"]]
    rng = random.Random(2)
    corpus = [["".join(rng.choice("pqr") for _ in range(rng.randint(1, 5)))
               for _ in range(100)]]
    trained = train_vocab(corpus, target_size=30, min_freq=1)
    for _ in range(50):
        tokens = [rng.choice(corpus[0]) for _ in range(rng.randrange(6))]
        flat = [i for t in tokens for i in encode_word(t, trained)]
        assert encode_text(tokens, trained) == flat


def test_encode_text_memo_matches_encode_word_on_random_words():
    rng = random.Random(11)
    corpus = [["".join(rng.choice("abc[]") for _ in range(rng.randint(1, 6)))
               for _ in range(200)]]
    v = train_vocab(corpus, target_size=40, min_freq=2)
    # uncoverable letters give whole-word [UNK]s; specials are spelled as words
    pool = corpus[0] + ["xyz", "ax", "q"] + list(SPECIALS)
    assert encode_word("xyz", v) == [UNK_ID]
    for _ in range(300):
        tokens = [rng.choice(pool) for _ in range(rng.randrange(8))]
        assert encode_text(tokens, v) == [i for t in tokens for i in encode_word(t, v)]
    assert set(v.encoded) <= set(pool)
    assert all(v.encoded[w] == tuple(encode_word(w, v)) for w in v.encoded)


def test_each_vocab_keeps_its_own_encodings():
    short = vocab_of("a", "##b")
    long = vocab_of("a", "##b", "ab")
    assert encode_text(["ab"], short) == [4, 5]
    assert encode_text(["ab"], long) == [6]
    assert encode_text(["ab", "ab"], short) == [4, 5, 4, 5]
    assert short.encoded == {"ab": (4, 5)} and long.encoded == {"ab": (6,)}


def test_vocab_equality_and_hash_ignore_the_memos():
    a, b = vocab_of("a", "##b"), vocab_of("a", "##b")
    before = hash(a)
    encode_text(["ab", "ba"], a)
    assert a.encoded and not b.encoded
    assert a == b and hash(a) == hash(b) == before
    assert a != vocab_of("a", "##c")


def test_decode_fuses_continuations_and_drops_specials():
    v = vocab_of("ca", "##ab")
    assert decode([v.id_of["ca"], v.id_of["##ab"]], v) == "caab"
    assert decode([CLS_ID, SEP_ID], v) == ""
    assert decode([CLS_ID, v.id_of["ca"], SEP_ID], v) == "ca"
    with pytest.raises(DataError, match="out of range"):
        decode([99], v)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abcdef", min_size=1, max_size=10))
def test_round_trip_on_coverable_words(word):
    # vocab covering every single character in both positions
    pieces = tuple("abcdef") + tuple("##" + c for c in "abcdef")
    v = Vocab(SPECIALS + pieces)
    ids = encode_word(word, v)
    assert ids != [UNK_ID]
    assert decode(ids, v) == word


def test_save_load_round_trip(tmp_path):
    v = vocab_of("রোগী", "##র", "ওষুধ")
    path = tmp_path / "vocab.txt"
    save_vocab(v, path)
    assert load_vocab(path) == v
    # line number is the id
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "[PAD]"
    assert lines[4] == "রোগী"


def test_load_vocab_rejects_bad_files(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\na\n\nb\n", encoding="utf-8")
    with pytest.raises(DataError, match=":6: empty vocab entry"):
        load_vocab(path)
    path.write_text("[UNK]\n[PAD]\n[CLS]\n[SEP]\n", encoding="utf-8")
    with pytest.raises(DataError, match="first four"):
        load_vocab(path)
