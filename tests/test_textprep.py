"""Text preprocessing tests: cleaning, stopwords, suffix stripping, goldens."""

import dataclasses
import json
import random
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meder.bundled import SAMPLE_CORPUS_FILE, SUFFIXES_FILE, data_path
from meder.corpus import LabelSet, RawRecord, load_corpus
from meder.errors import DataError
from meder.textprep import (
    DEFAULT_STRIP_CHARSET,
    _BANGLA_BLOCK,
    PrepConfig,
    clean_text,
    load_stopwords,
    load_suffix_table,
    normalize_word,
    preprocess_record,
    preprocess_text,
    remove_stopwords,
)

from helpers import translate_clean_text

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_textprep.json"

# Bangla letters and signs, with য় (U+09DF, which NFC decomposes) and the
# two parts of ো (which NFC composes); whitespace; an ASCII letter; and
# the characters that a regex character class treats specially.
CLEAN_ALPHABET = "অকখডরা\u09cb\u09c7\u09be\u09df\u09af\u09bc \t\n\u00a0\u2003x][\\^-.*"


@pytest.fixture(scope="module")
def cfg():
    return PrepConfig.default()


def test_clean_text_strips_and_collapses(cfg):
    assert clean_text("ab#c  d%", cfg) == "abc d"
    assert clean_text("$$$", cfg) == ""
    assert clean_text("  রোগী,   ডাক্তার।  ", cfg) == "রোগী ডাক্তার"
    assert clean_text("a\tb\nc", cfg) == "a b c"


def test_clean_text_keeps_bangla_and_digits(cfg):
    assert clean_text("ট্যাবলেট ৫০০ mg 500", cfg) == "ট্যাবলেট ৫০০ mg 500"


@settings(max_examples=1000, deadline=None)
@given(st.text(max_size=80))
def test_clean_text_idempotent(raw):
    config = PrepConfig.default()
    once = clean_text(raw, config)
    assert clean_text(once, config) == once
    # never introduces code points absent from the NFC form of the input
    assert set(once) - {" "} <= set(unicodedata.normalize("NFC", raw))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_clean_text_matches_the_translate_reference(data):
    # a PrepConfig refuses Bangla code points, so a charset keeps the rest
    charset = frozenset(c for c in data.draw(st.sets(st.sampled_from(CLEAN_ALPHABET)))
                        if ord(c) not in _BANGLA_BLOCK)
    raw = data.draw(st.text(alphabet=CLEAN_ALPHABET + "".join(sorted(DEFAULT_STRIP_CHARSET)),
                            max_size=40))
    config = PrepConfig(strip_charset=charset, stopwords=frozenset(), suffix_rules=())
    assert clean_text(raw, config) == translate_clean_text(raw, charset)


def test_remove_stopwords_reference_filter(cfg):
    assert remove_stopwords([], cfg) == []
    some_stops = sorted(cfg.stopwords)[:5]
    assert remove_stopwords(some_stops, cfg) == []
    rng = random.Random(11)
    vocab = some_stops + ["রোগী", "ডাক্তার", "ওষুধ", "হাসপাতাল"]
    for _ in range(200):
        tokens = [rng.choice(vocab) for _ in range(rng.randrange(12))]
        expected = [t for t in tokens if t not in cfg.stopwords]
        assert remove_stopwords(tokens, cfg) == expected


def test_normalize_word_identity_cases(cfg):
    # no listed suffix matches
    assert normalize_word("mg", cfg) == "mg"
    # a word equal to a table entry is a bound morpheme, never stripped
    for suffix, _ in cfg.suffix_rules[:10]:
        assert normalize_word(suffix, cfg) == suffix
    with pytest.raises(DataError, match="non-empty"):
        normalize_word("", cfg)


def test_normalize_word_never_grows_or_empties(cfg):
    words = ["রোগীর", "ওষুধগুলোর", "করতে", "ক", "hypertension", "কে"]
    for word in words:
        out = normalize_word(word, cfg)
        assert out
        assert len(out) <= len(word)


def test_suffix_table_self_tests_pass(cfg):
    # load_suffix_table runs the #test lines; spot-check two pairs directly
    assert normalize_word("রোগীর", cfg) == "রোগী"
    assert normalize_word("ওষুধগুলোর", cfg) == "ওষুধ"


def test_load_suffix_table_rejects_bad_lines(tmp_path):
    bad = tmp_path / "suffixes.tsv"
    bad.write_text("der no-tab-here\n", encoding="utf-8")
    with pytest.raises(DataError, match="no tab separator"):
        load_suffix_table(bad)
    bad.write_text("#test onlyform\n", encoding="utf-8")
    with pytest.raises(DataError, match="#test lines"):
        load_suffix_table(bad)
    bad.write_text("xy\tabc\n", encoding="utf-8")
    with pytest.raises(DataError, match="longer than suffix"):
        load_suffix_table(bad)


def test_load_suffix_table_runs_self_tests(tmp_path):
    table = tmp_path / "suffixes.tsv"
    table.write_text("er\t\n#test water wat\n", encoding="utf-8")
    assert load_suffix_table(table) == (("er", ""),)
    table.write_text("er\t\n#test water wrong\n", encoding="utf-8")
    with pytest.raises(DataError, match="self-test failed"):
        load_suffix_table(table)


def test_load_stopwords_skips_comments(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nএবং\n\n ও \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"এবং", "ও"})


def test_prep_config_validation(cfg):
    with pytest.raises(DataError, match="single code points"):
        PrepConfig(frozenset({"ab"}), frozenset(), ())
    with pytest.raises(DataError, match="Bangla"):
        PrepConfig(frozenset({"ক"}), frozenset(), ())
    with pytest.raises(DataError, match="digits"):
        PrepConfig(frozenset({"5"}), frozenset(), ())
    with pytest.raises(DataError, match="max_passes"):
        PrepConfig(DEFAULT_STRIP_CHARSET, frozenset(), (), max_passes=0)
    with pytest.raises(DataError, match="longer than suffix"):
        PrepConfig(DEFAULT_STRIP_CHARSET, frozenset(), (("a", "bc"),))


def test_preprocess_text_pipeline_order():
    # stopword removal happens before stemming: a token whose stem is a
    # stopword still survives when its surface form is not listed
    config = PrepConfig(
        strip_charset=DEFAULT_STRIP_CHARSET,
        stopwords=frozenset({"the"}),
        suffix_rules=(("s", ""),),
    )
    assert preprocess_text("the thes books", config) == ["the", "book"]


def test_preprocess_text_toggles():
    # empty stopwords or suffix rules switch that stage off
    no_stop = PrepConfig(DEFAULT_STRIP_CHARSET, frozenset(), (("s", ""),))
    assert preprocess_text("the books", no_stop) == ["the", "book"]
    no_stem = PrepConfig(DEFAULT_STRIP_CHARSET, frozenset({"the"}), ())
    assert preprocess_text("the books", no_stem) == ["books"]


def test_preprocess_record_single_token_entity(cfg):
    record = RawRecord(id="x", text="রোগী নিওমাইসিন খায়", entity="নিওমাইসিন",
                       label="Medicine/Chemical Name")
    clean = preprocess_record(record, cfg, LabelSet.default())
    assert clean.clean_entity == ("নিওমাইসিন",)
    assert clean.label_id == 0


def test_preprocess_record_rejects_empty_results(cfg):
    symbol_entity = RawRecord(id="x", text="রোগী ভালো", entity="$%#", label="Disease")
    with pytest.raises(DataError, match="record 'x': entity is empty"):
        preprocess_record(symbol_entity, cfg, LabelSet.default())
    symbol_text = RawRecord(id="y", text="...", entity="রোগী", label="Disease")
    with pytest.raises(DataError, match="record 'y': text is empty"):
        preprocess_record(symbol_text, cfg, LabelSet.default())


def test_preprocess_record_is_deterministic(cfg):
    record = RawRecord(id="x", text="ডাক্তার রোগীকে ওষুধগুলোর কথা বললেন",
                       entity="ওষুধগুলোর", label="Medicine/Chemical Name")
    first = preprocess_record(record, cfg, LabelSet.default())
    second = preprocess_record(record, cfg, LabelSet.default())
    assert first == second


def test_golden_records():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden) == 20
    labels = LabelSet.default()
    records = load_corpus(data_path(SAMPLE_CORPUS_FILE), labels)
    by_id = {r.id: r for r in records}
    cfg = PrepConfig.default()
    # first with a cold stem memo, then warmed by the whole sample
    for _ in ("cold", "warm"):
        for expected in golden:
            clean = preprocess_record(by_id[expected["id"]], cfg, labels)
            assert clean.clean_text == tuple(expected["clean_text"]), expected["id"]
            assert clean.clean_entity == tuple(expected["clean_entity"]), expected["id"]
            assert clean.label_id == expected["label_id"], expected["id"]
        for r in records:
            preprocess_record(r, cfg, labels)
    assert cfg.stems
    # --no-stopwords and --no-stemming: the same pipeline with that stage's data empty
    disabled = {"no_stopwords": dataclasses.replace(cfg, stopwords=frozenset()),
                "no_stemming": dataclasses.replace(cfg, suffix_rules=())}
    for name, off in disabled.items():
        for expected in golden:
            clean = preprocess_record(by_id[expected["id"]], off, labels)
            assert clean.clean_text == tuple(expected[name]["clean_text"]), (name, expected["id"])
            assert clean.clean_entity == tuple(expected[name]["clean_entity"]), (name, expected["id"])


def test_stem_memo_belongs_to_its_config(cfg):
    twice = dataclasses.replace(cfg, max_passes=2)
    assert not twice.stems
    word = "ওষুধগুলোর"
    once_stem, twice_stem = normalize_word(word, cfg), normalize_word(word, twice)
    assert cfg.stems[word] == once_stem and twice.stems[word] == twice_stem
    assert twice_stem == normalize_word(once_stem, cfg)


def test_prep_config_equality_and_hash_ignore_the_stem_memo():
    a, b = PrepConfig.default(), PrepConfig.default()
    before = hash(a)
    preprocess_text("ডাক্তার রোগীকে ওষুধগুলোর কথা বললেন", a)
    assert a.stems and not b.stems
    assert a == b and hash(a) == hash(b) == before
    assert a != dataclasses.replace(a, max_passes=2)


def test_bundled_suffix_file_keeps_trailing_tabs():
    # rules with an empty replacement still need their tab separator;
    # guards against whitespace-stripping editors corrupting the table
    raw = data_path(SUFFIXES_FILE).read_text(encoding="utf-8")
    rule_lines = [l for l in raw.splitlines() if l.strip() and not l.startswith("#")]
    assert all("\t" in line for line in rule_lines)
    assert len(rule_lines) >= 30
