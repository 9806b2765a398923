"""Corpus loading, validation, splitting and statistics tests."""

import json
import random
import sys
import unicodedata
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meder.corpus import (
    DEFAULT_LABELS,
    PUBLISHED_CLASS_COUNTS,
    PUBLISHED_TOTAL,
    ClassStats,
    LabelSet,
    RawRecord,
    SplitSpec,
    class_stats,
    count_entity_mismatches,
    load_corpus,
    published_total_note,
    split,
    split_fingerprint,
    write_corpus,
)
from meder.errors import DataError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def record_line(id="r1", text="some text", entity="text", label="Disease"):
    return json.dumps({"id": id, "text": text, "entity": entity, "label": label})


def make_records(labels_of):
    return [
        RawRecord(id=f"r{i}", text=f"text {i}", entity="text", label=lab)
        for i, lab in enumerate(labels_of)
    ]


def test_load_single_record(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record_line()])
    records = load_corpus(path, LabelSet.default())
    assert len(records) == 1
    assert records[0] == RawRecord(id="r1", text="some text", entity="text", label="Disease")
    assert LabelSet.default().id_of(records[0].label) == 2


def test_load_skips_blank_lines_and_keeps_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record_line(id="a"), "", record_line(id="b"), ""])
    records = load_corpus(path, LabelSet.default())
    assert [r.id for r in records] == ["a", "b"]


def test_load_rejects_unknown_label(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record_line(label="Diseases")])
    with pytest.raises(DataError, match="line 1.*'Diseases'"):
        load_corpus(path, LabelSet.default())


def test_load_rejects_malformed_json_with_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record_line(id="a"), "{not json"])
    with pytest.raises(DataError, match="line 2: malformed JSON"):
        load_corpus(path, LabelSet.default())


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [record_line(id="same"), record_line(id="same")])
    with pytest.raises(DataError, match="line 2: duplicate record id 'same'"):
        load_corpus(path, LabelSet.default())


def test_load_rejects_unknown_and_missing_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [json.dumps({"id": "r1", "text": "t", "entity": "t",
                                   "label": "Disease", "score": 1})])
    with pytest.raises(DataError, match=r"line 1: unknown fields \['score'\]"):
        load_corpus(path, LabelSet.default())
    write_lines(path, [json.dumps({"id": "r1", "text": "t"})])
    with pytest.raises(DataError, match="line 1: missing fields"):
        load_corpus(path, LabelSet.default())


def test_load_rejects_non_string_and_empty_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_lines(path, [json.dumps({"id": "r1", "text": "t", "entity": "t", "label": 3})])
    with pytest.raises(DataError, match="'label' must be a string"):
        load_corpus(path, LabelSet.default())
    write_lines(path, [record_line(text="   ")])
    with pytest.raises(DataError, match="text is empty"):
        load_corpus(path, LabelSet.default())
    write_lines(path, [record_line(entity=" ")])
    with pytest.raises(DataError, match="entity is empty"):
        load_corpus(path, LabelSet.default())


def test_blank_before_nfc_is_blank_after_nfc_for_every_code_point():
    """The loader tests the raw text for blankness in place of its NFC
    form.  That is the same test when, over every code point c, NFC and
    NFD map whitespace to whitespace and nothing else to all-whitespace,
    no whitespace character decomposes into several, and no canonical
    composite's decomposition starts with whitespace (U+2000/U+2001 map
    to single spaces, which are not composites): then NFD of a string
    holds a non-space exactly when the string does, and composition
    never starts from a whitespace character and never makes one."""
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        nfd = unicodedata.normalize("NFD", c)
        nfc = unicodedata.normalize("NFC", c)
        if c.isspace():
            assert len(nfd) == 1 and nfd.isspace() and nfc.isspace(), hex(cp)
        else:
            assert not nfd.isspace() and not nfc.isspace(), hex(cp)
        if len(nfd) > 1:
            assert not nfd[0].isspace(), hex(cp)


def test_blank_strings_are_refused_with_or_without_normalization(tmp_path):
    path = tmp_path / "corpus.jsonl"
    # U+2000 is whitespace that NFC rewrites (to U+2002); U+0301 alone is
    # a combining mark, not whitespace, and NFC keeps it
    for text, error in (("\u2000\u3000", "text is empty after normalization"),
                        (" \u0301 ", None)):
        write_lines(path, [record_line(text=text)])
        if error is None:
            assert load_corpus(path, LabelSet.default())[0].text == text
        else:
            with pytest.raises(DataError, match=error):
                load_corpus(path, LabelSet.default())


def test_load_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.jsonl", LabelSet.default())


def test_write_then_load_round_trip(tmp_path):
    records = [
        RawRecord(id="r1", text="ডাক্তার রোগীকে ওষুধ দিলেন", entity="ওষুধ", label="Medicine/Chemical Name"),
        RawRecord(id="r2", text="হৃদরোগ একটি মারাত্মক রোগ", entity="হৃদরোগ", label="Disease"),
    ]
    path = tmp_path / "out.jsonl"
    write_corpus(records, path)
    assert load_corpus(path, LabelSet.default()) == records
    # non-ASCII stays readable on disk
    assert "ডাক্তার" in path.read_text(encoding="utf-8")


def test_label_set_validation_and_files(tmp_path):
    with pytest.raises(DataError, match="not unique"):
        LabelSet(("A", "A"))
    with pytest.raises(DataError, match="empty"):
        LabelSet(())
    with pytest.raises(DataError, match="unknown label 'X'"):
        LabelSet.default().id_of("X")
    ls = LabelSet(("one", "two"))
    path = tmp_path / "labels.txt"
    ls.to_file(path)
    assert LabelSet.from_file(path) == ls
    assert ls.id_of("two") == 1
    assert len(LabelSet.default()) == 6
    assert LabelSet.default().names == DEFAULT_LABELS


def test_label_set_index_is_built_once_and_ignored_by_equality():
    a, b = LabelSet(("one", "two")), LabelSet(("one", "two"))
    before = hash(a)
    assert a.index is a.index == {"one": 0, "two": 1}
    assert "index" in vars(a) and "index" not in vars(b)
    assert a == b and hash(a) == hash(b) == before
    assert a != LabelSet(("two", "one"))


def test_split_spec_validation():
    with pytest.raises(DataError, match="^val_frac must be non-negative, got -1/10$"):
        SplitSpec(val_frac=Fraction(-1, 10), test_frac=0)
    with pytest.raises(DataError, match="^test_frac must be non-negative, got -1/20$"):
        SplitSpec(val_frac=0.1, test_frac=-0.05)
    with pytest.raises(DataError, match="^val_frac 3/4 \\+ test_frac 1/2 exceeds 1$"):
        SplitSpec(val_frac=Fraction(3, 4), test_frac=Fraction(1, 2))
    for bad in (float("nan"), float("inf"), "nan"):
        with pytest.raises(DataError, match="finite number"):
            SplitSpec(val_frac=bad, test_frac=0.1)
    spec = SplitSpec(val_frac=0.1, test_frac=0.1)
    assert spec.val_frac == Fraction(1, 10)
    assert spec == SplitSpec.default()
    assert SplitSpec(val_frac=Fraction(1, 2), test_frac=Fraction(1, 2)).test_frac == Fraction(1, 2)
    assert SplitSpec.default().seed == 42
    # keyword-only: the old positional (train, val, test) call cannot bind silently
    with pytest.raises(TypeError):
        SplitSpec(0.8, 0.1, 0.1)


def test_split_ten_records_floor_rule():
    records = make_records(["Disease"] * 10)
    spec = SplitSpec(val_frac=0.1, test_frac=0.1, seed=42)
    first = split(records, spec)
    assert tuple(len(part) for part in first) == (8, 1, 1)
    second = split(records, spec)
    assert [[r.id for r in p] for p in first] == [[r.id for r in p] for p in second]


def test_split_empty_train_rejected():
    records = make_records(["Disease"] * 10)
    with pytest.raises(DataError, match="^val_frac 1/2 and test_frac 1/2 leave an empty train split"):
        split(records, SplitSpec(val_frac=0.5, test_frac=0.5))
    with pytest.raises(DataError, match="empty"):
        split([], SplitSpec.default())


def test_split_sixty_records_stratified_counts():
    labels = [DEFAULT_LABELS[i % 6] for i in range(60)]
    train, val, test = split(make_records(labels), SplitSpec(val_frac=0.25, test_frac=0.25, seed=42))
    assert (len(train), len(val), len(test)) == (30, 15, 15)
    for lab in DEFAULT_LABELS:
        counts = tuple(sum(1 for r in part if r.label == lab) for part in (train, val, test))
        assert counts[0] == 5
        assert counts[1] in (2, 3)
        assert counts[2] in (2, 3)
        assert sum(counts) == 10


def test_split_partitions_are_disjoint_and_cover():
    rng = random.Random(0)
    records = make_records([f"L{rng.randrange(4)}" for _ in range(137)])
    train, val, test = split(records, SplitSpec(val_frac=0.15, test_frac=0.15, seed=7))
    ids = [r.id for r in train] + [r.id for r in val] + [r.id for r in test]
    assert len(ids) == len(records)
    assert set(ids) == {r.id for r in records}


def test_split_unstratified_sizes_and_determinism():
    records = make_records(["A", "B"] * 25)
    spec = SplitSpec(val_frac=0.1, test_frac=0.1, seed=3, stratified=False)
    train, val, test = split(records, spec)
    assert (len(train), len(val), len(test)) == (40, 5, 5)
    again = split(records, spec)
    assert [r.id for r in again[0]] == [r.id for r in train]


@settings(max_examples=150, deadline=None)
@given(
    label_ids=st.lists(st.integers(0, 7), min_size=2, max_size=500),
    seed=st.integers(0, 2**32 - 1),
    fracs=st.sampled_from([
        (Fraction(1, 10), Fraction(1, 10)),
        (Fraction(3, 20), Fraction(3, 20)),
        (Fraction(1, 4), Fraction(1, 4)),
    ]),
)
def test_stratified_proportion_error_within_one_record(label_ids, seed, fracs):
    records = make_records([f"L{i}" for i in label_ids])
    val_frac, test_frac = fracs
    spec = SplitSpec(val_frac=val_frac, test_frac=test_frac, seed=seed, stratified=True)
    parts = split(records, spec)
    n = len(records)
    assert sum(len(p) for p in parts) == n
    for lab in {r.label for r in records}:
        n_lab = sum(1 for r in records if r.label == lab)
        for part in parts:
            count = sum(1 for r in part if r.label == lab)
            # proportional share of this split, scaled by the split's actual size
            assert abs(count - Fraction(len(part) * n_lab, n)) <= 1


def test_split_fingerprint_depends_on_ids_and_order():
    a = make_records(["A", "A"])
    assert split_fingerprint(a) == split_fingerprint(make_records(["A", "A"]))
    assert split_fingerprint(a) != split_fingerprint(list(reversed(a)))
    assert len(split_fingerprint(a)) == 64


def test_class_stats_counts():
    assert class_stats([], LabelSet.default()) == ClassStats(
        counts={name: 0 for name in DEFAULT_LABELS}, total=0
    )
    records = make_records(["Disease", "Disease", "Organ"])
    stats = class_stats(records, LabelSet.default())
    assert stats.counts["Disease"] == 2
    assert stats.counts["Organ"] == 1
    assert stats.counts["Hormone"] == 0
    assert stats.total == 3
    bad = [RawRecord(id="x", text="t", entity="t", label="Nope")]
    with pytest.raises(DataError, match="unknown label"):
        class_stats(bad, LabelSet.default())


def test_count_entity_mismatches():
    records = [
        RawRecord(id="a", text="the drug works", entity="drug", label="Disease"),
        RawRecord(id="b", text="no mention here", entity="insulin", label="Hormone"),
    ]
    assert count_entity_mismatches(records) == 1


def test_published_total_note_flags_discrepancy():
    stats = ClassStats(
        counts=dict(zip(DEFAULT_LABELS, PUBLISHED_CLASS_COUNTS)),
        total=sum(PUBLISHED_CLASS_COUNTS),
    )
    note = published_total_note(stats)
    assert note is not None
    assert str(sum(PUBLISHED_CLASS_COUNTS)) in note
    assert str(PUBLISHED_TOTAL) in note
    assert sum(PUBLISHED_CLASS_COUNTS) == 6913
    assert PUBLISHED_TOTAL == 6895


def test_published_total_note_silent_on_other_counts():
    stats = class_stats(make_records(["Disease"] * 3), LabelSet.default())
    assert published_total_note(stats) is None
