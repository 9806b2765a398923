"""Packing tests for the dual-order input sequences."""

import dataclasses
import random

import numpy as np
import pytest

from meder.errors import DataError
from meder.pairseq import (
    DEFAULT_MAX_LEN,
    EncodedPair,
    PairOrder,
    batchify,
    build_both,
    build_pair,
)
from meder.tokenizer import CLS_ID, PAD_ID, SEP_ID, UNK_ID


def test_default_max_len():
    assert DEFAULT_MAX_LEN == 484


def test_text_first_fixed_example():
    pair = build_pair([5, 6], [7], PairOrder.TEXT_FIRST, max_len=8)
    assert pair.input_ids == (2, 5, 6, 3, 7, 3, 0, 0)
    assert pair.segment_ids == (0, 0, 0, 0, 1, 1, 0, 0)
    assert pair.attention_mask == (1, 1, 1, 1, 1, 1, 0, 0)
    assert pair.order is PairOrder.TEXT_FIRST
    assert pair.content_len == 6


def test_entity_first_fixed_example():
    pair = build_pair([5, 6], [7], PairOrder.ENTITY_FIRST, max_len=8)
    assert pair.input_ids == (2, 7, 3, 5, 6, 3, 0, 0)
    assert pair.segment_ids == (0, 0, 0, 1, 1, 1, 0, 0)
    assert pair.attention_mask == (1, 1, 1, 1, 1, 1, 0, 0)
    assert pair.order is PairOrder.ENTITY_FIRST


def test_truncation_keeps_entity_whole():
    text = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    pair = build_pair(text, [8, 9], PairOrder.TEXT_FIRST, max_len=8)
    # 8 - 3 specials - 2 entity ids leaves 3 text tokens
    assert pair.input_ids == (CLS_ID, 10, 11, 12, SEP_ID, 8, 9, SEP_ID)
    assert pair.attention_mask == (1,) * 8
    entity_pair = build_pair(text, [8, 9], PairOrder.ENTITY_FIRST, max_len=8)
    assert entity_pair.input_ids == (CLS_ID, 8, 9, SEP_ID, 10, 11, 12, SEP_ID)


def test_truncation_length_accounting():
    rng = random.Random(4)
    for _ in range(200):
        max_len = rng.randint(6, 40)
        entity = [rng.randint(4, 99) for _ in range(rng.randint(1, max_len - 4))]
        text = [rng.randint(4, 99) for _ in range(rng.randint(1, 60))]
        pair = build_pair(text, entity, PairOrder.TEXT_FIRST, max_len=max_len)
        kept = min(len(text), max_len - 3 - len(entity))
        assert pair.content_len == kept + len(entity) + 3
        assert len(pair.input_ids) == max_len


def test_build_pair_rejects_bad_inputs():
    with pytest.raises(DataError, match="entity_ids is empty"):
        build_pair([5], [], PairOrder.TEXT_FIRST, max_len=8)
    with pytest.raises(DataError, match="text_ids is empty"):
        build_pair([], [5], PairOrder.TEXT_FIRST, max_len=8)
    with pytest.raises(DataError, match="max_len 6 cannot hold the entity"):
        build_pair([5], [6, 7, 8], PairOrder.TEXT_FIRST, max_len=6)


def test_build_both_orders_and_label():
    first, second = build_both([5, 6], [7], max_len=8, label_id=3)
    assert first.order is PairOrder.TEXT_FIRST
    assert second.order is PairOrder.ENTITY_FIRST
    assert first.label_id == second.label_id == 3


def test_build_both_same_id_multiset():
    first, second = build_both([5, 6, 7], [8, 9], max_len=12)
    non_special = lambda p: sorted(
        tok for tok, m in zip(p.input_ids, p.attention_mask)
        if m and tok not in (CLS_ID, SEP_ID)
    )
    assert non_special(first) == non_special(second)


def test_build_both_second_equals_swapped_build_pair():
    rng = random.Random(8)
    for _ in range(500):
        max_len = rng.randint(8, 48)
        entity = [rng.randint(4, 200) for _ in range(rng.randint(1, 3))]
        # keep text within budget so the swapped call needs no truncation
        budget = max_len - 3 - len(entity)
        text = [rng.randint(4, 200) for _ in range(rng.randint(1, budget))]
        second = build_both(text, entity, max_len=max_len)[1]
        swapped = build_pair(entity, text, PairOrder.TEXT_FIRST, max_len=max_len)
        assert second == dataclasses.replace(swapped, order=PairOrder.ENTITY_FIRST)


def test_encoded_pair_invariant_validation():
    ok = dict(first=(5,), second=(7,), order=PairOrder.TEXT_FIRST, label_id=0, max_len=6)
    EncodedPair(**ok)
    assert EncodedPair(**ok).input_ids == (2, 5, 3, 7, 3, 0)
    EncodedPair(**{**ok, "max_len": 5})
    with pytest.raises(DataError, match="content of 5 ids exceeds max_len 4"):
        EncodedPair(**{**ok, "max_len": 4})
    for bad in (PAD_ID, SEP_ID):
        with pytest.raises(DataError, match=r"must not hold \[PAD\] or \[SEP\]"):
            EncodedPair(**{**ok, "first": (5, bad)})
        with pytest.raises(DataError, match=r"must not hold \[PAD\] or \[SEP\]"):
            EncodedPair(**{**ok, "second": (bad,)})
    with pytest.raises(DataError, match="label_id"):
        EncodedPair(**{**ok, "label_id": -1})


def padded_rows(text, entity, order, max_len):
    """(input_ids, segment_ids, attention_mask) as plain lists, built one
    part at a time: the layout `block` must reproduce."""
    kept = list(text)[:max_len - 3 - len(entity)]
    first, second = (kept, list(entity)) if order is PairOrder.TEXT_FIRST else (list(entity), kept)
    ids = [CLS_ID] + first + [SEP_ID] + second + [SEP_ID]
    segments = [0] * (len(first) + 2) + [1] * (len(second) + 1)
    pad = max_len - len(ids)
    return ids + [PAD_ID] * pad, segments + [0] * pad, [1] * len(ids) + [0] * pad


def test_block_layout_matches_plain_list_rows():
    rng = random.Random(23)
    content_ids = [UNK_ID] + list(range(4, 1000))
    draw = lambda k: [rng.choice(content_ids) for _ in range(k)]
    fields = ("input_ids", "segment_ids", "attention_mask")
    n_pairs = 0
    for _ in range(120):
        max_len = rng.randint(6, 484)
        records = [(draw(rng.randint(1, max_len + 8)), draw(rng.randint(1, min(max_len - 4, 40))))
                   for _ in range(rng.randint(1, 5))]
        pairs = [build_both(t, e, max_len, label_id=i) for i, (t, e) in enumerate(records)]
        (batch,) = batchify(pairs, len(pairs))
        for column, (arrays, order) in enumerate(zip((batch.first, batch.second), PairOrder)):
            for row, (text, entity) in enumerate(records):
                want = padded_rows(text, entity, order, max_len)
                for name, expected in zip(fields, want):
                    assert getattr(arrays, name)[row].tolist() == expected
                    assert getattr(pairs[row][column], name) == tuple(expected)
                n_pairs += 1
    assert n_pairs >= 500


def test_built_pairs_satisfy_invariants_randomly():
    rng = random.Random(6)
    for _ in range(300):
        max_len = rng.randint(6, 32)
        entity = [rng.randint(4, 50) for _ in range(rng.randint(1, max_len - 4))]
        text = [rng.randint(4, 50) for _ in range(rng.randint(1, 40))]
        order = rng.choice(list(PairOrder))
        pair = build_pair(text, entity, order, max_len=max_len)
        assert pair.input_ids[0] == CLS_ID
        unmasked = [tok for tok, m in zip(pair.input_ids, pair.attention_mask) if m]
        assert unmasked.count(SEP_ID) == 2
        assert unmasked.count(CLS_ID) == 1
        assert unmasked[-1] == SEP_ID


def test_batchify_shapes_and_sizes():
    pairs = [build_both([5, 6], [7], max_len=8, label_id=i % 3) for i in range(5)]
    batches = batchify(pairs, 2)
    assert [b.size for b in batches] == [2, 2, 1]
    assert batches[0].first.input_ids.shape == (2, 8)
    assert batches[0].first.input_ids.dtype == np.int64
    assert batches[0].first.order is PairOrder.TEXT_FIRST
    assert batches[0].second.order is PairOrder.ENTITY_FIRST
    assert batchify([], 4) == []
    with pytest.raises(DataError, match="batch_size"):
        batchify(pairs, 0)


def test_batchify_concatenation_reconstructs_input():
    pairs = [build_both([4 + i, 5 + i], [9], max_len=8, label_id=i % 2) for i in range(7)]
    batches = batchify(pairs, 3)
    rows = [row for b in batches for row in b.first.input_ids.tolist()]
    assert rows == [list(a.input_ids) for a, _ in pairs]
    assert rows == [padded_rows([4 + i, 5 + i], [9], PairOrder.TEXT_FIRST, 8)[0] for i in range(7)]
    labels = [lab for b in batches for lab in b.labels.tolist()]
    assert labels == [a.label_id for a, _ in pairs]


def test_batchify_rejects_mixed_batches():
    a, b = build_both([5, 6], [7], max_len=8)
    # one tuple flipped: the first column then mixes both orders
    with pytest.raises(DataError, match="mixes pair orders"):
        batchify([(a, b), (b, a)], 2)
    short = build_pair([5], [7], PairOrder.ENTITY_FIRST, max_len=6)
    with pytest.raises(DataError, match="disagree on length"):
        batchify([(a, short)], 2)
    relabeled = dataclasses.replace(b, label_id=4)
    with pytest.raises(DataError, match="disagree on label"):
        batchify([(a, relabeled)], 2)
    # rows packed at different max_len cannot share a block
    wider = build_both([5, 6], [7], max_len=9)
    with pytest.raises(DataError, match=r"mixes max_len values: \[8, 9\]"):
        batchify([(a, b), wider], 2)
    assert [batch.size for batch in batchify([(a, b), wider], 1)] == [1, 1]
