"""Packed dual-order input sequences.

Every observation becomes two fixed-length sequences over the same ids:
[CLS] text [SEP] entity [SEP] and [CLS] entity [SEP] text [SEP], one per
encoder branch.  The entity is never truncated; overflowing text is cut
from the right.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .tokenizer import CLS_ID, PAD_ID, SEP_ID

DEFAULT_MAX_LEN = 484


class PairOrder(enum.Enum):
    TEXT_FIRST = "text_first"
    ENTITY_FIRST = "entity_first"


@dataclass(frozen=True)
class EncodedPair:
    input_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    order: PairOrder
    label_id: int

    def __post_init__(self) -> None:
        n = len(self.input_ids)
        if len(self.segment_ids) != n or len(self.attention_mask) != n:
            raise DataError(
                f"pair arrays disagree on length: ids {n}, segments "
                f"{len(self.segment_ids)}, mask {len(self.attention_mask)}"
            )
        if n == 0 or self.input_ids[0] != CLS_ID:
            raise DataError("input_ids must start with [CLS]")
        ids, segs, mask = self.input_ids, self.segment_ids, self.attention_mask
        k = mask.count(1)
        if k + mask.count(0) != n:
            raise DataError("attention_mask entries must be 0 or 1")
        if segs.count(0) + segs.count(1) != n:
            raise DataError("segment_ids entries must be 0 or 1")
        if mask[k:].count(1):
            raise DataError("attention_mask must be a prefix of 1s followed by 0s")
        if PAD_ID in ids[:k] or ids[k:].count(PAD_ID) != n - k or segs[k:].count(0) != n - k:
            # some position breaks the layout; report the first one
            for i, (tok, m) in enumerate(zip(ids, mask)):
                if (tok != PAD_ID) != (m == 1):
                    raise DataError(f"position {i}: mask {m} inconsistent with id {tok}")
                if m == 0 and segs[i] != 0:
                    raise DataError(f"position {i}: padding must carry segment 0")
        seps = ids[:k].count(SEP_ID)
        if seps != 2:
            raise DataError(f"expected exactly 2 [SEP] tokens, found {seps}")
        if self.label_id < 0:
            raise DataError(f"label_id must be non-negative, got {self.label_id}")

    @property
    def content_len(self) -> int:
        return self.attention_mask.count(1)


def build_pair(
    text_ids: Sequence[int],
    entity_ids: Sequence[int],
    order: PairOrder,
    max_len: int = DEFAULT_MAX_LEN,
    label_id: int = 0,
) -> EncodedPair:
    """Pack one observation as [CLS] A [SEP] B [SEP] plus padding.

    (A, B) is (text, entity) for TEXT_FIRST and (entity, text) for
    ENTITY_FIRST.  Text is truncated from the right to fit; the entity
    must fit whole, with room for at least one text token.
    """
    if not entity_ids:
        raise DataError("entity_ids is empty")
    if not text_ids:
        raise DataError("text_ids is empty")
    budget = max_len - 3 - len(entity_ids)
    if budget < 1:
        raise DataError(
            f"max_len {max_len} cannot hold the entity ({len(entity_ids)} ids) "
            "plus specials and at least one text token"
        )
    text_kept = list(text_ids)[:budget]
    if order is PairOrder.TEXT_FIRST:
        first, second = text_kept, list(entity_ids)
    elif order is PairOrder.ENTITY_FIRST:
        first, second = list(entity_ids), text_kept
    else:
        raise DataError(f"unknown pair order {order!r}")
    ids = [CLS_ID] + first + [SEP_ID] + second + [SEP_ID]
    segments = [0] * (len(first) + 2) + [1] * (len(second) + 1)
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    return EncodedPair(
        input_ids=tuple(ids + [PAD_ID] * pad),
        segment_ids=tuple(segments + [0] * pad),
        attention_mask=tuple(mask + [0] * pad),
        order=order,
        label_id=label_id,
    )


def build_both(
    text_ids: Sequence[int],
    entity_ids: Sequence[int],
    max_len: int = DEFAULT_MAX_LEN,
    label_id: int = 0,
) -> tuple[EncodedPair, EncodedPair]:
    """The (TEXT_FIRST, ENTITY_FIRST) pair for one observation."""
    return (
        build_pair(text_ids, entity_ids, PairOrder.TEXT_FIRST, max_len, label_id),
        build_pair(text_ids, entity_ids, PairOrder.ENTITY_FIRST, max_len, label_id),
    )


@dataclass(frozen=True)
class BatchBlock:
    """One branch's arrays for a batch: all [B, L] int64."""

    input_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    order: PairOrder


@dataclass(frozen=True)
class PairBatch:
    first: BatchBlock
    second: BatchBlock
    labels: np.ndarray

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


def block(pairs: Sequence[EncodedPair]) -> BatchBlock:
    """Stack one branch's pairs, all of one order, into its arrays."""
    orders = {p.order for p in pairs}
    if len(orders) != 1:
        raise DataError(f"batch mixes pair orders: {sorted(o.value for o in orders)}")
    return BatchBlock(
        input_ids=np.array([p.input_ids for p in pairs], dtype=np.int64),
        segment_ids=np.array([p.segment_ids for p in pairs], dtype=np.int64),
        attention_mask=np.array([p.attention_mask for p in pairs], dtype=np.int64),
        order=next(iter(orders)),
    )


def batchify(
    pairs: Sequence[tuple[EncodedPair, EncodedPair]], batch_size: int
) -> list[PairBatch]:
    """Order-preserving chunks of batch_size; the last may be short."""
    if batch_size < 1:
        raise DataError(f"batch_size must be at least 1, got {batch_size}")
    batches = []
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start:start + batch_size]
        for a, b in chunk:
            if a.label_id != b.label_id:
                raise DataError(
                    f"pair elements disagree on label: {a.label_id} vs {b.label_id}"
                )
            if len(a.input_ids) != len(b.input_ids):
                raise DataError(
                    f"pair elements disagree on length: {len(a.input_ids)} vs {len(b.input_ids)}"
                )
        batches.append(PairBatch(
            first=block([a for a, _ in chunk]),
            second=block([b for _, b in chunk]),
            labels=np.array([a.label_id for a, _ in chunk], dtype=np.int64),
        ))
    return batches
