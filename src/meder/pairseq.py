"""Packed dual-order input sequences.

Every observation becomes two fixed-length sequences over the same ids:
[CLS] text [SEP] entity [SEP] and [CLS] entity [SEP] text [SEP], one per
encoder branch.  The entity is never truncated; overflowing text is cut
from the right.  A pair stores only its content and max_len; `block`
lays out the padded arrays.
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
    """One packing of an observation: the content ids of the two parts
    (without specials) and the length `block` pads the row to."""

    first: tuple[int, ...]
    second: tuple[int, ...]
    order: PairOrder
    label_id: int
    max_len: int

    def __post_init__(self) -> None:
        if self.content_len > self.max_len:
            raise DataError(f"content of {self.content_len} ids exceeds max_len {self.max_len}")
        for part in (self.first, self.second):
            if PAD_ID in part or SEP_ID in part:
                raise DataError("pair content must not hold [PAD] or [SEP]")
        if self.label_id < 0:
            raise DataError(f"label_id must be non-negative, got {self.label_id}")

    @property
    def content_len(self) -> int:
        return len(self.first) + len(self.second) + 3

    @property
    def input_ids(self) -> tuple[int, ...]:
        return tuple(block([self]).input_ids[0].tolist())

    @property
    def segment_ids(self) -> tuple[int, ...]:
        return tuple(block([self]).segment_ids[0].tolist())

    @property
    def attention_mask(self) -> tuple[int, ...]:
        return tuple(block([self]).attention_mask[0].tolist())


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
    text_kept = tuple(text_ids[:budget])
    if order is PairOrder.TEXT_FIRST:
        first, second = text_kept, tuple(entity_ids)
    elif order is PairOrder.ENTITY_FIRST:
        first, second = tuple(entity_ids), text_kept
    else:
        raise DataError(f"unknown pair order {order!r}")
    return EncodedPair(first, second, order, label_id, max_len)


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
    """Lay out one branch's pairs, all of one order and max_len, as
    [CLS] first [SEP] second [SEP] rows padded with [PAD] to max_len;
    segment 1 runs from the second part to the final [SEP]."""
    orders = {p.order for p in pairs}
    if len(orders) != 1:
        raise DataError(f"batch mixes pair orders: {sorted(o.value for o in orders)}")
    lengths = {p.max_len for p in pairs}
    if len(lengths) != 1:
        raise DataError(f"batch mixes max_len values: {sorted(lengths)}")
    cols = np.arange(lengths.pop())
    mask = cols < np.array([p.content_len for p in pairs])[:, None]
    input_ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    input_ids[mask] = [
        tok for p in pairs for tok in (CLS_ID, *p.first, SEP_ID, *p.second, SEP_ID)
    ]
    second_start = np.array([len(p.first) + 2 for p in pairs])[:, None]
    return BatchBlock(
        input_ids=input_ids,
        segment_ids=(mask & (cols >= second_start)).astype(np.int64),
        attention_mask=mask.astype(np.int64),
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
            if a.max_len != b.max_len:
                raise DataError(
                    f"pair elements disagree on length: max_len {a.max_len} vs {b.max_len}"
                )
        batches.append(PairBatch(
            first=block([a for a, _ in chunk]),
            second=block([b for _, b in chunk]),
            labels=np.array([a.label_id for a, _ in chunk], dtype=np.int64),
        ))
    return batches
