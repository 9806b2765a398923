"""Dataset ingestion, validation, splitting and class statistics.

Records live in UTF-8 JSONL files with exactly the fields
{id, text, entity, label}; label names come from a LabelSet (one label
per line in its file, order significant).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import DataError

# Default category inventory, in the canonical order (ids 0..5).
DEFAULT_LABELS = (
    "Medicine/Chemical Name",
    "Common Medical Terms",
    "Disease",
    "Organ",
    "Pharmacological Class",
    "Hormone",
)

# Per-class sizes of the published full-scale dataset, same order as
# DEFAULT_LABELS.  Their sum (6913) disagrees with the dataset's stated
# total (6895); `published_total_note` surfaces that discrepancy.
PUBLISHED_CLASS_COUNTS = (1938, 1127, 1098, 1066, 877, 807)
PUBLISHED_TOTAL = 6895

_RECORD_FIELDS = {"id", "text", "entity", "label"}


@dataclass(frozen=True)
class RawRecord:
    """One annotated observation: a statement, a mention, its category."""

    id: str
    text: str
    entity: str
    label: str


@dataclass(frozen=True)
class LabelSet:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise DataError(f"label names are not unique: {self.names}")
        if not self.names:
            raise DataError("label set is empty")

    @property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise DataError(f"unknown label {name!r}; known labels: {list(self.names)}") from None

    @classmethod
    def default(cls) -> "LabelSet":
        return cls(DEFAULT_LABELS)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "LabelSet":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        names = tuple(line.strip() for line in lines if line.strip())
        return cls(names)

    def to_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text("".join(f"{n}\n" for n in self.names), encoding="utf-8")


def as_fraction(value) -> Fraction:
    """Exact fraction from int/float/str/Fraction; floats go via str()
    so 0.8 means the decimal 8/10, not its binary approximation.  A
    non-finite or unparseable value is a DataError."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except ValueError:
        raise DataError(f"split fraction must be a finite number, got {value!r}") from None


@dataclass(frozen=True)
class SplitSpec:
    train_frac: Fraction
    val_frac: Fraction
    test_frac: Fraction
    seed: int = 42
    stratified: bool = True

    def __post_init__(self) -> None:
        for field in ("train_frac", "val_frac", "test_frac"):
            object.__setattr__(self, field, as_fraction(getattr(self, field)))
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fracs):
            raise DataError(f"split fractions must be non-negative, got {fracs}")
        if sum(fracs) != 1:
            raise DataError(f"split fractions must sum to exactly 1, got {fracs} (sum {sum(fracs)})")

    @classmethod
    def default(cls) -> "SplitSpec":
        return cls(Fraction(8, 10), Fraction(1, 10), Fraction(1, 10), seed=42, stratified=True)


@dataclass(frozen=True)
class ClassStats:
    counts: dict[str, int]
    total: int


def _validate_record(raw: dict, lineno: int, labels: LabelSet, seen_ids: set) -> RawRecord:
    if not isinstance(raw, dict):
        raise DataError(f"line {lineno}: record is not a JSON object")
    extra = set(raw) - _RECORD_FIELDS
    if extra:
        raise DataError(f"line {lineno}: unknown fields {sorted(extra)}")
    missing = _RECORD_FIELDS - set(raw)
    if missing:
        raise DataError(f"line {lineno}: missing fields {sorted(missing)}")
    for field in _RECORD_FIELDS:
        if not isinstance(raw[field], str):
            raise DataError(f"line {lineno}: field {field!r} must be a string")
    rec = RawRecord(id=raw["id"], text=raw["text"], entity=raw["entity"], label=raw["label"])
    if not unicodedata.normalize("NFC", rec.text).strip():
        raise DataError(f"line {lineno}: text is empty after normalization (id {rec.id!r})")
    if not unicodedata.normalize("NFC", rec.entity).strip():
        raise DataError(f"line {lineno}: entity is empty after normalization (id {rec.id!r})")
    if rec.label not in labels.index:
        raise DataError(f"line {lineno}: unknown label {rec.label!r}; known labels: {list(labels.names)}")
    if rec.id in seen_ids:
        raise DataError(f"line {lineno}: duplicate record id {rec.id!r}")
    seen_ids.add(rec.id)
    return rec


def load_corpus(path: Union[str, Path], labels: LabelSet) -> list[RawRecord]:
    """Load and validate all records from a JSONL file, in file order."""
    p = Path(path)
    records: list[RawRecord] = []
    seen_ids: set = set()
    with p.open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"line {lineno}: malformed JSON: {e.msg}") from e
            records.append(_validate_record(raw, lineno, labels, seen_ids))
    return records


def write_corpus(records: Iterable[RawRecord], path: Union[str, Path]) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(
                {"id": r.id, "text": r.text, "entity": r.entity, "label": r.label},
                ensure_ascii=False,
            ) + "\n")


def count_entity_mismatches(records: Sequence[RawRecord]) -> int:
    """Records whose entity does not occur as a substring of the text.

    Not a validation failure; the count is reported by `stats`.
    """
    return sum(1 for r in records if r.entity not in r.text)


def class_stats(records: Sequence[RawRecord], labels: LabelSet) -> ClassStats:
    counts = {name: 0 for name in labels.names}
    for r in records:
        if r.label not in counts:
            raise DataError(f"record {r.id!r} has unknown label {r.label!r}")
        counts[r.label] += 1
    return ClassStats(counts=counts, total=len(records))


def published_total_note(stats: ClassStats) -> str | None:
    """Warning text when the stats match the published per-class counts,
    whose sum disagrees with the published overall total."""
    if tuple(stats.counts.get(name, -1) for name in DEFAULT_LABELS) != PUBLISHED_CLASS_COUNTS:
        return None
    s = sum(PUBLISHED_CLASS_COUNTS)
    if s == PUBLISHED_TOTAL:
        return None
    return (
        f"WARNING: per-class counts sum to {s}, but the published dataset "
        f"total is {PUBLISHED_TOTAL} (difference {s - PUBLISHED_TOTAL}); "
        "both figures are reported as-is."
    )


def split_fingerprint(records: Sequence[RawRecord]) -> str:
    """sha256 over the record ids, in split order."""
    h = hashlib.sha256()
    for r in records:
        h.update(r.id.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _stratified_counts(
    sizes: dict[str, int],
    bucket_order: list[str],
    n_val: int,
    n_test: int,
) -> tuple[dict[str, int], dict[str, int]]:
    """Per-label val/test counts (train takes the per-label remainder).

    Controlled rounding of the label-by-split share matrix: each
    label's target in a split is the split size times the label's
    overall proportion, and the chosen count is always that target's
    floor or ceiling, so no label drifts by more than one record from
    its proportion in any split.  Each label owns `slack` leftover
    records after flooring its three targets; every slack record must
    land in a distinct split, largest fractional remainder first.
    Two ordering constraints keep that placement feasible: enough
    two-slack labels must be served already in val that test can
    absorb the rest, and every remaining two-slack label must be
    served in test.
    """
    n = sum(sizes.values())
    n_train = n - n_val - n_test
    base: dict[str, dict[str, int]] = {}
    rem: dict[str, dict[str, Fraction]] = {}
    slack: dict[str, int] = {}
    for lab in bucket_order:
        targets = {
            "val": Fraction(n_val * sizes[lab], n),
            "test": Fraction(n_test * sizes[lab], n),
            "train": Fraction(n_train * sizes[lab], n),
        }
        base[lab] = {col: math.floor(t) for col, t in targets.items()}
        rem[lab] = {col: targets[col] - base[lab][col] for col in targets}
        slack[lab] = sizes[lab] - sum(base[lab].values())

    demand_val = n_val - sum(base[lab]["val"] for lab in bucket_order)
    demand_test = n_test - sum(base[lab]["test"] for lab in bucket_order)
    order = {lab: i for i, lab in enumerate(bucket_order)}

    def take(col: str, candidates: list[str], k: int) -> list[str]:
        ranked = sorted(candidates, key=lambda lab: (-rem[lab][col], order[lab]))
        chosen = ranked[:k]
        for lab in chosen:
            slack[lab] -= 1
        return chosen

    two_slack = [lab for lab in bucket_order if slack[lab] == 2]
    must_val = max(0, len(two_slack) - demand_test)
    val_chosen = take("val", two_slack, must_val)
    val_chosen += take(
        "val",
        [lab for lab in bucket_order if slack[lab] >= 1 and lab not in val_chosen],
        demand_val - len(val_chosen),
    )
    test_chosen = take("test", [lab for lab in bucket_order if slack[lab] == 2], demand_test)
    test_chosen += take(
        "test",
        [lab for lab in bucket_order if slack[lab] >= 1 and lab not in test_chosen],
        demand_test - len(test_chosen),
    )

    val_extra = {lab: val_chosen.count(lab) for lab in bucket_order}
    test_extra = {lab: test_chosen.count(lab) for lab in bucket_order}
    val_by = {lab: base[lab]["val"] + val_extra[lab] for lab in bucket_order}
    test_by = {lab: base[lab]["test"] + test_extra[lab] for lab in bucket_order}
    return val_by, test_by


def split(
    records: Sequence[RawRecord], spec: SplitSpec
) -> tuple[list[RawRecord], list[RawRecord], list[RawRecord]]:
    """Deterministic (train, val, test) partition.

    Sizes follow the floor rule on the whole corpus: floor(val), floor(test),
    remainder to train.  Stratified mode applies the same rule per label and
    then places the leftover records so that every label's count in every
    split stays within one record of its proportional share.
    """
    if not records:
        raise DataError("cannot split an empty record list")
    n = len(records)
    n_val = math.floor(spec.val_frac * n)
    n_test = math.floor(spec.test_frac * n)
    n_train = n - n_val - n_test
    if n_train <= 0:
        raise DataError(
            f"fractions {spec.train_frac}/{spec.val_frac}/{spec.test_frac} "
            f"leave an empty train split for {n} records"
        )
    rng = random.Random(spec.seed)

    # an unstratified split is a stratified split over one bucket
    buckets: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        buckets.setdefault(r.label if spec.stratified else "", []).append(i)
    bucket_order = list(buckets)
    for lab in bucket_order:
        rng.shuffle(buckets[lab])

    sizes = {lab: len(buckets[lab]) for lab in bucket_order}
    n_val_by, n_test_by = _stratified_counts(sizes, bucket_order, n_val, n_test)

    val_idx, test_idx, train_idx = [], [], []
    for lab in bucket_order:
        b = buckets[lab]
        v, t = n_val_by[lab], n_test_by[lab]
        val_idx.extend(b[:v])
        test_idx.extend(b[v:v + t])
        train_idx.extend(b[v + t:])

    return (
        [records[i] for i in train_idx],
        [records[i] for i in val_idx],
        [records[i] for i in test_idx],
    )
