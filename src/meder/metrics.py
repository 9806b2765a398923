"""Confusion matrix and classification metrics.

All ratios are computed with `fractions.Fraction` and only converted to
64-bit floats at the serialization boundary, so the algebraic identities
(micro F1 = accuracy = weighted recall for single-label multiclass,
macro F1 = mean of per-class F1) hold exactly instead of up to rounding.

Zero-denominator convention: a metric whose denominator is zero is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DataError

REPORT_SCHEMA = "meder-metrics-report/1"


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square matrix of counts[actual][predicted]."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.counts)
        for row in self.counts:
            if len(row) != n:
                raise DataError(f"confusion matrix is not square: {n} rows, row of length {len(row)}")
            for c in row:
                if not isinstance(c, int) or c < 0:
                    raise DataError(f"confusion matrix counts must be non-negative integers, got {c!r}")

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class PerClassScores:
    precision: tuple[Fraction, ...]
    recall: tuple[Fraction, ...]
    f1: tuple[Fraction, ...]
    support: tuple[int, ...]


@dataclass(frozen=True)
class MetricsReport:
    n_classes: int
    total: int
    per_class: PerClassScores
    accuracy: Fraction
    macro_precision: Fraction
    macro_recall: Fraction
    macro_f1: Fraction
    micro_f1: Fraction
    weighted_precision: Fraction
    weighted_recall: Fraction
    weighted_f1: Fraction


def confusion(golds: Sequence[int], preds: Sequence[int], n_classes: int) -> ConfusionMatrix:
    """Count (actual, predicted) label pairs into an n_classes matrix."""
    if len(golds) != len(preds):
        raise DataError(f"golds and preds differ in length: {len(golds)} vs {len(preds)}")
    counts = [[0] * n_classes for _ in range(n_classes)]
    for g, p in zip(golds, preds):
        if not (0 <= g < n_classes):
            raise DataError(f"gold label id {g} out of range for {n_classes} classes")
        if not (0 <= p < n_classes):
            raise DataError(f"predicted label id {p} out of range for {n_classes} classes")
        counts[g][p] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts))


def _ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den) if den else Fraction(0)


def per_class(cm: ConfusionMatrix) -> PerClassScores:
    """Per-class precision, recall, F1 and support, all exact.  Class i's
    TP is counts[i][i], TP + FP its column sum and TP + FN its row sum."""
    precisions, recalls, f1s = [], [], []
    supports = tuple(sum(row) for row in cm.counts)
    predicted = [sum(col) for col in zip(*cm.counts)]
    for i in range(cm.n_classes):
        tp = cm.counts[i][i]
        p = _ratio(tp, predicted[i])
        r = _ratio(tp, supports[i])
        f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
    return PerClassScores(tuple(precisions), tuple(recalls), tuple(f1s), supports)


def aggregate(cm: ConfusionMatrix) -> MetricsReport:
    """Full metrics report: accuracy, macro/micro/weighted aggregates."""
    n = cm.total
    if n == 0:
        raise DataError("cannot aggregate metrics over an empty confusion matrix")
    pc = per_class(cm)
    k = cm.n_classes
    sum_tp = sum(cm.counts[i][i] for i in range(k))
    sum_fp = sum(sum(col) - col[i] for i, col in enumerate(zip(*cm.counts)))
    sum_fn = sum(sum(row) - row[i] for i, row in enumerate(cm.counts))

    accuracy = Fraction(sum_tp, n)
    # micro F1 pools the per-class counts before forming the ratio
    micro_den = sum_tp + Fraction(1, 2) * (sum_fn + sum_fp)
    micro_f1 = sum_tp / micro_den if micro_den else Fraction(0)

    def macro(values: tuple[Fraction, ...]) -> Fraction:
        return Fraction(sum(values), k)

    def weighted(values: tuple[Fraction, ...]) -> Fraction:
        return sum((Fraction(s, n) * v for s, v in zip(pc.support, values)), Fraction(0))

    return MetricsReport(
        n_classes=k,
        total=n,
        per_class=pc,
        accuracy=accuracy,
        macro_precision=macro(pc.precision),
        macro_recall=macro(pc.recall),
        macro_f1=macro(pc.f1),
        micro_f1=micro_f1,
        weighted_precision=weighted(pc.precision),
        weighted_recall=weighted(pc.recall),
        weighted_f1=weighted(pc.f1),
    )


# ---------------------------------------------------------------------------
# Rendering


@dataclass(frozen=True)
class RenderedReport:
    table_text: str
    report_json: str
    confusion_csv: str


def _pct(value: Fraction) -> str:
    return f"{float(value) * 100:.2f}"


def render(cm: ConfusionMatrix, labels: Sequence[str]) -> RenderedReport:
    """Render a matrix's report as a text table, a JSON document, and a
    confusion CSV."""
    if len(labels) != cm.n_classes:
        raise DataError(f"{len(labels)} label names for {cm.n_classes} classes")
    report = aggregate(cm)

    width = max(len(str(lab)) for lab in list(labels) + ["Overall Accuracy"]) + 2
    lines = [f"{'Metric':<{width}}{'Precision (%)':>15}{'Recall (%)':>13}{'F1-Score (%)':>15}"]
    pc = report.per_class
    for i, lab in enumerate(labels):
        lines.append(
            f"{lab:<{width}}{_pct(pc.precision[i]):>15}{_pct(pc.recall[i]):>13}{_pct(pc.f1[i]):>15}"
        )
    lines.append(
        f"{'Macro Avg':<{width}}{_pct(report.macro_precision):>15}"
        f"{_pct(report.macro_recall):>13}{_pct(report.macro_f1):>15}"
    )
    lines.append(
        f"{'Weighted Avg':<{width}}{_pct(report.weighted_precision):>15}"
        f"{_pct(report.weighted_recall):>13}{_pct(report.weighted_f1):>15}"
    )
    lines.append(f"{'Overall Accuracy':<{width}}{_pct(report.accuracy):>15}")
    lines.append(f"{'Micro F1-Score':<{width}}{_pct(report.micro_f1):>15}")
    lines.append(f"{'Macro F1-Score':<{width}}{_pct(report.macro_f1):>15}")
    table_text = "\n".join(lines) + "\n"

    report_json = report_to_json(report, labels)

    csv_lines = ["actual," + ",".join(str(lab) for lab in labels)]
    for i, lab in enumerate(labels):
        csv_lines.append(f"{lab}," + ",".join(str(c) for c in cm.counts[i]))
    confusion_csv = "\n".join(csv_lines) + "\n"

    return RenderedReport(table_text, report_json, confusion_csv)


def report_data(report: MetricsReport, labels: Sequence[str]) -> dict:
    """The report as plain JSON data; Fractions become 64-bit floats here."""
    pc = report.per_class
    return {
        "schema": REPORT_SCHEMA,
        "labels": list(labels),
        "total": report.total,
        "accuracy": float(report.accuracy),
        "macro": {
            "precision": float(report.macro_precision),
            "recall": float(report.macro_recall),
            "f1": float(report.macro_f1),
        },
        "micro_f1": float(report.micro_f1),
        "weighted": {
            "precision": float(report.weighted_precision),
            "recall": float(report.weighted_recall),
            "f1": float(report.weighted_f1),
        },
        "per_class": [
            {
                "label": str(lab),
                "precision": float(pc.precision[i]),
                "recall": float(pc.recall[i]),
                "f1": float(pc.f1[i]),
                "support": pc.support[i],
            }
            for i, lab in enumerate(labels)
        ],
    }


def report_to_json(report: MetricsReport, labels: Sequence[str]) -> str:
    """Serialize `report_data` deterministically."""
    doc = report_data(report, labels)
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
