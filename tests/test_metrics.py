"""Metrics tests against a brute-force counting oracle and hand-worked values."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meder.errors import DataError
from meder.metrics import (
    ConfusionMatrix,
    aggregate,
    confusion,
    per_class,
    render,
    report_to_json,
)


def matrix_to_pairs(counts):
    """Expand a confusion matrix into the (gold, pred) stream it counts."""
    pairs = []
    for g, row in enumerate(counts):
        for p, c in enumerate(row):
            pairs.extend([(g, p)] * c)
    return pairs


def oracle_scores(counts):
    """Brute-force per-class scores by scanning the (gold, pred) stream.

    Independent of the metrics module: counts TP/FP/FN per class directly,
    then forms each ratio with Fraction.
    """
    pairs = matrix_to_pairs(counts)
    n_classes = len(counts)
    out = []
    for i in range(n_classes):
        tp = sum(1 for g, p in pairs if g == i and p == i)
        fp = sum(1 for g, p in pairs if g != i and p == i)
        fn = sum(1 for g, p in pairs if g == i and p != i)
        support = sum(1 for g, p in pairs if g == i)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        if precision + recall:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = Fraction(0)
        out.append((precision, recall, f1, support, tp, fp, fn))
    return out


def oracle_aggregate(counts):
    """Brute-force aggregates from the per-class oracle."""
    pairs = matrix_to_pairs(counts)
    scores = oracle_scores(counts)
    n = len(pairs)
    k = len(counts)
    correct = sum(1 for g, p in pairs if g == p)
    accuracy = Fraction(correct, n)
    sum_tp = sum(s[4] for s in scores)
    sum_fp = sum(s[5] for s in scores)
    sum_fn = sum(s[6] for s in scores)
    micro_f1 = Fraction(sum_tp, 1) / (sum_tp + Fraction(sum_fn + sum_fp, 2))
    macro_f1 = sum(s[2] for s in scores) / k
    weighted_f1 = sum(Fraction(s[3], n) * s[2] for s in scores)
    weighted_recall = sum(Fraction(s[3], n) * s[1] for s in scores)
    return accuracy, micro_f1, macro_f1, weighted_f1, weighted_recall


def random_matrix(rng, max_classes=8, max_total=500):
    """A random square count matrix with at least one example."""
    k = rng.randint(2, max_classes)
    total = rng.randint(1, max_total)
    counts = [[0] * k for _ in range(k)]
    for _ in range(total):
        counts[rng.randrange(k)][rng.randrange(k)] += 1
    return tuple(tuple(row) for row in counts)


def test_oracle_equivalence_on_random_matrices():
    rng = random.Random(20260814)
    for _ in range(1000):
        counts = random_matrix(rng)
        cm = ConfusionMatrix(counts)
        pc = per_class(cm)
        report = aggregate(cm)
        expected = oracle_scores(counts)
        for i, (precision, recall, f1, support, *_) in enumerate(expected):
            assert pc.precision[i] == precision
            assert pc.recall[i] == recall
            assert pc.f1[i] == f1
            assert pc.support[i] == support
        accuracy, micro_f1, macro_f1, weighted_f1, weighted_recall = oracle_aggregate(counts)
        assert report.accuracy == accuracy
        assert report.micro_f1 == micro_f1
        assert report.macro_f1 == macro_f1
        assert report.weighted_f1 == weighted_f1
        assert report.weighted_recall == weighted_recall


def test_algebraic_identities_on_random_matrices():
    rng = random.Random(99)
    for _ in range(1000):
        cm = ConfusionMatrix(random_matrix(rng))
        report = aggregate(cm)
        assert report.micro_f1 == report.accuracy
        assert report.weighted_recall == report.accuracy
        assert report.macro_f1 == Fraction(sum(report.per_class.f1), cm.n_classes)


def test_worked_example():
    counts = ((2, 1, 0), (0, 3, 1), (1, 0, 2))
    cm = ConfusionMatrix(counts)
    pc = per_class(cm)
    assert pc.precision == (Fraction(2, 3), Fraction(3, 4), Fraction(2, 3))
    assert pc.recall == (Fraction(2, 3), Fraction(3, 4), Fraction(2, 3))
    assert pc.f1 == (Fraction(2, 3), Fraction(3, 4), Fraction(2, 3))
    assert pc.support == (3, 4, 3)
    report = aggregate(cm)
    assert report.accuracy == Fraction(7, 10)
    assert report.micro_f1 == Fraction(7, 10)
    assert report.macro_f1 == Fraction(25, 36)
    assert report.weighted_f1 == Fraction(7, 10)


def test_confusion_diagonal_and_empty():
    cm = confusion([0, 1, 2], [0, 1, 2], 3)
    assert cm.counts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    empty = confusion([], [], 3)
    assert empty.counts == ((0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert empty.total == 0


def test_confusion_rejects_bad_input():
    with pytest.raises(DataError, match="differ in length"):
        confusion([0, 1], [0], 2)
    with pytest.raises(DataError, match="out of range"):
        confusion([0, 3], [0, 0], 3)
    with pytest.raises(DataError, match="out of range"):
        confusion([0, 0], [0, -1], 3)
    with pytest.raises(DataError, match="not square"):
        ConfusionMatrix(((1, 0), (0,)))
    with pytest.raises(DataError, match="non-negative"):
        ConfusionMatrix(((1, -1), (0, 1)))


def test_perfect_diagonal_scores_one():
    cm = ConfusionMatrix(((5, 0), (0, 7)))
    report = aggregate(cm)
    assert report.accuracy == 1
    assert report.macro_f1 == 1
    assert report.per_class.precision == (1, 1)
    assert report.per_class.recall == (1, 1)


def test_zero_denominator_convention():
    # class 2 has no golds and no predictions: everything 0 by convention
    cm = ConfusionMatrix(((3, 0, 0), (0, 2, 0), (0, 0, 0)))
    pc = per_class(cm)
    assert pc.precision[2] == 0
    assert pc.recall[2] == 0
    assert pc.f1[2] == 0
    assert pc.support[2] == 0


def test_aggregate_rejects_empty_matrix():
    cm = ConfusionMatrix(((0, 0), (0, 0)))
    with pytest.raises(DataError, match="empty"):
        aggregate(cm)


def test_weighted_reduces_to_macro_on_equal_supports():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(2, 5)
        # force equal row sums by drawing each row to the same total
        row_total = rng.randint(1, 20)
        counts = []
        for _ in range(k):
            row = [0] * k
            for _ in range(row_total):
                row[rng.randrange(k)] += 1
            counts.append(tuple(row))
        report = aggregate(ConfusionMatrix(tuple(counts)))
        assert report.weighted_f1 == report.macro_f1
        assert report.weighted_precision == report.macro_precision


def test_permutation_invariance_of_aggregates():
    rng = random.Random(3)
    for _ in range(100):
        counts = random_matrix(rng, max_classes=5, max_total=60)
        k = len(counts)
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = tuple(
            tuple(counts[perm[i]][perm[j]] for j in range(k)) for i in range(k)
        )
        a = aggregate(ConfusionMatrix(counts))
        b = aggregate(ConfusionMatrix(permuted))
        assert a.accuracy == b.accuracy
        assert a.micro_f1 == b.micro_f1
        assert a.macro_f1 == b.macro_f1
        assert a.weighted_f1 == b.weighted_f1
        assert sorted(a.per_class.f1) == sorted(b.per_class.f1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=100,
    )
)
def test_micro_f1_equals_accuracy_property(pairs):
    golds = [g for g, _ in pairs]
    preds = [p for _, p in pairs]
    report = aggregate(confusion(golds, preds, 6))
    assert report.micro_f1 == report.accuracy
    assert report.weighted_recall == report.accuracy


def test_render_formats_percentages():
    cm = ConfusionMatrix(((7, 1), (1, 7)))
    rendered = render(cm, ["A", "B"])
    assert "87.50" in rendered.table_text
    assert "Overall Accuracy" in rendered.table_text
    assert "Micro F1-Score" in rendered.table_text
    assert "Macro F1-Score" in rendered.table_text
    assert "Weighted Avg" in rendered.table_text


def test_render_csv_shape():
    cm = ConfusionMatrix(((2, 1, 0), (0, 3, 1), (1, 0, 2)))
    rendered = render(cm, ["x", "y", "z"])
    lines = rendered.confusion_csv.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "actual,x,y,z"
    assert lines[1] == "x,2,1,0"


def test_render_rejects_label_mismatch():
    cm = ConfusionMatrix(((1, 0), (0, 1)))
    with pytest.raises(DataError, match="label names"):
        render(cm, ["only-one"])


def test_report_json_is_byte_identical_across_calls():
    cm = ConfusionMatrix(((2, 1, 0), (0, 3, 1), (1, 0, 2)))
    labels = ["alpha", "beta", "gamma"]
    first = report_to_json(aggregate(cm), labels)
    assert report_to_json(aggregate(cm), labels) == first
    doc = json.loads(first)
    assert doc["accuracy"] == 0.7
    assert doc["per_class"][1]["support"] == 4
