"""Acceptance gate: one test per shipping criterion, at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.  Criterion 10 needs a local copy of the published dataset and
is skipped unless MEDER_DATASET points at it (JSONL, or a CSV/TSV export
to be converted first).
"""

import dataclasses
import json
import os
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from meder.bundled import SAMPLE_CORPUS_FILE, SAMPLE_LABELS_FILE, data_path
from meder.cli import main as cli_main
from meder.corpus import (
    DEFAULT_LABELS,
    PUBLISHED_CLASS_COUNTS,
    PUBLISHED_TOTAL,
    LabelSet,
    SplitSpec,
    class_stats,
    load_corpus,
    published_total_note,
    split,
)
from meder.metrics import aggregate, confusion
from meder.model import Classifier, ModelConfig, forward_batch, forward_pairs
from meder.numcore import cross_entropy, grad_check, use_dtype
from meder.pairseq import PairOrder, batchify, build_both, build_pair
from meder.textprep import PrepConfig, preprocess_record
from meder.tokenizer import train_vocab
from meder.trainer import COMPARISON_JSON_SCHEMA, TrainConfig, compare, prepare_data, train

README = Path(__file__).resolve().parents[1] / "README.md"


# --------------------------------------------------------------------------
# Criteria 1-3: exact metric arithmetic


def _oracle_scores(golds, preds, k):
    """Brute-force counting over the raw (gold, pred) stream."""
    per = []
    tp_all = fp_all = fn_all = 0
    for c in range(k):
        tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else Fraction(0))
        per.append((precision, recall, f1, tp + fn))
    correct = sum(1 for g, p in zip(golds, preds) if g == p)
    n = len(golds)
    micro_den = tp_all + Fraction(1, 2) * (fn_all + fp_all)
    agg = {
        "accuracy": Fraction(correct, n),
        "macro_precision": Fraction(sum(x[0] for x in per), k),
        "macro_recall": Fraction(sum(x[1] for x in per), k),
        "macro_f1": Fraction(sum(x[2] for x in per), k),
        "weighted_precision": sum(Fraction(x[3], n) * x[0] for x in per),
        "weighted_recall": sum(Fraction(x[3], n) * x[1] for x in per),
        "weighted_f1": sum(Fraction(x[3], n) * x[2] for x in per),
        "micro_f1": tp_all / micro_den if micro_den else Fraction(0),
    }
    return per, agg


@lru_cache(maxsize=1)
def _random_cases():
    rng = np.random.default_rng(20260814)
    cases = []
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 501))
        golds = rng.integers(0, k, size=n).tolist()
        preds = rng.integers(0, k, size=n).tolist()
        cm = confusion(golds, preds, k)
        cases.append((golds, preds, k, aggregate(cm)))
    return cases


def test_criterion_01_metric_oracle_equivalence():
    start = time.monotonic()
    cases = _random_cases()
    assert len(cases) >= 1000
    for golds, preds, k, report in cases:
        per, agg = _oracle_scores(golds, preds, k)
        for i, (precision, recall, f1, support) in enumerate(per):
            assert report.per_class.precision[i] == precision
            assert report.per_class.recall[i] == recall
            assert report.per_class.f1[i] == f1
            assert report.per_class.support[i] == support
        for key, value in agg.items():
            assert getattr(report, key) == value, key
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"metric oracle sweep took {elapsed:.1f}s"


def test_criterion_02_algebraic_identities():
    for _, _, k, report in _random_cases():
        assert report.micro_f1 == report.accuracy
        assert report.accuracy == report.weighted_recall
        assert report.macro_f1 == Fraction(sum(report.per_class.f1), k)


def test_criterion_03_worked_example():
    golds, preds = [], []
    matrix = [[2, 1, 0], [0, 3, 1], [1, 0, 2]]
    for g, row in enumerate(matrix):
        for p, count in enumerate(row):
            golds.extend([g] * count)
            preds.extend([p] * count)
    report = aggregate(confusion(golds, preds, 3))
    assert report.accuracy == Fraction(7, 10)
    assert report.micro_f1 == Fraction(7, 10)
    assert report.macro_f1 == Fraction(25, 36)
    assert report.weighted_f1 == Fraction(7, 10)


# --------------------------------------------------------------------------
# Criteria 4-6: model numerics


def test_criterion_04_full_ensemble_gradient_check():
    start = time.monotonic()
    with use_dtype(np.float64):
        cfg = ModelConfig(vocab_size=50, max_len=16, d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, n_classes=6, dropout_rate=0.0,
                          seed=0)
        model = Classifier(cfg, "ensemble")
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(2):
            text_ids = rng.integers(4, cfg.vocab_size, size=5).tolist()
            entity_ids = rng.integers(4, cfg.vocab_size, size=2).tolist()
            label = int(rng.integers(0, cfg.n_classes))
            pairs.append(build_both(text_ids, entity_ids, cfg.max_len, label))
        batch = batchify(pairs, batch_size=2)[0]

        def loss_fn():
            return cross_entropy(forward_batch(model, batch), batch.labels)

        report = grad_check(loss_fn, model.parameters(), tolerance=1e-3, h=1e-4)
    elapsed = time.monotonic() - start
    assert report.passed, f"worst {report.worst_param}: {report.max_rel_err:.3e}"
    assert report.max_rel_err < 1e-3
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


def _pad_extend(pair, extra):
    return dataclasses.replace(pair, max_len=pair.max_len + extra)


def test_criterion_05_padding_never_moves_logits():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(100):
        cfg = ModelConfig(vocab_size=30, max_len=24, d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, n_classes=6, dropout_rate=0.0,
                          seed=i)
        text = rng.integers(4, 30, size=int(rng.integers(1, 10))).tolist()
        entity = rng.integers(4, 30, size=int(rng.integers(1, 4))).tolist()
        p1, p2 = build_both(text, entity, max_len=16)
        w1, w2 = _pad_extend(p1, 4), _pad_extend(p2, 4)
        if i % 2 == 0:
            model = Classifier(cfg, "ensemble")
            base = forward_pairs(model, (p1, p2)).data
            wide = forward_pairs(model, (w1, w2)).data
        else:
            model = Classifier(cfg, "single")
            base = forward_pairs(model, (p1,)).data
            wide = forward_pairs(model, (w1,)).data
        worst = max(worst, float(np.abs(base - wide).max()))
    elapsed = time.monotonic() - start
    assert worst < 1e-5, f"padding moved logits by {worst:.2e}"
    assert elapsed < 30.0, f"padding sweep took {elapsed:.1f}s"


def test_criterion_06_ensemble_swap_symmetry():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(100):
        cfg = ModelConfig(vocab_size=30, max_len=16, d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, n_classes=6, dropout_rate=0.0,
                          seed=1000 + i)
        m1 = Classifier(cfg, "ensemble")
        m2 = Classifier(cfg, "ensemble")
        (a1, a2), (b1, b2) = m1.branches, m2.branches
        for name in a1.params:
            b1.params[name].data = a2.params[name].data.copy()
            b2.params[name].data = a1.params[name].data.copy()
        d = cfg.d_model
        w1 = m1.head["w1"].data
        m2.head["w1"].data = np.concatenate([w1[d:], w1[:d]], axis=0)
        for name in ("b1", "w2", "b2"):
            m2.head[name].data = m1.head[name].data.copy()

        text = rng.integers(4, 30, size=int(rng.integers(1, 10))).tolist()
        entity = rng.integers(4, 30, size=int(rng.integers(1, 4))).tolist()
        p1, p2 = build_both(text, entity, max_len=16)
        q1, q2 = build_both(entity, text, max_len=16)
        base = forward_pairs(m1, (p1, p2)).data
        swapped = forward_pairs(m2, (q1, q2)).data
        worst = max(worst, float(np.abs(base - swapped).max()))
    assert worst < 1e-6, f"swap symmetry broke by {worst:.2e}"


# --------------------------------------------------------------------------
# Criterion 7: packing layouts


def test_criterion_07_packing_layouts_exact():
    text_first = build_pair([5, 6], [7], PairOrder.TEXT_FIRST, max_len=8)
    assert text_first.input_ids == (2, 5, 6, 3, 7, 3, 0, 0)
    assert text_first.segment_ids == (0, 0, 0, 0, 1, 1, 0, 0)
    assert text_first.attention_mask == (1, 1, 1, 1, 1, 1, 0, 0)

    entity_first = build_pair([5, 6], [7], PairOrder.ENTITY_FIRST, max_len=8)
    assert entity_first.input_ids == (2, 7, 3, 5, 6, 3, 0, 0)
    assert entity_first.segment_ids == (0, 0, 0, 1, 1, 1, 0, 0)
    assert entity_first.attention_mask == (1, 1, 1, 1, 1, 1, 0, 0)

    truncated = build_pair([8, 9, 10, 11, 12], [10, 11, 12],
                           PairOrder.ENTITY_FIRST, max_len=8)
    assert truncated.input_ids == (2, 10, 11, 12, 3, 8, 9, 3)
    assert truncated.segment_ids == (0, 0, 0, 0, 0, 1, 1, 1)
    assert truncated.attention_mask == (1, 1, 1, 1, 1, 1, 1, 1)


# --------------------------------------------------------------------------
# Criteria 8-9: the synthetic task


@lru_cache(maxsize=1)
def _synthetic_data(max_len=32):
    labels = LabelSet.from_file(data_path(SAMPLE_LABELS_FILE))
    records = load_corpus(data_path(SAMPLE_CORPUS_FILE), labels)
    splits = split(records, SplitSpec.default())
    prep_cfg = PrepConfig.default()
    token_lists = []
    for r in splits[0]:
        cr = preprocess_record(r, prep_cfg, labels)
        token_lists.append(list(cr.clean_text))
        token_lists.append(list(cr.clean_entity))
    vocab = train_vocab(token_lists, target_size=200, min_freq=2)
    data = prepare_data(splits, labels, prep_cfg, vocab, max_len)
    return labels, vocab, data


def test_criterion_08_ensemble_learns_the_synthetic_task():
    start = time.monotonic()
    labels, vocab, data = _synthetic_data()
    model_cfg = ModelConfig(vocab_size=len(vocab), max_len=32, d_model=32,
                            n_heads=4, n_layers=2, d_ff=64,
                            n_classes=len(labels), dropout_rate=0.1, seed=42)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=200, seed=42)

    def run():
        model = Classifier(model_cfg, "ensemble")
        return train(model, data.train, data.val, train_cfg)[1]

    history = run()
    hit = next((r.epoch for r in history.records if r.train_accuracy == 1.0), None)
    assert hit is not None, "never reached 100% training accuracy in 200 epochs"
    assert hit <= 200

    assert run() == history, "training is not deterministic under the fixed seed"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"trainability check took {elapsed:.1f}s"


def test_criterion_09_comparison_harness_is_consistent():
    labels, vocab, data = _synthetic_data()
    model_cfg = ModelConfig(vocab_size=len(vocab), max_len=32, d_model=8,
                            n_heads=2, n_layers=1, d_ff=16,
                            n_classes=len(labels), dropout_rate=0.0, seed=42)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=32, epochs=2, seed=42)
    report = compare(model_cfg, data, train_cfg)

    assert report.fingerprints == data.fingerprints
    for value in report.fingerprints.values():
        assert len(value) == 64 and set(value) <= set("0123456789abcdef")
    for key in ("accuracy", "micro_f1", "macro_f1"):
        recomputed = report.arms["ensemble"][key] - report.arms["single"][key]
        assert report.deltas[key] == recomputed, key
    jsonschema.validate(json.loads(report.to_json()), COMPARISON_JSON_SCHEMA)


# --------------------------------------------------------------------------
# Criterion 10: published dataset statistics (optional local data)


@pytest.mark.skipif(
    not os.environ.get("MEDER_DATASET"),
    reason="published dataset not available; set MEDER_DATASET to its path",
)
def test_criterion_10_published_dataset_statistics(tmp_path):
    src = Path(os.environ["MEDER_DATASET"])
    assert src.exists(), f"MEDER_DATASET points at missing file {src}"
    if src.suffix.lower() in (".csv", ".tsv", ".tab"):
        out_dir = tmp_path / "out"
        assert cli_main(["prepare", "--input", str(src),
                         "--out-dir", str(out_dir)]) == 0
        corpus_path = out_dir / "corpus.jsonl"
    else:
        corpus_path = src
    labels = LabelSet.default()
    records = load_corpus(corpus_path, labels)
    stats = class_stats(records, labels)
    counts = tuple(stats.counts[name] for name in DEFAULT_LABELS)
    assert counts == PUBLISHED_CLASS_COUNTS
    assert stats.total == sum(PUBLISHED_CLASS_COUNTS) != PUBLISHED_TOTAL
    note = published_total_note(stats)
    assert note is not None
    assert str(PUBLISHED_TOTAL) in note and str(sum(PUBLISHED_CLASS_COUNTS)) in note


# --------------------------------------------------------------------------
# Criterion 11: headline figures stay documentation, not tests


def test_criterion_11_headline_figures_are_documented_as_literature_targets():
    text = README.read_text(encoding="utf-8")
    for figure in ("89.58", "77.78", "87.87"):
        assert figure in text, f"README must record the {figure} literature figure"
    lowered = text.lower()
    assert "literature target" in lowered
    assert "not reproducible" in lowered or "not be reproduced" in lowered
