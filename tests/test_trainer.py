"""Trainer tests: optimizer oracle, loop semantics, comparison harness, predict."""

import json
import math
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meder.model as mm
import meder.numcore as nc
from meder.bundled import SAMPLE_CORPUS_FILE, SAMPLE_LABELS_FILE, data_path
from meder.corpus import LabelSet, RawRecord, SplitSpec, load_corpus, split, split_fingerprint
from meder.errors import DataError, NumericError
from meder.model import ARMS, Classifier, ModelConfig, load_checkpoint, save_checkpoint
from meder.numcore import use_dtype
from meder.pairseq import PairOrder
from meder.textprep import PrepConfig, preprocess_record, preprocess_text
from meder.tokenizer import train_vocab
from meder.trainer import (
    COMPARISON_SCHEMA,
    AdamW,
    TrainConfig,
    compare,
    encode_records,
    evaluate,
    predict,
    predictions,
    prepare_data,
    train,
)

from helpers import COMPARISON_JSON_SCHEMA

MAX_LEN = 16
PREP = PrepConfig(strip_charset=frozenset(".,!?"), stopwords=frozenset({"the"}),
                  suffix_rules=())
LABELS = LabelSet(("Drug", "Disease"))


def make_records() -> list[RawRecord]:
    entities = {
        "Drug": ["amoxmycin", "neomycin", "oximycin"],
        "Disease": ["gastritis", "arthritis", "bronchitis"],
    }
    records = []
    i = 0
    for label, names in entities.items():
        for entity in names:
            for template in ("patient took {} daily", "doctor noted {} in the chart"):
                i += 1
                records.append(RawRecord(id=f"r{i:02d}", text=template.format(entity),
                                         entity=entity, label=label))
    return records


RECORDS = make_records()
VOCAB = train_vocab(
    [preprocess_text(r.text, PREP) for r in RECORDS]
    + [preprocess_text(r.entity, PREP) for r in RECORDS],
    target_size=120, min_freq=1,
)
PAIRS = encode_records(RECORDS, LABELS, PREP, VOCAB, MAX_LEN)


def small_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=len(VOCAB.tokens), max_len=MAX_LEN, d_model=8, n_heads=2,
                n_layers=1, d_ff=16, n_classes=2, dropout_rate=0.0, seed=7)
    return ModelConfig(**{**base, **overrides})


def small_train_config(**overrides) -> TrainConfig:
    base = dict(learning_rate=5e-3, batch_size=4, max_len=MAX_LEN, epochs=3, seed=0)
    return TrainConfig(**{**base, **overrides})


@pytest.mark.parametrize("bad", [
    dict(learning_rate=-1e-4),
    dict(batch_size=0),
    dict(epochs=0),
    dict(max_len=4),
    dict(weight_decay=-0.1),
    dict(eval_every=-1),
    dict(patience=-1),
    dict(learning_rate=float("nan")),
    dict(weight_decay=float("inf")),
])
def test_train_config_rejects_bad_values(bad):
    with pytest.raises(DataError):
        small_train_config(**bad)


def test_train_config_allows_zero_learning_rate():
    assert small_train_config(learning_rate=0.0).learning_rate == 0.0


def test_adamw_matches_reference_implementation():
    """Five steps with synthetic gradients against a dictionary-of-arrays
    transcription of the update rule."""
    rng = np.random.default_rng(11)
    shapes = {"w": (4, 3), "b": (3,)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    grad_steps = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(5)]
    lr, wd, b1, b2, eps = 1e-2, 0.05, 0.9, 0.999, 1e-8

    with use_dtype(np.float64):
        params = {k: nc.param(a.copy(), k) for k, a in init.items()}
        opt = AdamW(params, lr=lr, weight_decay=wd)
        for grads in grad_steps:
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step()

    ref = {k: a.copy() for k, a in init.items()}
    m = {k: np.zeros_like(a) for k, a in init.items()}
    v = {k: np.zeros_like(a) for k, a in init.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for k in ref:
            g = grads[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1 ** t)
            v_hat = v[k] / (1 - b2 ** t)
            ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * wd * ref[k]

    for k in ref:
        assert np.allclose(params[k].data, ref[k], rtol=1e-7, atol=1e-12), k


def test_adamw_requires_gradients():
    params = {"w": nc.param(np.ones(3), "w")}
    with pytest.raises(NumericError, match="no gradient"):
        AdamW(params, lr=1e-3).step()


def test_zero_learning_rate_leaves_parameters_frozen():
    model = Classifier(small_config(), "single")
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    _, history = train(model, PAIRS[:8], PAIRS[8:], small_train_config(
        learning_rate=0.0, epochs=2))
    assert len(history.records) == 2
    for k, p in model.parameters().items():
        assert np.array_equal(before[k], p.data), k


def test_training_reduces_loss_on_separable_toy():
    model = Classifier(small_config(), "ensemble")
    _, history = train(model, PAIRS, [], small_train_config(epochs=5))
    first, last = history.records[0], history.records[-1]
    assert last.train_loss < first.train_loss
    assert last.train_accuracy >= first.train_accuracy


def test_seeded_training_is_reproducible():
    def run():
        model = Classifier(small_config(dropout_rate=0.1), "ensemble")
        return train(model, PAIRS[:10], PAIRS[10:], small_train_config())

    model_a, hist_a = run()
    model_b, hist_b = run()
    assert hist_a == hist_b
    for k, p in model_a.parameters().items():
        assert np.array_equal(p.data, model_b.parameters()[k].data), k


def test_divergence_raises_numeric_error():
    model = Classifier(small_config(), "single")
    model.head["w"].data[:] = np.nan
    with pytest.raises(NumericError, match=r"diverged at epoch 1, step 1"):
        train(model, PAIRS[:8], [], small_train_config())


def test_returned_model_has_best_validation_accuracy():
    cfg = small_train_config(epochs=6)
    model, history = train(Classifier(small_config(), "ensemble"), PAIRS[:10], PAIRS[10:], cfg)
    best = max(r.val_accuracy for r in history.records)
    report = evaluate(model, PAIRS[10:], batch_size=cfg.batch_size)
    assert float(report.accuracy) == best


def test_empty_validation_yields_nan_metrics():
    _, history = train(Classifier(small_config(), "single"), PAIRS[:8], [],
                       small_train_config(epochs=2))
    for record in history.records:
        assert math.isnan(record.val_loss)
        assert math.isnan(record.val_accuracy)
        assert math.isfinite(record.train_loss)


def test_patience_stops_stale_training():
    _, history = train(Classifier(small_config(), "single"), PAIRS[:8], PAIRS[8:],
                       small_train_config(learning_rate=0.0, epochs=10, patience=1))
    assert len(history.records) == 2


def test_eval_every_checkpoints_mid_epoch():
    cfg = small_train_config(epochs=2, eval_every=1)
    model, history = train(Classifier(small_config(), "ensemble"), PAIRS[:10], PAIRS[10:], cfg)
    assert len(history.records) == 2
    best = max(r.val_accuracy for r in history.records)
    assert float(evaluate(model, PAIRS[10:], cfg.batch_size).accuracy) >= best


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(ARMS)), log_lr=st.floats(-4.0, 4.0),
       epochs=st.integers(1, 2), eval_every=st.sampled_from([0, 1]), with_val=st.booleans())
def test_train_raises_or_keeps_finite_weights_that_save_and_load(
        tmp_path_factory, kind, log_lr, epochs, eval_every, with_val):
    model = Classifier(small_config(dropout_rate=0.1), kind)
    cfg = small_train_config(learning_rate=10.0 ** log_lr, epochs=epochs, eval_every=eval_every)
    try:
        model, history = train(model, PAIRS[::2], PAIRS[1::2] if with_val else [], cfg)
    except NumericError:
        return
    path = tmp_path_factory.getbasetemp() / "trained.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path).parameters()
    for name, p in model.parameters().items():
        assert np.array_equal(loaded[name].data, p.data), name
    rows = json.loads(history.to_json(), parse_constant=_refuse_constant)
    assert len(rows) == len(history.records)


def test_train_requires_training_pairs():
    with pytest.raises(DataError, match="non-empty training set"):
        train(Classifier(small_config(), "single"), [], PAIRS, small_train_config())


def test_history_serializes_to_json():
    _, history = train(Classifier(small_config(), "single"), PAIRS[:8], PAIRS[8:],
                       small_train_config(epochs=2))
    rows = json.loads(history.to_json())
    assert [r["epoch"] for r in rows] == [1, 2]
    assert set(rows[0]) == {"epoch", "train_loss", "train_accuracy",
                            "val_loss", "val_accuracy"}


def test_tied_logits_predict_the_smallest_label_id():
    model = Classifier(small_config(), "single")
    model.head["w"].data[:] = 0.0
    model.head["b"].data[:] = 0.0
    for name in ("word_emb", "seg_emb", "pos_emb"):
        model.branches[0].params[name].data[:] = 0.0
    golds, preds = predictions(model, PAIRS)
    assert np.array_equal(golds, np.array([p.label_id for p, _ in PAIRS]))
    assert np.array_equal(preds, np.zeros(len(PAIRS), dtype=np.int64))


def test_evaluate_counts_agree_with_predictions():
    model = Classifier(small_config(), "ensemble")
    golds, preds = predictions(model, PAIRS)
    report = evaluate(model, PAIRS)
    assert report.accuracy == Fraction(int((golds == preds).sum()), len(PAIRS))
    assert sum(report.per_class.support) == len(PAIRS)
    with pytest.raises(DataError, match="non-empty"):
        evaluate(model, [])


def test_checkpoint_preserves_evaluation(tmp_path):
    model, _ = train(Classifier(small_config(), "ensemble"), PAIRS[:10], PAIRS[10:],
                     small_train_config(epochs=2))
    path = tmp_path / "trained.ckpt"
    save_checkpoint(model, path)
    assert evaluate(load_checkpoint(path), PAIRS) == evaluate(model, PAIRS)


def test_prepare_data_packs_splits_and_fingerprints():
    splits = (RECORDS[:8], RECORDS[8:10], RECORDS[10:])
    data = prepare_data(splits, LABELS, PREP, VOCAB, MAX_LEN)
    assert (len(data.train), len(data.val), len(data.test)) == (8, 2, 2)
    for name, recs in zip(("train", "val", "test"), splits):
        assert data.fingerprints[name] == split_fingerprint(recs)
    assert data.label_names == LABELS.names
    first_tf, first_ef = data.train[0]
    assert first_tf.order is PairOrder.TEXT_FIRST
    assert first_ef.order is PairOrder.ENTITY_FIRST
    assert first_tf.label_id == LABELS.id_of(RECORDS[0].label)


def comparison_data():
    splits = (RECORDS[:8], RECORDS[8:10], RECORDS[10:])
    return prepare_data(splits, LABELS, PREP, VOCAB, MAX_LEN)


def test_compare_reports_both_arms_and_exact_deltas():
    data = comparison_data()
    report = compare(small_config(), data, small_train_config(epochs=2))
    payload = json.loads(report.to_json())
    jsonschema.validate(payload, COMPARISON_JSON_SCHEMA)
    assert payload["schema"] == COMPARISON_SCHEMA
    assert payload["fingerprints"] == data.fingerprints
    for arm in ("single", "ensemble"):
        summary = payload["arms"][arm]
        assert summary["epochs_trained"] == 2
        assert [row["label"] for row in summary["per_class"]] == list(LABELS.names)
    for key in ("accuracy", "micro_f1", "macro_f1"):
        expected = payload["arms"]["ensemble"][key] - payload["arms"]["single"][key]
        assert payload["deltas"][key] == expected


def test_compare_rejects_mismatched_arms_and_empty_test():
    empty_test = prepare_data((RECORDS[:10], RECORDS[10:], []), LABELS, PREP,
                              VOCAB, MAX_LEN)
    with pytest.raises(DataError, match="non-empty test split"):
        compare(small_config(), empty_test, small_train_config(epochs=1))


def test_predict_runs_the_full_pipeline():
    record = RECORDS[0]
    ensemble = Classifier(small_config(), "ensemble")
    result = predict(ensemble, VOCAB, PREP, LABELS, record.text, record.entity,
                     max_len=MAX_LEN)
    assert result.label == LABELS.names[result.label_id]
    assert len(result.probabilities) == 2
    assert abs(sum(result.probabilities) - 1.0) < 1e-6
    assert max(range(2), key=lambda i: result.probabilities[i]) == result.label_id

    again = predict(ensemble, VOCAB, PREP, LABELS, record.text, record.entity,
                    max_len=MAX_LEN)
    assert again == result

    pair = encode_records([record], LABELS, PREP, VOCAB, MAX_LEN)[0]
    _, preds = predictions(ensemble, [pair])
    assert result.label_id == int(preds[0])

    single = Classifier(small_config(), "single")
    text_first = predict(single, VOCAB, PREP, LABELS, record.text, record.entity,
                         max_len=MAX_LEN)
    _, single_preds = predictions(single, [pair])
    assert text_first.label_id == int(single_preds[0])


def test_predict_packs_to_the_model_max_len_by_default():
    record = RECORDS[0]
    model = Classifier(small_config(max_len=48), "ensemble")
    result = predict(model, VOCAB, PREP, LABELS, record.text, record.entity)
    assert result == predict(model, VOCAB, PREP, LABELS, record.text, record.entity,
                             max_len=48)
    pair = encode_records([record], LABELS, PREP, VOCAB, 48)[0]
    _, preds = predictions(model, [pair])
    assert result.label_id == int(preds[0])


def test_predict_rejects_bad_queries():
    model = Classifier(small_config(), "ensemble")
    with pytest.raises(DataError, match="entity is empty"):
        predict(model, VOCAB, PREP, LABELS, "patient took neomycin", "...",
                max_len=MAX_LEN)
    with pytest.raises(DataError, match="text is empty"):
        predict(model, VOCAB, PREP, LABELS, "!!!", "neomycin", max_len=MAX_LEN)
    three = LabelSet(("A", "B", "C"))
    with pytest.raises(DataError, match="label set has 3"):
        predict(model, VOCAB, PREP, three, "patient took neomycin", "neomycin",
                max_len=MAX_LEN)


def sample_inputs():
    """(splits, labels, prep, vocab) for the bundled sample at the CLI defaults."""
    labels = LabelSet.from_file(data_path(SAMPLE_LABELS_FILE))
    splits = split(load_corpus(data_path(SAMPLE_CORPUS_FILE), labels), SplitSpec.default())
    prep = PrepConfig.default()
    tokens = []
    for r in splits[0]:
        cr = preprocess_record(r, prep, labels)
        tokens += [list(cr.clean_text), list(cr.clean_entity)]
    return splits, labels, prep, train_vocab(tokens, target_size=200, min_freq=2)


def test_packed_storage_does_not_grow_with_max_len():
    """A packed pair holds its content, not max_len padded positions."""
    inputs = sample_inputs()
    prepare_data(*inputs, 48)  # fills the preprocessing caches

    def retained(max_len):
        tracemalloc.start()
        try:
            data = prepare_data(*inputs, max_len)  # held while measuring
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    short, full = retained(48), retained(484)
    assert full < 1.5 * short, f"{full} bytes at max_len 484 against {short} at 48"


def test_library_full_scale_config_trains_an_epoch_on_the_bundled_sample(monkeypatch):
    """max_len 484 at batch 32: each block is encoded only up to its
    longest row, so an epoch costs what the sample's short rows cost.
    A full-width encode would need gigabytes, so it fails at once."""
    splits, labels, prep, vocab = sample_inputs()
    data = prepare_data(splits, labels, prep, vocab, 484)
    longest = max(p.content_len for split_pairs in (data.train, data.val)
                  for pair in split_pairs for p in pair)
    encode = mm.encode

    def bounded_encode(branch, hidden, attention_mask, rng=None):
        assert attention_mask.shape[1] <= longest
        return encode(branch, hidden, attention_mask, rng)

    monkeypatch.setattr(mm, "encode", bounded_encode)
    model = Classifier(ModelConfig(vocab_size=len(vocab), max_len=484,
                                   n_classes=len(labels)), "ensemble")
    _, history = train(model, data.train, data.val, TrainConfig(epochs=1))
    (record,) = history.records
    assert math.isfinite(record.train_loss) and math.isfinite(record.val_loss)
