"""The traced benchmark (bench/tracer.py) wraps meder's module attributes
by name.  These tests fail as soon as a refactor removes one of those
names or stops calling through it, instead of only under `--trace 1`."""

import importlib
from pathlib import Path

import pytest

import meder.model as model_mod
import meder.trainer as trainer
from meder.corpus import LabelSet
from meder.model import ARMS, Classifier, ModelConfig
from meder.pairseq import build_both
from meder.textprep import PrepConfig
from meder.tokenizer import train_vocab

BENCH = Path(__file__).resolve().parents[1] / "bench"
LABELS = LabelSet(("Drug", "Disease"))
PREP = PrepConfig(strip_charset=frozenset(), stopwords=frozenset(), suffix_rules=())


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_tracer_installs_and_uninstalls(tracer_module):
    patched = [(trainer, name) for name in (
        "forward_batch", "forward_single", "forward_ensemble", "predict", "train",
        "build_pair", "build_both", "backward", "cross_entropy",
    )] + [(model_mod, name) for name in ("encode", "save_checkpoint", "load_checkpoint")]
    before = [getattr(owner, name) for owner, name in patched]
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert all(getattr(o, n) is not b for (o, n), b in zip(patched, before))
    finally:
        tr.uninstall()
    assert all(getattr(o, n) is b for (o, n), b in zip(patched, before))


@pytest.mark.parametrize("kind", list(ARMS))
def test_traced_train_and_predict_reach_the_wrapped_names(tracer_module, kind):
    vocab = train_vocab([["patient", "took", "neomycin"], ["fever"]], 30, 1)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=12, d_model=8, n_heads=2,
                      n_layers=1, d_ff=16, n_classes=len(LABELS), seed=0)
    pairs = [build_both([5, 6, 7], [8], 12, 0), build_both([6, 7], [5, 8], 12, 1)]
    model = Classifier(cfg, kind)
    tr = tracer_module.Tracer()
    tr.install()
    try:
        trainer.train(model, pairs, [], trainer.TrainConfig(batch_size=2, max_len=12, epochs=1))
        trainer.predict(model, vocab, PREP, LABELS, "patient took neomycin", "neomycin",
                        max_len=12)
    finally:
        tr.uninstall()
    one_row = "model.forward_single" if kind == "single" else "model.forward_ensemble"
    for name in ("model.forward_batch", "model.encode", "numcore.backward",
                 "trainer.adamw_step", "pairseq.build_pair"):
        assert tr.total(name)[1] > 0, name
    assert tr.total(one_row, parent="trainer.predict")[1] == 1
    assert tr.step == 1
