"""Workload definitions, the timed pipeline phases and their checks.

Every call into meder goes through a public function looked up on its
module at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import meder.corpus as corpus
import meder.model as model_mod
import meder.pairseq as pairseq
import meder.textprep as textprep
import meder.tokenizer as tokenizer
import meder.trainer as trainer
from meder.errors import MederError

import checks

SEED = 42  # the CLI's default split, model and shuffle seed
MIN_FREQ = 2
QUERY_BLOCK = 20  # queries per block of the warm-predict stream
PROB_CHECK_QUERIES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    synthetic: bool  # the generated 6,913-record corpus, else the bundled sample
    arm: str  # "ensemble" or "single"
    d_model: int
    d_ff: int
    max_len: int
    batch_size: int
    target_size: int
    learning_rate: float
    epochs: int
    train_limit: Optional[int]  # training pairs given to train(); None = the whole split
    val_limit: Optional[int]
    eval_limit: Optional[int]  # held-out pairs per evaluate() call
    rounds: int  # every round sets up, trains, evaluates, predicts and cold-starts afresh
    setups_per_round: int
    evals_per_round: int
    colds_per_round: int
    check_loss: bool


# Host noise on this class of machine comes in spells of a second or
# more, so each metric's samples are spread over rounds across the run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sample-cli", synthetic=False, arm="ensemble", d_model=32, d_ff=64,
            max_len=48, batch_size=32, target_size=200, learning_rate=2e-3, epochs=6,
            train_limit=None, val_limit=None, eval_limit=None,
            rounds=3, setups_per_round=8, evals_per_round=20, colds_per_round=4, check_loss=True,
        ),
        Workload(
            name="corpus-single", synthetic=True, arm="single", d_model=32, d_ff=64,
            max_len=48, batch_size=32, target_size=300, learning_rate=1e-3, epochs=1,
            train_limit=512, val_limit=128, eval_limit=None,
            rounds=3, setups_per_round=2, evals_per_round=1, colds_per_round=4, check_loss=False,
        ),
        Workload(
            name="fullscale-484", synthetic=True, arm="ensemble", d_model=64, d_ff=128,
            max_len=484, batch_size=4, target_size=120, learning_rate=2e-4, epochs=1,
            train_limit=8, val_limit=4, eval_limit=16,
            rounds=2, setups_per_round=1, evals_per_round=1, colds_per_round=3, check_loss=False,
        ),
    )
}


@dataclass
class Setup:
    splits: tuple
    prep: textprep.PrepConfig
    token_lists: list
    vocab: tokenizer.Vocab
    data: trainer.PreparedData
    model: object


def new_model(wl: Workload, vocab_size: int, n_classes: int):
    cfg = model_mod.ModelConfig(
        vocab_size=vocab_size, max_len=wl.max_len, d_model=wl.d_model, d_ff=wl.d_ff,
        n_classes=n_classes, seed=SEED,
    )
    return model_mod.EnsembleModel(cfg) if wl.arm == "ensemble" else model_mod.SingleModel(cfg)


def setup(wl: Workload, corpus_path: Path, labels) -> Setup:
    """What `meder train` does before its first step: load, split,
    preprocess, induce the vocabulary, pack and initialise the model."""
    records = corpus.load_corpus(corpus_path, labels)
    splits = corpus.split(records, corpus.SplitSpec.default())
    prep = textprep.PrepConfig.default()
    token_lists = []
    for r in splits[0]:
        cr = textprep.preprocess_record(r, prep, labels)
        token_lists.append(list(cr.clean_text))
        token_lists.append(list(cr.clean_entity))
    vocab = tokenizer.train_vocab(token_lists, wl.target_size, MIN_FREQ)
    data = trainer.prepare_data(splits, labels, prep, vocab, wl.max_len)
    model = new_model(wl, len(vocab), len(labels))
    return Setup(splits, prep, token_lists, vocab, data, model)


def _limit(pairs, n: Optional[int]) -> list:
    return list(pairs) if n is None else list(pairs[:n])


def eval_pairs(wl: Workload, s: Setup) -> list:
    return _limit(s.data.test, wl.eval_limit)


def train_config(wl: Workload, epochs: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        learning_rate=wl.learning_rate, batch_size=wl.batch_size, max_len=wl.max_len,
        epochs=epochs, seed=SEED,
    )


def warm_up(wl: Workload, s: Setup, labels) -> None:
    """One throwaway training step, validation batch and query, so that
    timed calls do not pay first-use costs."""
    m = new_model(wl, len(s.vocab), len(labels))
    b = wl.batch_size
    trainer.train(m, list(s.data.train[:b]), list(s.data.val[:b]), train_config(wl, 1))
    for rec in s.splits[2][:3]:
        predict_one(wl, s, labels, rec, m)


def predict_one(wl: Workload, s: Setup, labels, rec, model=None):
    return trainer.predict(
        model if model is not None else s.model, s.vocab, s.prep, labels,
        rec.text, rec.entity, max_len=wl.max_len,
    )


@dataclass
class Round:
    s: Setup
    setup_times: list
    history: trainer.TrainHistory
    train_s: float
    n_train: int
    report: object
    eval_times: list
    n_eval: int
    latencies: list
    queries: list
    results: list
    failed: int

    @property
    def attempted(self) -> int:
        return (len(self.setup_times) + 1 + len(self.eval_times) + len(self.latencies)
                + self.failed)


def run_round(wl: Workload, corpus_path: Path, labels, rng: random.Random, seconds: float,
              n_queries: Optional[int] = None, warm: bool = False) -> Round:
    """Set up `setups_per_round` times, train the last set-up's model
    once, evaluate `evals_per_round` times, then stream warm predicts:
    closed loop, one caller, whole blocks of QUERY_BLOCK held-out
    queries drawn from `rng` until `seconds` have passed, or until
    `n_queries` when given."""
    setup_times, s = [], None
    for _ in range(wl.setups_per_round):
        s = None  # free the previous set-up before building the next
        gc.collect()
        t0 = time.perf_counter()
        s = setup(wl, corpus_path, labels)
        setup_times.append(time.perf_counter() - t0)
    if warm:
        warm_up(wl, s, labels)

    tr, va = _limit(s.data.train, wl.train_limit), _limit(s.data.val, wl.val_limit)
    gc.collect()
    t0 = time.perf_counter()
    _, history = trainer.train(s.model, tr, va, train_config(wl, wl.epochs))
    train_s = time.perf_counter() - t0

    pairs = eval_pairs(wl, s)
    eval_times, report = [], None
    for _ in range(wl.evals_per_round):
        gc.collect()
        t0 = time.perf_counter()
        report = trainer.evaluate(s.model, pairs, wl.batch_size)
        eval_times.append(time.perf_counter() - t0)

    test = list(s.splits[2])
    latencies, asked, results, failed = [], [], [], 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for _ in range(QUERY_BLOCK):
            rec = rng.choice(test)
            t0 = time.perf_counter()
            try:
                res = predict_one(wl, s, labels, rec)
            except MederError:
                failed += 1
                continue
            latencies.append(time.perf_counter() - t0)
            asked.append(rec)
            results.append(res)
        done = len(latencies) + failed
        if n_queries is not None:
            if done >= n_queries:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return Round(s, setup_times, history, train_s, len(tr) * len(history.records), report,
                 eval_times, len(pairs), latencies, asked, results, failed)


def check_setup(s: Setup, labels) -> dict:
    """Vocabulary and packing oracles over one set-up; returns counts."""
    merges = checks.check_vocab_merges(s.vocab)
    checks.check_decode_roundtrip(s.token_lists, s.vocab)
    unk = content = 0
    for part_records, part_pairs in zip(s.splits, (s.data.train, s.data.val, s.data.test)):
        if len(part_records) != len(part_pairs):
            raise checks.CheckFailed("prepare_data dropped or added records")
        for r, (tf, ef) in zip(part_records, part_pairs):
            cr = textprep.preprocess_record(r, s.prep, labels)
            text_ids = tokenizer.encode_text(list(cr.clean_text), s.vocab)
            entity_ids = tokenizer.encode_text(list(cr.clean_entity), s.vocab)
            checks.check_packing(tf, ef, text_ids, entity_ids)
            if tf.label_id != cr.label_id or ef.label_id != cr.label_id:
                raise checks.CheckFailed(f"record {r.id}: packed label differs")
            ids = text_ids + entity_ids
            unk += ids.count(tokenizer.UNK_ID)
            content += len(ids)
    return {"merges": merges, "unk_fraction": unk / content}


def check_round(wl: Workload, labels, ph: Round, work: Path) -> None:
    """Output oracles for one round."""
    s = ph.s
    if wl.check_loss:
        checks.check_training_loss([r.train_loss for r in ph.history.records])
    pairs = eval_pairs(wl, s)
    golds, preds = trainer.predictions(s.model, pairs, wl.batch_size)
    checks.check_metrics(ph.report, golds, preds)

    ckpt = work / "model.ckpt"
    loaded = checks.check_checkpoint_roundtrip(s.model, ckpt, work / "resaved.ckpt")
    if trainer.evaluate(loaded, pairs, wl.batch_size) != ph.report:
        raise checks.CheckFailed("eval on the loaded checkpoint differs from eval in memory")

    checks.check_padding_invariance(s.model, pairseq.batchify(pairs[:wl.batch_size], wl.batch_size)[0])

    index = {r.id: i for i, r in enumerate(s.splits[2])}
    asked = ph.queries[:PROB_CHECK_QUERIES]
    rows = [s.data.test[index[r.id]] for r in asked]
    logits = np.concatenate([
        model_mod.forward_batch(s.model, b, rng=None).data
        for b in pairseq.batchify(rows, wl.batch_size)
    ])
    checks.check_predict_probs(ph.results[:PROB_CHECK_QUERIES], logits)


def cold_predicts(wl: Workload, root: Path, work: Path, env: dict, labels,
                  ph: Round) -> tuple[list[float], int]:
    """One `meder predict` process for each of the round's first
    queries, against the round's saved checkpoint and vocab, timed from
    process start to JSON on stdout and checked against the warm
    predict of the same query.  Returns (seconds of each successful
    process, failures)."""
    ckpt, vocab_path, labels_path = work / "cold.ckpt", work / "vocab.txt", work / "labels.txt"
    model_mod.save_checkpoint(ph.s.model, ckpt)
    tokenizer.save_vocab(ph.s.vocab, vocab_path)
    labels.to_file(labels_path)
    times, failed = [], 0
    n = wl.colds_per_round
    for rec, want in zip(ph.queries[:n], ph.results[:n]):
        cmd = [
            sys.executable, "-m", "meder.cli", "predict",
            "--checkpoint", str(ckpt), "--vocab", str(vocab_path), "--labels", str(labels_path),
            "--out-dir", str(work), "--text", rec.text, "--entity", rec.entity,
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        secs = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"cold predict failed ({proc.returncode}): {proc.stderr.strip()}", file=sys.stderr)
            failed += 1
            continue
        checks.check_cold_predict(json.loads(proc.stdout), want, labels.names)
        times.append(secs)
    return times, failed
