"""Correctness oracles for the benchmark workloads.

Each check recomputes a result by a route independent of the code it
judges (brute-force counting, a float64 softmax, a cut block, a second
save) and raises CheckFailed on disagreement.  Nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

import meder.model as model_mod
from meder.metrics import MetricsReport
from meder.pairseq import BatchBlock, PairBatch, PairOrder
from meder.tokenizer import CLS_ID, SEP_ID, UNK_ID, Vocab, decode, encode_text
from meder.trainer import PredictResult

# predict() runs one row through float32 kernels, the batched path many;
# reduction order differs, so probabilities agree to float32 rounding only.
PROB_TOL = 2e-5
# logits of a padded block against the same block cut to its longest row
PAD_LOGIT_TOL = 1e-4
ROW_SUM_TOL = 1e-5


class CheckFailed(AssertionError):
    """An output disagreed with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def brute_force_metrics(golds: Sequence[int], preds: Sequence[int], k: int) -> dict:
    """Accuracy and macro/micro/weighted P/R/F1 counted pair by pair."""
    n = len(golds)
    tp = [sum(1 for g, p in zip(golds, preds) if g == c and p == c) for c in range(k)]
    pred_c = [sum(1 for p in preds if p == c) for c in range(k)]
    gold_c = [sum(1 for g in golds if g == c) for c in range(k)]

    def ratio(a: int, b: int) -> Fraction:
        return Fraction(a, b) if b else Fraction(0)

    prec = [ratio(tp[c], pred_c[c]) for c in range(k)]
    rec = [ratio(tp[c], gold_c[c]) for c in range(k)]
    f1 = [2 * p * r / (p + r) if p + r else Fraction(0) for p, r in zip(prec, rec)]
    correct = sum(tp)
    micro_p, micro_r = ratio(correct, n), ratio(correct, n)
    return {
        "accuracy": Fraction(correct, n),
        "macro_precision": sum(prec, Fraction(0)) / k,
        "macro_recall": sum(rec, Fraction(0)) / k,
        "macro_f1": sum(f1, Fraction(0)) / k,
        "micro_f1": 2 * micro_p * micro_r / (micro_p + micro_r) if correct else Fraction(0),
        "weighted_precision": sum((Fraction(gold_c[c], n) * prec[c] for c in range(k)), Fraction(0)),
        "weighted_recall": sum((Fraction(gold_c[c], n) * rec[c] for c in range(k)), Fraction(0)),
        "weighted_f1": sum((Fraction(gold_c[c], n) * f1[c] for c in range(k)), Fraction(0)),
        "precision": prec,
        "recall": rec,
        "f1": f1,
        "support": gold_c,
    }


def check_metrics(report: MetricsReport, golds: np.ndarray, preds: np.ndarray) -> None:
    want = brute_force_metrics(golds.tolist(), preds.tolist(), report.n_classes)
    for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1", "micro_f1",
                "weighted_precision", "weighted_recall", "weighted_f1"):
        got = getattr(report, key)
        _require(isinstance(got, Fraction) and got == want[key],
                 f"metrics.{key}: {got!r} != brute force {want[key]!r}")
    pc = report.per_class
    for key in ("precision", "recall", "f1", "support"):
        _require(list(getattr(pc, key)) == want[key], f"metrics per-class {key} disagrees")
    _require(report.total == len(golds), "metrics total disagrees with sample count")


def softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def check_predict_probs(
    results: Sequence[PredictResult], batched_logits: np.ndarray
) -> None:
    """predict() probabilities against the softmax of batched logits."""
    want = softmax64(batched_logits)
    for i, r in enumerate(results):
        got = np.array(r.probabilities, dtype=np.float64)
        _require(abs(got.sum() - 1.0) <= ROW_SUM_TOL, f"query {i}: probabilities sum to {got.sum()}")
        _require(bool(np.all(got >= 0.0)), f"query {i}: negative probability")
        err = float(np.max(np.abs(got - want[i])))
        _require(err <= PROB_TOL, f"query {i}: predict probabilities off by {err:.2e}")
        _require(r.label_id == int(np.argmax(got)), f"query {i}: label_id is not the argmax")


def _cut(block: BatchBlock) -> BatchBlock:
    longest = int(block.attention_mask.sum(axis=1).max())
    return BatchBlock(
        input_ids=block.input_ids[:, :longest],
        segment_ids=block.segment_ids[:, :longest],
        attention_mask=block.attention_mask[:, :longest],
        order=block.order,
    )


def check_padding_invariance(model, batch: PairBatch) -> None:
    full = model_mod.forward_batch(model, batch, rng=None).data
    cut = PairBatch(first=_cut(batch.first), second=_cut(batch.second), labels=batch.labels)
    trimmed = model_mod.forward_batch(model, cut, rng=None).data
    err = float(np.max(np.abs(full.astype(np.float64) - trimmed)))
    _require(err <= PAD_LOGIT_TOL, f"padding moved logits by {err:.2e}")


def check_checkpoint_roundtrip(model, first_path, second_path):
    """save -> load -> save must reproduce the file byte for byte;
    returns the loaded model."""
    model_mod.save_checkpoint(model, first_path)
    loaded = model_mod.load_checkpoint(first_path)
    model_mod.save_checkpoint(loaded, second_path)
    _require(first_path.read_bytes() == second_path.read_bytes(),
             "checkpoint re-save is not byte-identical")
    return loaded


def _is_symbol(token: str) -> bool:
    return len(token[2:] if token.startswith("##") else token) == 1


def check_vocab_merges(vocab: Vocab) -> int:
    """Every entry after the alphabet joins two earlier entries; returns
    the number of merged entries."""
    tokens = vocab.tokens
    i = 4
    while i < len(tokens) and _is_symbol(tokens[i]):
        i += 1
    seen = set(tokens[:i])
    merges = 0
    for tok in tokens[i:]:
        cont = tok.startswith("##")
        body = tok[2:] if cont else tok
        _require(len(body) > 1, f"vocab symbol {tok!r} appears after merged entries")
        splits = (
            (("##" if cont else "") + body[:k], "##" + body[k:]) for k in range(1, len(body))
        )
        _require(any(a in seen and b in seen for a, b in splits),
                 f"vocab entry {tok!r} is not the join of two earlier entries")
        seen.add(tok)
        merges += 1
    return merges


def check_decode_roundtrip(token_lists: Sequence[Sequence[str]], vocab: Vocab) -> None:
    """decode(encode(words)) == words whenever no [UNK] is emitted."""
    for words in token_lists:
        ids = encode_text(words, vocab)
        if UNK_ID not in ids:
            _require(decode(ids, vocab) == " ".join(words),
                     f"decode(encode({list(words)!r})) differs")


def check_packing(pair_tf, pair_ef, text_ids: Sequence[int], entity_ids: Sequence[int]) -> None:
    """Both packings carry the whole entity contiguously and a prefix
    of the text, in the documented order."""
    for pair, order in ((pair_tf, PairOrder.TEXT_FIRST), (pair_ef, PairOrder.ENTITY_FIRST)):
        _require(pair.order is order, f"pair order {pair.order} where {order} expected")
        n = sum(pair.attention_mask)
        ids = list(pair.input_ids[:n])
        _require(ids[0] == CLS_ID and ids[-1] == SEP_ID, "packed sequence lacks [CLS]/[SEP] ends")
        seps = [i for i, t in enumerate(ids) if t == SEP_ID]
        _require(len(seps) == 2, f"packed sequence has {len(seps)} [SEP]")
        first, second = ids[1:seps[0]], ids[seps[0] + 1:-1]
        entity, text = (second, first) if order is PairOrder.TEXT_FIRST else (first, second)
        _require(entity == list(entity_ids), "entity ids are not contiguous and whole")
        _require(text == list(text_ids[:len(text)]) and text, "text ids are not a prefix of the text")


def check_training_loss(losses: Sequence[float]) -> None:
    first, last = losses[0], losses[-1]
    _require(last < first, f"final-epoch loss {last:.4f} not below first {first:.4f}")
    _require(last < math.log(6), f"final-epoch loss {last:.4f} not below ln 6")


def check_cold_predict(payload: dict, warm: PredictResult, label_names: Sequence[str]) -> None:
    _require(payload.get("label_id") == warm.label_id, "cold predict label differs from warm predict")
    probs = [payload["probabilities"][name] for name in label_names]
    err = max(abs(a - b) for a, b in zip(probs, warm.probabilities))
    _require(err <= PROB_TOL, f"cold predict probabilities off by {err:.2e}")
