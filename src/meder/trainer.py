"""Training loop, optimizer, evaluation and the single-vs-ensemble harness."""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import LabelSet, RawRecord, split_fingerprint
from .errors import DataError, NumericError
from .metrics import MetricsReport, aggregate, confusion, report_data
from .model import (ARMS, Classifier, ModelConfig, forward_batch,
                    forward_ensemble, forward_single, require_finite)
from .numcore import Tensor, backward, cross_entropy, no_grad, row_softmax
from .pairseq import EncodedPair, PairBatch, batchify, build_both, build_pair
from .textprep import PrepConfig, preprocess_record, preprocess_text
from .tokenizer import Vocab, encode_text

PairList = Sequence[tuple[EncodedPair, EncodedPair]]

COMPARISON_SCHEMA = "meder-comparison-report/1"
# AdamW's moment decay rates and denominator offset (Loshchilov & Hutter, ICLR 2019)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    batch_size: int = 32
    max_len: int = 484
    epochs: int = 40
    weight_decay: float = 0.01
    seed: int = 0
    eval_every: int = 0  # steps between mid-epoch validations; 0 = epoch end only
    patience: int = 0  # epochs without val-accuracy gain before stopping; 0 = off

    def __post_init__(self) -> None:
        # learning_rate 0 is allowed as a degenerate diagnostic setting
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and non-negative, got {value}")
        if self.batch_size < 1:
            raise DataError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise DataError(f"epochs must be at least 1, got {self.epochs}")
        if self.max_len < 5:
            raise DataError(f"max_len must be at least 5, got {self.max_len}")
        if self.eval_every < 0 or self.patience < 0:
            raise DataError("eval_every and patience must be non-negative")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...]

    def to_json(self) -> str:
        """Strict JSON: a validation metric that is NaN (no validation set) is null."""
        rows = [{k: None if math.isnan(v) else v for k, v in asdict(r).items()} for r in self.records]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"


class AdamW:
    """AdamW with bias correction and decoupled weight decay."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                raise NumericError(f"parameter {name} has no gradient; run backward first")
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = (
                p.data
                - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                - self.lr * self.weight_decay * p.data
            )


def _batch_loss_and_correct(
    model: Classifier, batch: PairBatch, rng: Optional[np.random.Generator]
) -> tuple[Tensor, int]:
    logits = forward_batch(model, batch, rng)
    loss = cross_entropy(logits, batch.labels)
    correct = int((logits.data.argmax(axis=-1) == batch.labels).sum())
    return loss, correct


def _eval_loss_acc(model: Classifier, batches: list[PairBatch]) -> tuple[float, float]:
    total_loss = 0.0
    correct = 0
    n = 0
    with no_grad():
        for batch in batches:
            loss, c = _batch_loss_and_correct(model, batch, rng=None)
            total_loss += float(loss.data) * batch.size
            correct += c
            n += batch.size
    if n == 0:
        return math.nan, math.nan
    return total_loss / n, correct / n


def train(
    model: Classifier,
    train_pairs: PairList,
    val_pairs: PairList,
    cfg: TrainConfig,
) -> tuple[Classifier, TrainHistory]:
    """Seeded AdamW training; validation after every `eval_every`-th step
    and each epoch's last step needs finite weights and loss (else
    NumericError), and the weights of its best accuracy are restored.

    Shuffling uses one seeded stream, dropout another, so repeated runs
    with the same config are identical.
    """
    if not train_pairs:
        raise DataError("train needs a non-empty training set")
    shuffle_rng = random.Random(cfg.seed)
    drop_rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    opt = AdamW(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    val_batches = batchify(list(val_pairs), cfg.batch_size)

    best_acc = -math.inf
    best_snap = None
    records: list[EpochRecord] = []
    stale_epochs = 0
    step = 0
    # overflow shows up as a non-finite loss or weight, reported below as
    # the NumericError, not as NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = list(range(len(train_pairs)))
            shuffle_rng.shuffle(order)
            batches = batchify([train_pairs[i] for i in order], cfg.batch_size)
            epoch_loss = 0.0
            epoch_correct = 0
            improved = False
            for i, batch in enumerate(batches, 1):
                step += 1
                diverged = f"training diverged at epoch {epoch}, step {step}"
                loss, correct = _batch_loss_and_correct(model, batch, drop_rng)
                if not np.isfinite(loss.data):
                    raise NumericError(f"{diverged}: loss is not finite")
                backward(loss)
                opt.step()
                epoch_loss += float(loss.data) * batch.size
                epoch_correct += correct
                mid = cfg.eval_every and val_batches and step % cfg.eval_every == 0
                if i < len(batches) and not mid:
                    continue
                require_finite(((name, p.data) for name, p in params.items()), NumericError, diverged)
                val_loss, val_acc = _eval_loss_acc(model, val_batches)
                if val_batches and not math.isfinite(val_loss):
                    raise NumericError(f"{diverged}: validation loss is not finite")
                if val_acc > best_acc:
                    best_acc = val_acc
                    best_snap = {name: p.data.copy() for name, p in params.items()}
                    improved = True
            records.append(EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / len(train_pairs),
                train_accuracy=epoch_correct / len(train_pairs),
                val_loss=val_loss,
                val_accuracy=val_acc,
            ))
            stale_epochs = 0 if improved else stale_epochs + 1
            if val_batches and cfg.patience and stale_epochs >= cfg.patience:
                break
    for name, data in (best_snap or {}).items():
        params[name].data = data
    return model, TrainHistory(tuple(records))


def predictions(
    model: Classifier, pairs: PairList, batch_size: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """(gold label ids, predicted label ids) in input order, eval mode.

    Argmax takes the lowest label id on ties.
    """
    golds: list[int] = []
    preds: list[int] = []
    with no_grad():
        for batch in batchify(list(pairs), batch_size):
            logits = forward_batch(model, batch, rng=None)
            preds.extend(int(i) for i in logits.data.argmax(axis=-1))
            golds.extend(int(i) for i in batch.labels)
    return np.array(golds, dtype=np.int64), np.array(preds, dtype=np.int64)


def evaluate(model: Classifier, pairs: PairList, batch_size: int = 32) -> MetricsReport:
    if not pairs:
        raise DataError("evaluate needs a non-empty pair list")
    golds, preds = predictions(model, pairs, batch_size)
    cm = confusion(golds.tolist(), preds.tolist(), model.config.n_classes)
    return aggregate(cm)


@dataclass(frozen=True)
class PreparedData:
    """Packed pair lists per split plus id fingerprints identifying each split."""

    train: tuple[tuple[EncodedPair, EncodedPair], ...]
    val: tuple[tuple[EncodedPair, EncodedPair], ...]
    test: tuple[tuple[EncodedPair, EncodedPair], ...]
    fingerprints: dict[str, str]
    label_names: tuple[str, ...]


def encode_records(
    records: Sequence[RawRecord],
    labels: LabelSet,
    prep_cfg: PrepConfig,
    vocab: Vocab,
    max_len: int,
) -> list[tuple[EncodedPair, EncodedPair]]:
    pairs = []
    for r in records:
        cr = preprocess_record(r, prep_cfg, labels)
        text_ids = encode_text(cr.clean_text, vocab)
        entity_ids = encode_text(cr.clean_entity, vocab)
        pairs.append(build_both(text_ids, entity_ids, max_len, cr.label_id))
    return pairs


def prepare_data(
    splits: tuple[Sequence[RawRecord], Sequence[RawRecord], Sequence[RawRecord]],
    labels: LabelSet,
    prep_cfg: PrepConfig,
    vocab: Vocab,
    max_len: int,
) -> PreparedData:
    train_recs, val_recs, test_recs = splits
    return PreparedData(
        train=tuple(encode_records(train_recs, labels, prep_cfg, vocab, max_len)),
        val=tuple(encode_records(val_recs, labels, prep_cfg, vocab, max_len)),
        test=tuple(encode_records(test_recs, labels, prep_cfg, vocab, max_len)),
        fingerprints={
            "train": split_fingerprint(train_recs),
            "val": split_fingerprint(val_recs),
            "test": split_fingerprint(test_recs),
        },
        label_names=labels.names,
    )


@dataclass(frozen=True)
class ComparisonReport:
    fingerprints: dict[str, str]
    arms: dict[str, dict]
    deltas: dict[str, float]

    def to_json(self) -> str:
        payload = {
            "schema": COMPARISON_SCHEMA,
            "fingerprints": self.fingerprints,
            "arms": self.arms,
            "deltas": self.deltas,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _arm_summary(report: MetricsReport, labels: Sequence[str], epochs: int) -> dict:
    data = report_data(report, labels)
    return {
        "accuracy": data["accuracy"],
        "micro_f1": data["micro_f1"],
        "macro_f1": data["macro"]["f1"],
        "weighted_f1": data["weighted"]["f1"],
        "epochs_trained": epochs,
        "per_class": data["per_class"],
    }


def compare(model_cfg: ModelConfig, data: PreparedData, cfg: TrainConfig) -> ComparisonReport:
    """Train every arm in ARMS from the same config on identical splits
    and report side-by-side test metrics plus ensemble-minus-single deltas."""
    if not data.test:
        raise DataError("compare needs a non-empty test split")
    arms = {}
    for kind in ARMS:
        model, history = train(Classifier(model_cfg, kind), data.train, data.val, cfg)
        report = evaluate(model, data.test, cfg.batch_size)
        arms[kind] = _arm_summary(report, data.label_names, len(history.records))
    deltas = {
        key: arms["ensemble"][key] - arms["single"][key]
        for key in ("accuracy", "micro_f1", "macro_f1")
    }
    return ComparisonReport(fingerprints=dict(data.fingerprints), arms=arms, deltas=deltas)


@dataclass(frozen=True)
class PredictResult:
    label: str
    label_id: int
    probabilities: tuple[float, ...]


def predict(
    model: Classifier,
    vocab: Vocab,
    prep_cfg: PrepConfig,
    labels: LabelSet,
    text: str,
    entity: str,
    max_len: Optional[int] = None,
) -> PredictResult:
    """Full pipeline for one (text, entity) query in eval mode; the query
    is packed once per branch, in the order the model's layout fixes, to
    `max_len` (default: the model's)."""
    if len(labels) != model.config.n_classes:
        raise DataError(
            f"label set has {len(labels)} entries, model expects {model.config.n_classes}"
        )
    text_tokens = preprocess_text(text, prep_cfg)
    entity_tokens = preprocess_text(entity, prep_cfg)
    if not entity_tokens:
        raise DataError("entity is empty after preprocessing")
    if not text_tokens:
        raise DataError("text is empty after preprocessing")
    text_ids = encode_text(text_tokens, vocab)
    entity_ids = encode_text(entity_tokens, vocab)
    max_len = model.config.max_len if max_len is None else max_len
    pairs = [build_pair(text_ids, entity_ids, o, max_len, label_id=0) for o in model.orders]
    # bench/tracer.py times predict's forward under these two names
    forward_one = forward_single if len(pairs) == 1 else forward_ensemble
    with no_grad():
        probs = row_softmax(forward_one(model, *pairs, rng=None)).data
    label_id = int(probs.argmax())
    return PredictResult(
        label=labels.names[label_id],
        label_id=label_id,
        probabilities=tuple(float(x) for x in probs),
    )
