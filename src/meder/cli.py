"""Command-line entry point.

Subcommands: prepare, stats, vocab, train, eval, predict, compare,
gradcheck.  Settings resolve in three layers: built-in defaults, then a
--config key=value file, then explicit flags.  Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bundled import SAMPLE_CORPUS_FILE, SAMPLE_LABELS_FILE, data_path
from .corpus import (
    LabelSet,
    RawRecord,
    SplitSpec,
    class_stats,
    count_entity_mismatches,
    load_corpus,
    published_total_note,
    split,
    split_fingerprint,
    write_corpus,
)
from .errors import DataError, NumericError, ShapeError, UsageError
from .metrics import aggregate, confusion, render
from .model import (
    ARMS,
    Classifier,
    ModelConfig,
    count_params,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from .numcore import cross_entropy, grad_check, use_dtype
from .pairseq import batchify, build_both
from .textprep import PrepConfig, preprocess_record
from .tokenizer import Vocab, load_vocab, save_vocab, train_vocab
from .trainer import (
    PreparedData,
    TrainConfig,
    compare,
    predict,
    predictions,
    prepare_data,
    train,
)

# column-name aliases accepted by `prepare`, lowercased
_TEXT_COLUMNS = ("text", "sentence", "statement")
_ENTITY_COLUMNS = ("entity", "word", "term")
_LABEL_COLUMNS = ("label", "class", "category")
_ID_COLUMNS = ("id", "sl", "serial")


@dataclass
class RunConfig:
    """Union of every setting the subcommands consume.

    Empty path strings mean "use the bundled sample or the out_dir
    default".  round-trips losslessly through save/load.
    """

    corpus: str = ""
    labels: str = ""
    vocab: str = ""
    checkpoint: str = ""
    input: str = ""
    out_dir: str = "out"
    seed: int = 42
    val_frac: float = 0.1
    test_frac: float = 0.1
    stratified: bool = True
    enable_stopwords: bool = True
    enable_stemming: bool = True
    max_passes: int = 1
    target_size: int = 200
    min_freq: int = 2
    arm: str = "ensemble"
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 64
    d_hidden: int = 0
    dropout: float = 0.1
    lr: float = 2e-4
    batch_size: int = 32
    max_len: int = 48
    epochs: int = 40
    weight_decay: float = 0.01
    eval_every: int = 0
    patience: int = 0

    def save(self, path: Path) -> None:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _coerce(field: dataclasses.Field, raw: str, where: str):
    if field.type in ("bool", bool):
        low = raw.strip().lower()
        if low not in ("true", "false"):
            raise DataError(f"{where}: {field.name} must be true or false, got {raw!r}")
        return low == "true"
    if field.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise DataError(f"{where}: {field.name} must be an integer, got {raw!r}") from None
    if field.type in ("float", float):
        try:
            return float(raw)
        except ValueError:
            raise DataError(f"{where}: {field.name} must be a number, got {raw!r}") from None
    return raw


def load_run_config(path: Path, base: RunConfig) -> RunConfig:
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in fields:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        updates[key] = _coerce(fields[key], value.strip(), f"{path}:{lineno}")
    return dataclasses.replace(base, **updates)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="meder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value settings file")
        p.add_argument("--corpus", help="corpus JSONL path (default: bundled sample)")
        p.add_argument("--labels", help="labels file, one per line (default: bundled sample)")
        p.add_argument("--vocab", help="vocabulary file path")
        p.add_argument("--checkpoint", help="model checkpoint path")
        p.add_argument("--out-dir", dest="out_dir", help="directory for all outputs")
        p.add_argument("--seed", type=int, help="global random seed")
        p.add_argument("--max-len", dest="max_len", type=int, help="packed sequence length")
        p.add_argument("--epochs", type=int, help="training epochs")
        p.add_argument("--batch-size", dest="batch_size", type=int, help="batch size")
        p.add_argument("--lr", type=float, help="learning rate")
        p.add_argument("--val-frac", dest="val_frac", type=float, help="validation fraction")
        p.add_argument("--test-frac", dest="test_frac", type=float, help="test fraction")
        p.add_argument("--arm", choices=tuple(ARMS), help="model kind for train and gradcheck")
        p.add_argument("--d-model", dest="d_model", type=int, help="model width")
        p.add_argument("--n-heads", dest="n_heads", type=int, help="attention heads")
        p.add_argument("--n-layers", dest="n_layers", type=int, help="encoder layers")
        p.add_argument("--d-ff", dest="d_ff", type=int, help="feed-forward width")
        p.add_argument("--d-hidden", dest="d_hidden", type=int, help="head hidden width (0 = d_model)")
        p.add_argument("--dropout", type=float, help="dropout rate")
        p.add_argument("--weight-decay", dest="weight_decay", type=float, help="AdamW weight decay")
        p.add_argument("--eval-every", dest="eval_every", type=int, help="steps between mid-epoch validations")
        p.add_argument("--patience", type=int, help="early-stop epochs, 0 = off")
        p.add_argument("--target-size", dest="target_size", type=int, help="vocabulary size target")
        p.add_argument("--min-freq", dest="min_freq", type=int, help="vocabulary minimum frequency")
        p.add_argument("--no-stopwords", action="store_true", help="disable stopword removal")
        p.add_argument("--no-stemming", action="store_true", help="disable suffix normalization")
        p.add_argument("--no-stratify", action="store_true", help="plain shuffled split")
        return p

    add("prepare", "convert a CSV/TSV export to canonical JSONL").add_argument(
        "--input", help="raw CSV or TSV file", default=None
    )
    add("stats", "print class counts and split fingerprints")
    add("vocab", "train and write the subword vocabulary")
    add("train", "train a model and write checkpoint + history")
    add("eval", "evaluate a checkpoint on the test split")
    p_pred = add("predict", "classify one (text, entity) query")
    p_pred.add_argument("--text", help="statement text")
    p_pred.add_argument("--entity", help="entity mention to classify")
    add("compare", "train single and ensemble arms, report deltas")
    add("gradcheck", "finite-difference check on a tiny model")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    rc = RunConfig()
    if getattr(args, "config", None):
        cfg_path = Path(args.config)
        if not cfg_path.exists():
            raise DataError(f"config file {cfg_path} does not exist")
        rc = load_run_config(cfg_path, rc)
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    if getattr(args, "no_stopwords", False):
        overrides["enable_stopwords"] = False
    if getattr(args, "no_stemming", False):
        overrides["enable_stemming"] = False
    if getattr(args, "no_stratify", False):
        overrides["stratified"] = False
    return dataclasses.replace(rc, **overrides)


def _labels(rc: RunConfig) -> LabelSet:
    path = Path(rc.labels) if rc.labels else data_path(SAMPLE_LABELS_FILE)
    if not path.exists():
        raise DataError(f"labels file {path} does not exist")
    return LabelSet.from_file(path)


def _corpus_path(rc: RunConfig) -> Path:
    if rc.corpus:
        path = Path(rc.corpus)
        if not path.exists():
            raise DataError(f"corpus file {path} does not exist")
        return path
    return data_path(SAMPLE_CORPUS_FILE)


def _out_dir(rc: RunConfig) -> Path:
    out = Path(rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _prep_config(rc: RunConfig) -> PrepConfig:
    base = PrepConfig.default()
    return dataclasses.replace(
        base,
        enable_stopwords=rc.enable_stopwords,
        enable_stemming=rc.enable_stemming,
        max_passes=rc.max_passes,
    )


def _split_spec(rc: RunConfig) -> SplitSpec:
    vf = Fraction(str(rc.val_frac))
    tf = Fraction(str(rc.test_frac))
    return SplitSpec(
        train_frac=Fraction(1) - vf - tf,
        val_frac=vf,
        test_frac=tf,
        seed=rc.seed,
        stratified=rc.stratified,
    )


def _vocab_path(rc: RunConfig) -> Path:
    return Path(rc.vocab) if rc.vocab else _out_dir(rc) / "vocab.txt"


def _checkpoint_path(rc: RunConfig) -> Path:
    return Path(rc.checkpoint) if rc.checkpoint else _out_dir(rc) / "model.ckpt"


def _clean_token_lists(records, prep_cfg: PrepConfig, labels: LabelSet) -> list[list[str]]:
    out = []
    for r in records:
        cr = preprocess_record(r, prep_cfg, labels)
        out.append(list(cr.clean_text))
        out.append(list(cr.clean_entity))
    return out


def _train_vocab_for(rc: RunConfig, records, prep_cfg, labels) -> Vocab:
    token_lists = _clean_token_lists(records, prep_cfg, labels)
    return train_vocab(token_lists, rc.target_size, rc.min_freq)


def _load_or_train_vocab(rc: RunConfig, train_records, prep_cfg, labels) -> Vocab:
    path = _vocab_path(rc)
    if path.exists():
        return load_vocab(path)
    vocab = _train_vocab_for(rc, train_records, prep_cfg, labels)
    save_vocab(vocab, path)
    print(f"vocab: trained {len(vocab)} tokens -> {path}")
    return vocab


def _model_config(rc: RunConfig, vocab_size: int, n_classes: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        max_len=rc.max_len,
        d_model=rc.d_model,
        n_heads=rc.n_heads,
        n_layers=rc.n_layers,
        d_ff=rc.d_ff,
        n_classes=n_classes,
        d_hidden=rc.d_hidden,
        dropout_rate=rc.dropout,
        seed=rc.seed,
    )


def _train_config(rc: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=rc.lr,
        batch_size=rc.batch_size,
        max_len=rc.max_len,
        epochs=rc.epochs,
        weight_decay=rc.weight_decay,
        seed=rc.seed,
        eval_every=rc.eval_every,
        patience=rc.patience,
    )


def _find_column(header: Sequence[str], aliases: Sequence[str]) -> Optional[str]:
    lowered = {h.strip().lower(): h for h in header}
    for alias in aliases:
        if alias in lowered:
            return lowered[alias]
    return None


def cmd_prepare(rc: RunConfig) -> int:
    if not rc.input:
        raise UsageError("prepare requires --input pointing at a CSV or TSV export")
    src = Path(rc.input)
    if not src.exists():
        raise DataError(f"input file {src} does not exist")
    labels = _labels(rc)
    delimiter = "\t" if src.suffix.lower() in (".tsv", ".tab") else ","
    kept: list[RawRecord] = []
    dropped: Counter = Counter()
    seen_ids: set[str] = set()
    with src.open(newline="", encoding="utf-8-sig") as f:
        reader = csv.DictReader(f, delimiter=delimiter)
        if reader.fieldnames is None:
            raise DataError(f"{src}: no header row")
        text_col = _find_column(reader.fieldnames, _TEXT_COLUMNS)
        entity_col = _find_column(reader.fieldnames, _ENTITY_COLUMNS)
        label_col = _find_column(reader.fieldnames, _LABEL_COLUMNS)
        id_col = _find_column(reader.fieldnames, _ID_COLUMNS)
        missing = [
            name for name, col in
            (("text", text_col), ("entity", entity_col), ("label", label_col))
            if col is None
        ]
        if missing:
            raise DataError(
                f"{src}: cannot find {'/'.join(missing)} columns in header {reader.fieldnames}"
            )
        for rownum, row in enumerate(reader, start=2):
            text = (row.get(text_col) or "").strip()
            entity = (row.get(entity_col) or "").strip()
            label = (row.get(label_col) or "").strip()
            if not unicodedata.normalize("NFC", text).strip():
                dropped["empty text"] += 1
                continue
            if not unicodedata.normalize("NFC", entity).strip():
                dropped["empty entity"] += 1
                continue
            if label not in labels.index:
                dropped["unknown label"] += 1
                continue
            rec_id = (row.get(id_col) or "").strip() if id_col else ""
            if not rec_id:
                rec_id = f"r{rownum - 1:06d}"
            if rec_id in seen_ids:
                dropped["duplicate id"] += 1
                continue
            seen_ids.add(rec_id)
            kept.append(RawRecord(id=rec_id, text=text, entity=entity, label=label))
    out_path = _out_dir(rc) / "corpus.jsonl"
    write_corpus(kept, out_path)
    print(f"kept {len(kept)} records -> {out_path}")
    for reason in sorted(dropped):
        print(f"dropped {dropped[reason]}: {reason}")
    if not kept:
        raise DataError(f"{src}: no usable rows")
    return 0


def cmd_stats(rc: RunConfig) -> int:
    labels = _labels(rc)
    path = _corpus_path(rc)
    records = load_corpus(path, labels)
    stats = class_stats(records, labels)
    print(f"corpus: {path}")
    print(f"total records: {stats.total}")
    print("label counts:")
    for name in labels.names:
        print(f"  {name}: {stats.counts[name]}")
    print(f"entity-not-in-text: {count_entity_mismatches(records)}")
    note = published_total_note(stats)
    if note:
        print(note)
    spec = _split_spec(rc)
    parts = split(records, spec)
    print(
        f"split seed={spec.seed} stratified={'true' if spec.stratified else 'false'} "
        f"val={rc.val_frac} test={rc.test_frac}"
    )
    for name, part in zip(("train", "val", "test"), parts):
        print(f"  {name}: n={len(part)} sha256={split_fingerprint(part)}")
    return 0


def cmd_vocab(rc: RunConfig) -> int:
    labels = _labels(rc)
    records = load_corpus(_corpus_path(rc), labels)
    prep_cfg = _prep_config(rc)
    train_records = split(records, _split_spec(rc))[0]
    vocab = _train_vocab_for(rc, train_records, prep_cfg, labels)
    path = _vocab_path(rc)
    save_vocab(vocab, path)
    print(f"vocab: {len(vocab)} tokens (target {rc.target_size}, min_freq {rc.min_freq}) -> {path}")
    return 0


def _training_inputs(rc: RunConfig) -> tuple[PreparedData, ModelConfig]:
    """Load and split the corpus, load or train the vocab, pack every
    split and size the model config to the vocab and label set."""
    labels = _labels(rc)
    records = load_corpus(_corpus_path(rc), labels)
    prep_cfg = _prep_config(rc)
    splits = split(records, _split_spec(rc))
    vocab = _load_or_train_vocab(rc, splits[0], prep_cfg, labels)
    data = prepare_data(splits, labels, prep_cfg, vocab, rc.max_len)
    return data, _model_config(rc, len(vocab), len(labels))


def cmd_train(rc: RunConfig) -> int:
    data, mc = _training_inputs(rc)
    model = Classifier(mc, rc.arm)
    print(f"model: {model.kind} d_model={mc.d_model} n_layers={mc.n_layers} "
          f"n_heads={mc.n_heads} params={count_params(model)}")
    model, history = train(model, data.train, data.val, _train_config(rc))
    for rec in history.records:
        print(
            f"epoch {rec.epoch}/{rc.epochs} train_loss={rec.train_loss:.4f} "
            f"train_acc={rec.train_accuracy:.4f} val_loss={rec.val_loss:.4f} "
            f"val_acc={rec.val_accuracy:.4f}"
        )
    out = _out_dir(rc)
    ckpt = _checkpoint_path(rc)
    save_checkpoint(model, ckpt)
    history_path = out / "history.json"
    history_path.write_text(history.to_json(), encoding="utf-8")
    best_val = max((r.val_accuracy for r in history.records), default=float("nan"))
    print(f"best val accuracy: {best_val:.4f}")
    print(f"checkpoint: {ckpt}")
    print(f"history: {history_path}")
    return 0


def cmd_eval(rc: RunConfig) -> int:
    labels = _labels(rc)
    ckpt = _checkpoint_path(rc)
    if not ckpt.exists():
        raise DataError(f"checkpoint {ckpt} does not exist; run `meder train` first")
    model = load_checkpoint(ckpt)
    if model.config.n_classes != len(labels):
        raise DataError(
            f"checkpoint has {model.config.n_classes} classes, labels file has {len(labels)}"
        )
    vocab_path = _vocab_path(rc)
    if not vocab_path.exists():
        raise DataError(f"vocab file {vocab_path} does not exist")
    vocab = load_vocab(vocab_path)
    records = load_corpus(_corpus_path(rc), labels)
    prep_cfg = _prep_config(rc)
    splits = split(records, _split_spec(rc))
    data = prepare_data(splits, labels, prep_cfg, vocab, model.config.max_len)
    if not data.test:
        raise DataError("test split is empty; adjust --test-frac")
    golds, preds = predictions(model, data.test, rc.batch_size)
    cm = confusion(golds.tolist(), preds.tolist(), len(labels))
    report = aggregate(cm)
    rendered = render(report, cm, labels.names)
    print(rendered.table_text)
    print(rendered.confusion_csv, end="")
    out = _out_dir(rc)
    (out / "report.json").write_text(rendered.report_json, encoding="utf-8")
    (out / "confusion.csv").write_text(rendered.confusion_csv, encoding="utf-8")
    print(f"report: {out / 'report.json'}")
    print(f"confusion: {out / 'confusion.csv'}")
    return 0


def cmd_predict(rc: RunConfig, text: Optional[str], entity: Optional[str]) -> int:
    if not text:
        raise UsageError("predict requires --text")
    if not entity:
        raise UsageError("predict requires --entity")
    labels = _labels(rc)
    ckpt = _checkpoint_path(rc)
    if not ckpt.exists():
        raise DataError(f"checkpoint {ckpt} does not exist; run `meder train` first")
    model = load_checkpoint(ckpt)
    vocab_path = _vocab_path(rc)
    if not vocab_path.exists():
        raise DataError(f"vocab file {vocab_path} does not exist")
    vocab = load_vocab(vocab_path)
    result = predict(
        model, vocab, _prep_config(rc), labels, text, entity, max_len=model.config.max_len
    )
    payload = {
        "label": result.label,
        "label_id": result.label_id,
        "probabilities": {
            name: prob for name, prob in zip(labels.names, result.probabilities)
        },
    }
    print(json.dumps(payload, ensure_ascii=False, indent=2))
    return 0


def cmd_compare(rc: RunConfig) -> int:
    data, mc = _training_inputs(rc)
    report = compare(mc, data, _train_config(rc))
    for arm in ("single", "ensemble"):
        a = report.arms[arm]
        print(
            f"{arm}: accuracy={a['accuracy']:.4f} micro_f1={a['micro_f1']:.4f} "
            f"macro_f1={a['macro_f1']:.4f}"
        )
    print(
        "delta (ensemble - single): "
        + " ".join(f"{k}={report.deltas[k]:+.4f}" for k in ("accuracy", "micro_f1", "macro_f1"))
    )
    out_path = _out_dir(rc) / "comparison.json"
    out_path.write_text(report.to_json(), encoding="utf-8")
    print(f"report: {out_path}")
    return 0


def cmd_gradcheck(rc: RunConfig) -> int:
    with use_dtype(np.float64):
        cfg = ModelConfig(
            vocab_size=50, max_len=16, d_model=8, n_heads=2, n_layers=1,
            d_ff=16, n_classes=6, dropout_rate=0.0, seed=rc.seed,
        )
        model = Classifier(cfg, rc.arm)
        rng = np.random.default_rng(rc.seed)
        pairs = []
        for _ in range(2):
            text_ids = rng.integers(4, cfg.vocab_size, size=5).tolist()
            entity_ids = rng.integers(4, cfg.vocab_size, size=2).tolist()
            label = int(rng.integers(0, cfg.n_classes))
            pairs.append(build_both(text_ids, entity_ids, cfg.max_len, label))
        batch = batchify(pairs, batch_size=2)[0]

        def loss_fn():
            logits = forward_batch(model, batch, rng=None)
            return cross_entropy(logits, batch.labels)

        report = grad_check(loss_fn, model.parameters(), tolerance=1e-3, h=1e-4, seed=rc.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rc = _resolve_config(args)
        if args.command == "prepare":
            return cmd_prepare(rc)
        if args.command == "stats":
            return cmd_stats(rc)
        if args.command == "vocab":
            return cmd_vocab(rc)
        if args.command == "train":
            return cmd_train(rc)
        if args.command == "eval":
            return cmd_eval(rc)
        if args.command == "predict":
            return cmd_predict(rc, getattr(args, "text", None), getattr(args, "entity", None))
        if args.command == "compare":
            return cmd_compare(rc)
        if args.command == "gradcheck":
            return cmd_gradcheck(rc)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (DataError, ShapeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
