"""Command-line entry point.

Settings resolve in three layers: built-in defaults, then a --config
key=value file, then explicit flags.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

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
from .metrics import confusion, render
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
from .textprep import PrepConfig, preprocess_record, preprocess_text
from .tokenizer import SPECIALS, Vocab, load_vocab, save_vocab, train_vocab
from .trainer import (
    PreparedData,
    TrainConfig,
    compare,
    encode_records,
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


def _setting(default, help_text: str, **cli):
    """A RunConfig field with its --help text.  `cli` may name its
    `flag` when that is not --<field-name> and list its `choices`."""
    return dataclasses.field(default=default, metadata={"help": help_text, **cli})


@dataclass
class RunConfig:
    """Every setting the subcommands consume, each one flag on every
    subcommand and one config-file key.

    Empty path strings mean "use the bundled sample or the out_dir
    default".  A bool field's flag sets it to the opposite of its
    default.  round-trips losslessly through save/load.
    """

    corpus: str = _setting("", "corpus JSONL path (default: bundled sample)")
    labels: str = _setting("", "labels file, one per line (default: bundled sample)")
    vocab: str = _setting("", "vocabulary file path")
    checkpoint: str = _setting("", "model checkpoint path")
    input: str = _setting("", "raw CSV or TSV file for prepare")
    out_dir: str = _setting("out", "directory for all outputs")
    seed: int = _setting(42, "global random seed")
    val_frac: float = _setting(0.1, "validation fraction")
    test_frac: float = _setting(0.1, "test fraction")
    stratified: bool = _setting(True, "plain shuffled split", flag="--no-stratify")
    enable_stopwords: bool = _setting(True, "disable stopword removal", flag="--no-stopwords")
    enable_stemming: bool = _setting(True, "disable suffix normalization", flag="--no-stemming")
    max_passes: int = _setting(1, "suffix-stripping passes per word")
    target_size: int = _setting(200, "vocabulary size target")
    min_freq: int = _setting(2, "vocabulary minimum frequency")
    arm: str = _setting("ensemble", "model kind for train and gradcheck", choices=tuple(ARMS))
    d_model: int = _setting(32, "model width")
    n_heads: int = _setting(4, "attention heads")
    n_layers: int = _setting(2, "encoder layers")
    d_ff: int = _setting(64, "feed-forward width")
    d_hidden: int = _setting(0, "head hidden width (0 = d_model)")
    dropout: float = _setting(0.1, "dropout rate")
    lr: float = _setting(2e-4, "learning rate")
    batch_size: int = _setting(32, "batch size")
    max_len: int = _setting(48, "packed sequence length")
    epochs: int = _setting(40, "training epochs")
    weight_decay: float = _setting(0.01, "AdamW weight decay")
    eval_every: int = _setting(0, "steps between mid-epoch validations")
    patience: int = _setting(0, "early-stop epochs, 0 = off")

    def save(self, path: Path) -> None:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name}={v}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _true_or_false(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in ("true", "false"):
        raise ValueError(raw)
    return low == "true"


# annotation -> (converter for flag and config values, what a bad config value must be)
_CONVERTERS = {
    "str": (str, "text"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_true_or_false, "true or false"),
}


def load_run_config(path: Path, base: RunConfig) -> RunConfig:
    by_name = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in by_name:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        convert, kind = _CONVERTERS[by_name[key].type]
        try:
            updates[key] = convert(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: {key} must be {kind}, got {value!r}") from None
        choices = by_name[key].metadata.get("choices")
        if choices and updates[key] not in choices:
            raise DataError(f"{path}:{lineno}: {key} must be one of {', '.join(choices)}, got {value!r}")
    return dataclasses.replace(base, **updates)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="meder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__.splitlines()[0])
        p.add_argument("--config", help="key=value settings file")
        for f in dataclasses.fields(RunConfig):
            meta = f.metadata
            flag = meta.get("flag", "--" + f.name.replace("_", "-"))
            if f.type == "bool":
                p.add_argument(flag, dest=f.name, action="store_const",
                               const=not f.default, help=meta["help"])
            else:
                p.add_argument(flag, dest=f.name, type=_CONVERTERS[f.type][0],
                               choices=meta.get("choices"), help=meta["help"])
        if cmd is cmd_predict:
            p.add_argument("--text", help="statement text")
            p.add_argument("--entity", help="entity mention to classify")
    return parser


def _resolve_config(config: Optional[str], flags: dict) -> RunConfig:
    """Defaults, then the --config file, then the flags that were given."""
    rc = RunConfig()
    if config:
        cfg_path = Path(config)
        if not cfg_path.exists():
            raise DataError(f"config file {cfg_path} does not exist")
        rc = load_run_config(cfg_path, rc)
    return dataclasses.replace(rc, **{k: v for k, v in flags.items() if v is not None})


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


def _publish(outputs: dict[Path, Callable[[Path], object]]) -> None:
    """Write all of a command's outputs or none: each `writer(partial)`
    writes a temporary file beside its target, and only once every
    writer has succeeded are they renamed into place.  A target that is
    a directory is refused before anything is created or written, and
    a failed publish removes the directories it created."""
    for target in outputs:
        if target.is_dir():
            raise DataError(f"{target} is a directory")
    partials, created, done = {}, [], False
    try:
        for target, writer in outputs.items():
            # deepest first, ahead of those an earlier target created
            created = [d for d in target.parents if not d.exists()] + created
            target.parent.mkdir(parents=True, exist_ok=True)
            partials[target] = target.with_name(f".{target.name}.{os.getpid()}.partial")
            writer(partials[target])
        for target, partial in partials.items():
            os.replace(partial, target)
        done = True
    finally:
        for partial in partials.values():
            partial.unlink(missing_ok=True)
        for d in [] if done else created:
            try:
                d.rmdir()
            except OSError:  # not created after all, or not empty: the writer's error stands
                pass


def _refuse_overlap(inputs: dict[str, str], outputs: dict[str, Path]) -> None:
    """Refuse outputs that name an input or each other, since one file
    would silently replace the other.  Both map a role to a path; an
    empty input path (the bundled sample) is skipped."""
    seen = {Path(p).resolve(): role for role, p in inputs.items() if p}
    for role, path in outputs.items():
        other = seen.setdefault(path.resolve(), role)
        if other != role:
            raise UsageError(f"{path} is both the {other} and the {role}")


def _prep_config(rc: RunConfig) -> PrepConfig:
    """--no-stopwords and --no-stemming empty that stage's data."""
    base = PrepConfig.default()
    return dataclasses.replace(
        base,
        stopwords=base.stopwords if rc.enable_stopwords else frozenset(),
        suffix_rules=base.suffix_rules if rc.enable_stemming else (),
        max_passes=rc.max_passes,
    )


def _split_spec(rc: RunConfig) -> SplitSpec:
    return SplitSpec(val_frac=rc.val_frac, test_frac=rc.test_frac, seed=rc.seed,
                     stratified=rc.stratified)


def _vocab_path(rc: RunConfig) -> Path:
    return Path(rc.vocab) if rc.vocab else Path(rc.out_dir) / "vocab.txt"


def _checkpoint_path(rc: RunConfig) -> Path:
    return Path(rc.checkpoint) if rc.checkpoint else Path(rc.out_dir) / "model.ckpt"


def _read_vocab(path: Path) -> Vocab:
    if not path.exists():
        raise DataError(f"vocab file {path} does not exist")
    return load_vocab(path)


def _induce_vocab(rc: RunConfig, records, prep_cfg: PrepConfig, labels: LabelSet) -> Vocab:
    """Train the vocabulary on `records`."""
    token_lists = []
    for r in records:
        cr = preprocess_record(r, prep_cfg, labels)
        token_lists += [list(cr.clean_text), list(cr.clean_entity)]
    return train_vocab(token_lists, rc.target_size, rc.min_freq)


def _vocab_line(rc: RunConfig, vocab: Vocab) -> str:
    return (f"vocab: {len(vocab)} tokens (target {rc.target_size}, min_freq {rc.min_freq})"
            f" -> {_vocab_path(rc)}")


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
    """Convert a CSV/TSV export to canonical JSONL."""
    if not rc.input:
        raise UsageError("prepare requires --input pointing at a CSV or TSV export")
    src = Path(rc.input)
    if not src.exists():
        raise DataError(f"input file {src} does not exist")
    labels = _labels(rc)
    prep_cfg = _prep_config(rc)
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
            if not preprocess_text(text, prep_cfg):
                dropped["empty text"] += 1
                continue
            if not preprocess_text(entity, prep_cfg):
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
    if not kept:
        reasons = "; ".join(f"{dropped[r]} {r}" for r in sorted(dropped)) or "no data rows"
        raise DataError(f"{src}: no usable rows (dropped {reasons})")
    out_path = Path(rc.out_dir) / "corpus.jsonl"
    _publish({out_path: lambda p: write_corpus(kept, p)})
    print(f"kept {len(kept)} records -> {out_path}")
    for reason in sorted(dropped):
        print(f"dropped {dropped[reason]}: {reason}")
    return 0


def cmd_stats(rc: RunConfig) -> int:
    """Print class counts and split fingerprints."""
    spec = _split_spec(rc)
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
    parts = split(records, spec)
    print(
        f"split seed={spec.seed} stratified={'true' if spec.stratified else 'false'} "
        f"val={rc.val_frac} test={rc.test_frac}"
    )
    for name, part in zip(("train", "val", "test"), parts):
        print(f"  {name}: n={len(part)} sha256={split_fingerprint(part)}")
    return 0


def cmd_vocab(rc: RunConfig) -> int:
    """Train and write the subword vocabulary."""
    _refuse_overlap({"input corpus": rc.corpus, "input labels": rc.labels},
                    {"vocab": _vocab_path(rc)})
    labels = _labels(rc)
    records = load_corpus(_corpus_path(rc), labels)
    vocab = _induce_vocab(rc, split(records, _split_spec(rc))[0], _prep_config(rc), labels)
    _publish({_vocab_path(rc): lambda p: save_vocab(vocab, p)})
    print(_vocab_line(rc, vocab))
    return 0


def _training_inputs(rc: RunConfig) -> tuple[PreparedData, ModelConfig, Vocab]:
    """Check the model settings, load and split the corpus, read the
    vocab --vocab names or induce one from the train split, pack every
    split, and size the model config to the vocab and label set.
    Nothing is written here: an induced vocab reaches disk only in the
    caller's one `_publish`."""
    labels = _labels(rc)
    # a bad model setting fails before any work; the vocab size comes last
    mc = _model_config(rc, len(SPECIALS), len(labels))
    records = load_corpus(_corpus_path(rc), labels)
    prep_cfg = _prep_config(rc)
    splits = split(records, _split_spec(rc))
    vocab = _read_vocab(Path(rc.vocab)) if rc.vocab else _induce_vocab(rc, splits[0], prep_cfg, labels)
    data = prepare_data(splits, labels, prep_cfg, vocab, rc.max_len)
    return data, dataclasses.replace(mc, vocab_size=len(vocab)), vocab


def _metric(value: float) -> str:
    """A validation metric as printed: NaN (no validation set) is `null`,
    as in history.json."""
    return "null" if math.isnan(value) else f"{value:.4f}"


def cmd_train(rc: RunConfig) -> int:
    """Train a model and write checkpoint + history."""
    ckpt, history_path = _checkpoint_path(rc), Path(rc.out_dir) / "history.json"
    _refuse_overlap({"input corpus": rc.corpus, "input labels": rc.labels,
                     "input vocab": rc.vocab},
                    {"checkpoint": ckpt, "history": history_path,
                     **({} if rc.vocab else {"vocab": _vocab_path(rc)})})
    train_cfg = _train_config(rc)
    data, mc, vocab = _training_inputs(rc)
    model = Classifier(mc, rc.arm)
    print(f"model: {model.kind} d_model={mc.d_model} n_layers={mc.n_layers} "
          f"n_heads={mc.n_heads} params={count_params(model)}")
    model, history = train(model, data.train, data.val, train_cfg)
    for rec in history.records:
        print(
            f"epoch {rec.epoch}/{rc.epochs} train_loss={rec.train_loss:.4f} "
            f"train_acc={rec.train_accuracy:.4f} val_loss={_metric(rec.val_loss)} "
            f"val_acc={_metric(rec.val_accuracy)}"
        )
    outputs = {ckpt: lambda p: save_checkpoint(model, p),
               history_path: lambda p: p.write_text(history.to_json(), encoding="utf-8")}
    if not rc.vocab:
        outputs[_vocab_path(rc)] = lambda p: save_vocab(vocab, p)
    _publish(outputs)
    if not rc.vocab:
        print(_vocab_line(rc, vocab))
    best_val = max((r.val_accuracy for r in history.records), default=float("nan"))
    print(f"best val accuracy: {_metric(best_val)}")
    print(f"checkpoint: {ckpt}")
    print(f"history: {history_path}")
    return 0


def _trained_artefacts(rc: RunConfig) -> tuple[Classifier, Vocab, LabelSet]:
    """Load the checkpoint, vocab and labels, refusing a vocab or label
    set whose size differs from the one the checkpoint was trained on."""
    labels = _labels(rc)
    ckpt = _checkpoint_path(rc)
    if not ckpt.exists():
        raise DataError(f"checkpoint {ckpt} does not exist; run `meder train` first")
    model = load_checkpoint(ckpt)
    vocab = _read_vocab(_vocab_path(rc))
    cfg = model.config
    for what, have, want in (("vocab", len(vocab), cfg.vocab_size),
                             ("labels", len(labels), cfg.n_classes)):
        if have != want:
            raise DataError(f"{what} file has {have} entries, checkpoint {ckpt} expects {want}")
    return model, vocab, labels


def cmd_eval(rc: RunConfig) -> int:
    """Evaluate a checkpoint on the test split."""
    out = Path(rc.out_dir)
    _refuse_overlap({"input corpus": rc.corpus, "input labels": rc.labels,
                     "checkpoint": str(_checkpoint_path(rc)), "vocab": str(_vocab_path(rc))},
                    {"report": out / "report.json", "confusion": out / "confusion.csv"})
    model, vocab, labels = _trained_artefacts(rc)
    records = load_corpus(_corpus_path(rc), labels)
    test_records = split(records, _split_spec(rc))[2]
    test = encode_records(test_records, labels, _prep_config(rc), vocab, model.config.max_len)
    if not test:
        raise DataError("test split is empty; adjust --test-frac")
    golds, preds = predictions(model, test, rc.batch_size)
    cm = confusion(golds.tolist(), preds.tolist(), len(labels))
    rendered = render(cm, labels.names)
    print(rendered.table_text)
    print(rendered.confusion_csv, end="")
    _publish({out / "report.json": lambda p: p.write_text(rendered.report_json, encoding="utf-8"),
              out / "confusion.csv": lambda p: p.write_text(rendered.confusion_csv, encoding="utf-8")})
    print(f"report: {out / 'report.json'}")
    print(f"confusion: {out / 'confusion.csv'}")
    return 0


def cmd_predict(rc: RunConfig, text: Optional[str], entity: Optional[str]) -> int:
    """Classify one (text, entity) query."""
    if not (text and entity):
        raise UsageError("predict requires --text and --entity")
    model, vocab, labels = _trained_artefacts(rc)
    result = predict(model, vocab, _prep_config(rc), labels, text, entity)
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
    """Train single and ensemble arms, report deltas."""
    train_cfg = _train_config(rc)
    data, mc, _ = _training_inputs(rc)
    report = compare(mc, data, train_cfg)
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
    out_path = Path(rc.out_dir) / "comparison.json"
    _publish({out_path: lambda p: p.write_text(report.to_json(), encoding="utf-8")})
    print(f"report: {out_path}")
    return 0


def cmd_gradcheck(rc: RunConfig) -> int:
    """Finite-difference check on a tiny model."""
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

        report = grad_check(loss_fn, model.parameters(), seed=rc.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


COMMANDS = {cmd.__name__.removeprefix("cmd_"): cmd for cmd in (
    cmd_prepare, cmd_stats, cmd_vocab, cmd_train, cmd_eval, cmd_predict, cmd_compare,
    cmd_gradcheck,
)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = vars(parser.parse_args(argv))
        cmd = COMMANDS[args.pop("command")]
        config = args.pop("config")
        flags = {f.name: args.pop(f.name) for f in dataclasses.fields(RunConfig)}
        # what is left are the command's own flags (predict's --text, --entity)
        code = cmd(_resolve_config(config, flags), **args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`meder train | head`): not a data error.
        # Point stdout at os.devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, ShapeError, OSError, UnicodeError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
