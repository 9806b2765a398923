"""Command-line tests: exit codes, config layering, and the end-to-end flow."""

import csv
import dataclasses
import errno
import json
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import meder
from meder.bundled import SAMPLE_CORPUS_FILE, SAMPLE_LABELS_FILE, data_path
from meder.cli import COMMANDS, RunConfig, _build_parser, _publish, load_run_config, main
from meder.corpus import LabelSet, SplitSpec, load_corpus, split, split_fingerprint
from meder.model import Classifier, ModelConfig, load_checkpoint, save_checkpoint
from meder.tokenizer import load_vocab

from helpers import COMPARISON_JSON_SCHEMA, tree_snapshot

LABELS = LabelSet.from_file(data_path(SAMPLE_LABELS_FILE))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_matches_library_computed_values(capsys):
    code, out, _ = run(capsys, "stats")
    assert code == 0
    assert "total records: 120" in out
    for name in LABELS.names:
        assert f"  {name}: 20" in out
    assert "entity-not-in-text: 0" in out
    assert "split seed=42 stratified=true val=0.1 test=0.1" in out

    records = load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)
    parts = split(records, SplitSpec.default())
    for name, part in zip(("train", "val", "test"), parts):
        assert f"  {name}: n={len(part)} sha256={split_fingerprint(part)}" in out
    assert "  train: n=96 " in out
    assert "  val: n=12 " in out
    assert "  test: n=12 " in out


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["predict", "--text", "x"],
        ["predict", "--entity", "x"],
        ["prepare"],
        ["stats", "--bogus-flag"],
        ["frobnicate"],
        [],
        ["train", "--arm", "banana"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "usage error:" in err, argv


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--corpus", "/does/not/exist.jsonl")
    assert code == 2
    assert "data error:" in err

    code, _, err = run(capsys, "stats", "--labels", "/does/not/exist.txt")
    assert code == 2
    assert "does not exist" in err

    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"Disease\n\xe9\n")
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text("val_frac=nan\n", encoding="utf-8")
    for argv in (
        ["stats", "--corpus", str(tmp_path)],
        ["stats", "--config", str(tmp_path)],
        ["stats", "--labels", str(not_utf8)],
        ["train", "--out-dir", str(tmp_path / "out"), "--vocab", str(not_utf8)],
        ["stats", "--val-frac", "nan"],
        ["stats", "--test-frac", "inf"],
        ["stats", "--val-frac", "1e400"],
        ["stats", "--config", str(nan_cfg)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("data error:"), argv
        assert "Traceback" not in err, argv


def test_gradcheck_passes_and_reports(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "1")
    assert code == 0
    assert "max_rel_err" in out
    assert "-> PASS" in out
    assert "FAIL" not in out
    assert "head.w1" in out

    code, out, _ = run(capsys, "gradcheck", "--seed", "1", "--arm", "single")
    assert code == 0
    assert "head.w:" in out and "head.b:" in out
    assert "FAIL" not in out


def test_config_file_round_trips_and_flags_win(tmp_path, capsys):
    rc = RunConfig(seed=7, d_model=16, enable_stemming=False)
    path = tmp_path / "run.cfg"
    rc.save(path)
    assert load_run_config(path, RunConfig()) == rc

    code, out, _ = run(capsys, "stats", "--config", str(path))
    assert code == 0
    assert "split seed=7" in out

    code, out, _ = run(capsys, "stats", "--config", str(path), "--seed", "9")
    assert code == 0
    assert "split seed=9" in out


def test_config_file_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "none.cfg"
    code, _, err = run(capsys, "stats", "--config", str(missing))
    assert code == 2 and "does not exist" in err

    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("nonsense=3\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--config", str(bad_key))
    assert code == 2 and "unknown config key" in err

    bad_bool = tmp_path / "bad_bool.cfg"
    bad_bool.write_text("stratified=maybe\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--config", str(bad_bool))
    assert code == 2 and "must be true or false" in err

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just some words\n", encoding="utf-8")
    code, _, err = run(capsys, "stats", "--config", str(bad_line))
    assert code == 2 and "expected key=value" in err

    # a config value passes the same choices as its flag, before any input is read
    bad_arm = tmp_path / "bad_arm.cfg"
    bad_arm.write_text("# arm\narm=bogus\n", encoding="utf-8")
    want = f"data error: {bad_arm}:2: arm must be one of single, ensemble, got 'bogus'\n"
    for argv in (["stats"], ["train", "--out-dir", str(tmp_path / "out")],
                 ["train", "--corpus", str(tmp_path / "missing.jsonl")]):
        code, out, err = run(capsys, *argv, "--config", str(bad_arm))
        assert (code, out, err) == (2, "", want), argv
    assert not (tmp_path / "out").exists()


def test_prepare_converts_csv_and_reports_drops(tmp_path, capsys):
    label = LABELS.names[0]
    other = LABELS.names[1]
    src = tmp_path / "export.csv"
    src.write_text(
        "Serial,Sentence,Term,Category\n"
        f"1,first usable row,alpha,{label}\n"
        f"2,second usable row,beta,{other}\n"
        f"2,duplicate serial row,gamma,{label}\n"
        f"3,,delta,{label}\n"
        f"4,missing entity row,,{label}\n"
        "5,unknown label row,epsilon,Bogus\n"
        f",auto id row,zeta,{other}\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "prepare", "--input", str(src), "--out-dir", str(out_dir))
    assert code == 0
    assert "kept 3 records" in out
    assert "dropped 1: duplicate id" in out
    assert "dropped 1: empty text" in out
    assert "dropped 1: empty entity" in out
    assert "dropped 1: unknown label" in out

    records = load_corpus(out_dir / "corpus.jsonl", LABELS)
    assert [r.id for r in records] == ["1", "2", "r000007"]
    assert records[0].text == "first usable row"
    assert records[0].label == label


def test_prepare_handles_tsv_and_bad_inputs(tmp_path, capsys):
    src = tmp_path / "export.tsv"
    src.write_text(
        "text\tentity\tlabel\n"
        f"a tab separated row\talpha\t{LABELS.names[2]}\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "prepare", "--input", str(src), "--out-dir", str(out_dir))
    assert code == 0 and "kept 1 records" in out
    assert [r.id for r in load_corpus(out_dir / "corpus.jsonl", LABELS)] == ["r000001"]

    code, _, err = run(capsys, "prepare", "--input", str(tmp_path / "nope.csv"))
    assert code == 2 and "does not exist" in err

    headerless = tmp_path / "no_entity.csv"
    headerless.write_text(f"text,label\nrow,{LABELS.names[0]}\n", encoding="utf-8")
    code, _, err = run(capsys, "prepare", "--input", str(headerless),
                       "--out-dir", str(out_dir))
    assert code == 2 and "cannot find entity" in err

    all_bad = tmp_path / "all_bad.csv"
    all_bad.write_text("text,entity,label\nrow,alpha,Bogus\n", encoding="utf-8")
    code, _, err = run(capsys, "prepare", "--input", str(all_bad),
                       "--out-dir", str(out_dir))
    assert code == 2 and "no usable rows" in err


def test_prepare_keeps_only_rows_that_survive_preprocessing(tmp_path, capsys):
    """A row whose text or entity preprocesses to nothing is dropped, so
    `train` accepts everything `prepare` keeps."""
    src = tmp_path / "export.csv"
    with src.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "text", "entity", "label"])
        records = load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)
        for r in records:
            writer.writerow([r.id, r.text, r.entity, r.label])
        writer.writerow(["x1", "।।।", records[0].entity, records[0].label])
        writer.writerow(["x2", records[0].text, "এবং", records[0].label])
    out = tmp_path / "out"
    code, text_out, _ = run(capsys, "prepare", "--input", str(src), "--out-dir", str(out))
    assert code == 0
    assert f"kept {len(records)} records" in text_out
    assert "dropped 1: empty text" in text_out
    assert "dropped 1: empty entity" in text_out

    code, _, err = run(capsys, "train", "--corpus", str(out / "corpus.jsonl"),
                       "--out-dir", str(out), *SMALL)
    assert code == 0, err


SMALL = ("--max-len", "32", "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
         "--d-ff", "16", "--epochs", "1", "--batch-size", "16", "--lr", "1e-3",
         "--target-size", "200", "--min-freq", "2")


def test_train_eval_predict_flow(tmp_path, capsys):
    out = str(tmp_path / "out")

    code, text_out, _ = run(capsys, "vocab", "--out-dir", out, *SMALL)
    assert code == 0
    assert re.search(r"vocab: \d+ tokens \(target 200, min_freq 2\)", text_out)
    assert (tmp_path / "out" / "vocab.txt").exists()

    code, text_out, _ = run(capsys, "train", "--out-dir", out, *SMALL)
    assert code == 0
    assert "model: ensemble d_model=8" in text_out
    assert "epoch 1/1 " in text_out
    assert "checkpoint:" in text_out
    history = json.loads((tmp_path / "out" / "history.json").read_text(encoding="utf-8"))
    assert len(history) == 1 and history[0]["epoch"] == 1

    code, text_out, _ = run(capsys, "eval", "--out-dir", out, *SMALL)
    assert code == 0
    assert "Overall Accuracy" in text_out
    assert "Macro F1-Score" in text_out
    assert (tmp_path / "out" / "confusion.csv").read_text(encoding="utf-8").startswith("actual,")
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert "accuracy" in report

    records = load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)
    code, text_out, _ = run(capsys, "predict", "--out-dir", out,
                            "--text", records[0].text, "--entity", records[0].entity)
    assert code == 0
    payload = json.loads(text_out)
    assert payload["label"] in LABELS.names
    assert set(payload["probabilities"]) == set(LABELS.names)
    assert abs(sum(payload["probabilities"].values()) - 1.0) < 1e-6

    code, _, err = run(capsys, "predict", "--out-dir", out, "--order", "text-first",
                       "--text", records[0].text, "--entity", records[0].entity)
    assert code == 1 and "unrecognized arguments: --order" in err


def test_train_induces_its_vocab_unless_vocab_names_one(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "vocab", "--out-dir", str(out), "--target-size", "150")
    assert code == 0
    named = tmp_path / "vocab150.txt"
    shutil.copy(out / "vocab.txt", named)

    # a vocab.txt left in --out-dir is not reused: train induces its own
    code, text_out, _ = run(capsys, "train", "--out-dir", str(out), *SMALL, "--target-size", "300")
    assert code == 0
    assert "vocab: 300 tokens (target 300, min_freq 2)" in text_out
    assert len(load_vocab(out / "vocab.txt")) == 300
    assert load_checkpoint(out / "model.ckpt").config.vocab_size == 300

    code, text_out, _ = run(capsys, "train", "--out-dir", str(out), *SMALL, "--vocab", str(named))
    assert code == 0
    assert "vocab:" not in text_out
    assert load_checkpoint(out / "model.ckpt").config.vocab_size == 150

    fresh = tmp_path / "fresh"
    code, text_out, err = run(capsys, "train", "--out-dir", str(fresh), *SMALL,
                              "--vocab", str(tmp_path / "missing.txt"))
    assert code == 2
    assert err.startswith("data error:") and "missing.txt does not exist" in err
    assert text_out == ""
    assert not fresh.exists()


# the diverging runs below break their weights on the last step of epoch 1
LAST_STEP_OVERFLOW = "training diverged at epoch 1, step 3: tensor branch1.word_emb holds NaN or inf"


def test_a_diverged_train_writes_nothing_and_names_one_error(tmp_path):
    """A run that diverges exits 3 with one line on stderr, the named
    error and no NumPy warnings, and leaves no vocab.txt behind."""
    out = tmp_path / "div"
    env = dict(os.environ, PYTHONPATH=str(Path(meder.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "meder.cli", "train", "--out-dir", str(out), "--lr", "1e4",
         "--epochs", "2", "--max-len", "32", "--d-model", "8", "--n-heads", "2",
         "--n-layers", "1", "--d-ff", "16", "--target-size", "200", "--min-freq", "2"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 3
    assert done.stderr == f"numeric error: {LAST_STEP_OVERFLOW}\n"
    assert "vocab:" not in done.stdout
    assert not out.exists()


@pytest.mark.parametrize("extra", [("--epochs", "1"), ("--epochs", "1", "--eval-every", "1"),
                                   ("--epochs", "2", "--eval-every", "1")])
def test_a_last_step_overflow_exits_3_without_warnings_or_artefacts(tmp_path, extra):
    """Weights that turn non-finite on an epoch's last step are caught by
    that step's validation, whether or not mid-epoch validation is on:
    no snapshot or checkpoint of them, one named error, no NumPy warning."""
    out = tmp_path / "div1"
    env = dict(os.environ, PYTHONPATH=str(Path(meder.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "meder.cli", "train", "--out-dir", str(out), "--lr", "1e4",
         "--max-len", "32", "--d-model", "8", "--n-heads", "2", "--n-layers", "1",
         "--d-ff", "16", "--target-size", "200", "--min-freq", "2", *extra],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 3
    assert done.stderr == f"numeric error: {LAST_STEP_OVERFLOW}\n"
    assert "RuntimeWarning" not in done.stdout + done.stderr
    assert not out.exists()


def test_validating_every_epoch_length_steps_keeps_the_epoch_end_selection(tmp_path, capsys):
    """With eval_every equal to the steps per epoch, each mid-epoch
    validation is the epoch-end one: patience sees the same gains and the
    same weights are kept as with eval_every 0."""
    outputs = []
    for every in ("0", "6"):  # 96 training records in batches of 16
        out = tmp_path / f"every{every}"
        code, _, err = run(capsys, "train", "--out-dir", str(out), *SMALL, "--lr", "2e-2",
                           "--epochs", "6", "--patience", "1", "--eval-every", every)
        assert code == 0, err
        outputs.append([(out / name).read_bytes() for name in ("history.json", "model.ckpt")])
    assert len(json.loads(outputs[0][0])) == 3  # epoch 2 gained, epoch 3 did not
    assert outputs[0] == outputs[1]


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_history_without_validation_is_strict_json_with_nulls(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "train", "--out-dir", str(out), *SMALL, "--val-frac", "0",
                            "--epochs", "2")
    assert code == 0, err
    text = (out / "history.json").read_text(encoding="utf-8")
    rows = json.loads(text, parse_constant=_refuse_constant)
    assert [(r["val_loss"], r["val_accuracy"]) for r in rows] == [(None, None)] * 2
    # the printed report names the missing metric as history.json does
    assert stdout.count("val_loss=null val_acc=null") == 2
    assert "best val accuracy: null" in stdout and "nan" not in stdout
    assert all(isinstance(r["train_loss"], float) for r in rows)


@pytest.mark.parametrize("vocab_size", [300, 150])
def test_predict_with_a_vocab_larger_than_the_checkpoint_exits_2(tmp_path, capsys, vocab_size):
    """Any vocab whose size differs from the checkpoint's is refused
    before the first forward pass, whatever the query's token ids."""
    out = tmp_path / "out"
    code, _, _ = run(capsys, "vocab", "--out-dir", str(out), "--target-size", str(vocab_size))
    assert code == 0
    assert len(load_vocab(out / "vocab.txt")) == vocab_size
    cfg = ModelConfig(vocab_size=200, max_len=48, d_model=8, n_heads=2, n_layers=1,
                      d_ff=16, n_classes=len(LABELS))
    save_checkpoint(Classifier(cfg, "single"), out / "model.ckpt")
    record = load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)[0]
    for command in (["predict", "--text", record.text, "--entity", record.entity], ["eval"]):
        code, text_out, err = run(capsys, *command, "--out-dir", str(out))
        assert code == 2
        assert text_out == ""
        assert err.startswith("data error:")
        assert f"vocab file has {vocab_size} entries" in err and "expects 200" in err
        assert "Traceback" not in err


def test_predict_without_checkpoint_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "predict", "--out-dir", str(tmp_path / "fresh"),
                       "--text", "x", "--entity", "y")
    assert code == 2
    assert "run `meder train` first" in err
    assert not (tmp_path / "fresh").exists()


def test_eval_without_checkpoint_creates_no_out_dir(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "--out-dir", str(tmp_path / "fresh"))
    assert code == 2
    assert "run `meder train` first" in err
    assert not (tmp_path / "fresh").exists()


def test_prepare_with_no_usable_rows_writes_nothing(tmp_path, capsys):
    src = tmp_path / "unknown_label.csv"
    src.write_text("text,entity,label\nrow,alpha,Bogus\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, text_out, err = run(capsys, "prepare", "--input", str(src), "--out-dir", str(out_dir))
    assert code == 2 and "no usable rows (dropped 1 unknown label)" in err
    assert text_out == ""
    assert not out_dir.exists()


def test_compare_writes_a_valid_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, text_out, _ = run(capsys, "compare", "--out-dir", out, *SMALL)
    assert code == 0
    assert "single: accuracy=" in text_out
    assert "ensemble: accuracy=" in text_out
    assert "delta (ensemble - single): accuracy=" in text_out
    payload = json.loads((tmp_path / "out" / "comparison.json").read_text(encoding="utf-8"))
    jsonschema.validate(payload, COMPARISON_JSON_SCHEMA)
    assert "vocab:" not in text_out
    assert sorted(os.listdir(out)) == ["comparison.json"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An out-dir after `train` then `eval` at the SMALL config."""
    out = tmp_path_factory.mktemp("trained") / "out"
    assert main(["train", "--out-dir", str(out), *SMALL]) == 0
    assert main(["eval", "--out-dir", str(out), *SMALL]) == 0
    return out


def _write_export(path):
    """A small CSV export of the sample corpus for `prepare`."""
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["text", "entity", "label"])
        for r in load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)[:6]:
            writer.writerow([r.text, r.entity, r.label])


@pytest.mark.parametrize("command, output", [
    ("prepare", "corpus.jsonl"), ("vocab", "vocab.txt"), ("train", "model.ckpt"),
    ("train", "history.json"), ("train", "vocab.txt"), ("compare", "comparison.json"),
    ("eval", "report.json"), ("eval", "confusion.csv"),
])
def test_a_command_that_cannot_write_one_output_writes_none(trained, tmp_path, capsys,
                                                            command, output):
    """Any one output that is a directory makes the command a data error
    that leaves the tree as it was: no file replaced, no temporary left."""
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    export = tmp_path / "export.csv"
    _write_export(export)
    target = out / output
    if target.exists():
        target.unlink()
    target.mkdir()
    (target / "keep").write_text("x", encoding="utf-8")
    before = tree_snapshot(tmp_path)
    code, _, err = run(capsys, command, "--out-dir", str(out), "--input", str(export), *SMALL)
    assert code == 2
    assert err == f"data error: {target} is a directory\n"
    assert tree_snapshot(tmp_path) == before


def test_a_train_that_cannot_write_its_history_keeps_the_older_run(trained, tmp_path, capsys):
    """With history.json a directory, a new train once exited 2 yet
    replaced model.ckpt, and eval then read it through the older
    same-size vocab.txt and exited 0.  Now the older pair stays whole."""
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    code, report_before, _ = run(capsys, "eval", "--out-dir", str(out))
    assert code == 0
    (out / "history.json").unlink()
    (out / "history.json").mkdir()
    before = tree_snapshot(tmp_path)
    code, _, err = run(capsys, "train", "--out-dir", str(out), *SMALL, "--seed", "7")
    assert code == 2 and err.startswith("data error:")
    assert tree_snapshot(tmp_path) == before
    code, report_after, _ = run(capsys, "eval", "--out-dir", str(out))
    assert code == 0 and report_after == report_before


def test_compare_into_a_trained_out_dir_adds_only_its_report(trained, tmp_path, capsys):
    """compare writes no checkpoint, so a vocab.txt from it could only
    ever be read beside another run's model.ckpt."""
    out = tmp_path / "out"
    shutil.copytree(trained, out)
    before = tree_snapshot(out)
    code, text_out, err = run(capsys, "compare", "--out-dir", str(out), *SMALL, "--no-stemming")
    assert code == 0, err
    assert "vocab:" not in text_out
    after = tree_snapshot(out)
    assert after.pop("comparison.json")
    assert after == before


def test_a_writer_that_fails_leaves_every_target_as_it_was(tmp_path):
    old = tmp_path / "old.txt"
    old.write_text("old", encoding="utf-8")

    def half_then_fail(path):
        path.write_text("half", encoding="utf-8")
        raise OSError("disk full")

    before = tree_snapshot(tmp_path)
    with pytest.raises(OSError, match="disk full"):
        _publish({old: lambda p: p.write_text("new", encoding="utf-8"),
                  tmp_path / "new.txt": half_then_fail})
    assert tree_snapshot(tmp_path) == before
    # the directories a failed publish had to create go too, deepest first
    with pytest.raises(OSError, match="disk full"):
        _publish({old: lambda p: p.write_text("new", encoding="utf-8"),
                  tmp_path / "fresh" / "new.txt": lambda p: p.write_text("new", encoding="utf-8"),
                  tmp_path / "fresh" / "sub" / "new.txt": half_then_fail})
    assert tree_snapshot(tmp_path) == before


def test_a_train_that_cannot_make_its_out_dir_leaves_no_new_directory(tmp_path, capsys):
    """The checkpoint's fresh directories are made first; the out-dir
    under a regular file then cannot be, and they are removed again."""
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    before = tree_snapshot(tmp_path)
    code, _, err = run(capsys, "train", "--checkpoint", str(tmp_path / "fresh" / "a" / "m.ckpt"),
                       "--out-dir", str(tmp_path / "afile" / "o"), *SMALL)
    assert code == 2 and err.startswith("data error: ")
    assert tree_snapshot(tmp_path) == before


def test_published_files_have_the_mode_the_umask_gives(tmp_path, capsys):
    out = tmp_path / "out"
    umask = os.umask(0o027)
    try:
        for command in ("train", "eval"):
            code, _, err = run(capsys, command, "--out-dir", str(out), *SMALL)
            assert code == 0, err
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == dict.fromkeys(
        ["model.ckpt", "history.json", "vocab.txt", "report.json", "confusion.csv"], 0o640)


@pytest.mark.parametrize("command, argv", [
    ("train", ("--out-dir", "same", "--checkpoint", "same/vocab.txt")),
    ("train", ("--out-dir", "same", "--checkpoint", "same/sub/../history.json")),
    ("train", ("--vocab", "v/vocab.txt", "--checkpoint", "v/vocab.txt")),
    ("vocab", ("--vocab", "v/corpus.jsonl", "--corpus", "v/corpus.jsonl")),
    ("eval", ("--out-dir", "v", "--checkpoint", "v/report.json")),
])
def test_outputs_that_name_an_input_or_each_other_are_refused(trained, tmp_path, capsys,
                                                               command, argv):
    """A usage error before any input is read (the corpus named last
    does not exist), so nothing is printed or written."""
    v = tmp_path / "v"
    v.mkdir()
    for name in ("vocab.txt", "model.ckpt"):
        shutil.copy(trained / name, v / name)
    shutil.copy(trained / "model.ckpt", v / "report.json")
    shutil.copy(data_path(SAMPLE_CORPUS_FILE), v / "corpus.jsonl")
    before = tree_snapshot(tmp_path)
    argv = [a if a.startswith("--") else str(tmp_path / a) for a in argv]
    if "--corpus" not in argv:
        argv += ["--corpus", str(tmp_path / "missing.jsonl")]
    code, text_out, err = run(capsys, command, *argv, *SMALL)
    assert code == 1
    assert err.startswith("usage error:") and " is both the " in err
    assert text_out == ""
    assert tree_snapshot(tmp_path) == before


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("setting", ["--lr=nan", "--weight-decay=inf", "--epochs=0",
                                     "--batch-size=0", "--d-model=30", "--max-len=6"])
def test_bad_training_settings_exit_2_before_any_work(tmp_path, capsys, command, setting):
    """Nothing is printed or written; --max-len=6 is found only when the
    splits are packed, which comes before the induced vocab is written."""
    out = tmp_path / "out"
    code, text_out, err = run(capsys, command, "--out-dir", str(out), setting)
    assert code == 2
    assert err.startswith("data error:") and "Traceback" not in err
    assert text_out == ""
    assert not (out / "vocab.txt").exists()


# Every run setting, in RunConfig order.  Each is the flag --<name with
# dashes> on every subcommand, except the three bools below, whose flag
# turns them off.
SETTINGS = (
    "corpus", "labels", "vocab", "checkpoint", "input", "out_dir", "seed", "val_frac",
    "test_frac", "stratified", "enable_stopwords", "enable_stemming", "max_passes",
    "target_size", "min_freq", "arm", "d_model", "n_heads", "n_layers", "d_ff", "d_hidden",
    "dropout", "lr", "batch_size", "max_len", "epochs", "weight_decay", "eval_every",
    "patience",
)
OFF_FLAGS = {"stratified": "--no-stratify", "enable_stopwords": "--no-stopwords",
             "enable_stemming": "--no-stemming"}


@pytest.mark.parametrize("name", SETTINGS)
def test_every_setting_is_a_flag_on_every_command_and_a_config_key(tmp_path, name):
    assert [f.name for f in dataclasses.fields(RunConfig)] == list(SETTINGS)
    default = getattr(RunConfig(), name)
    if name == "arm":
        value = "single"
    elif isinstance(default, bool):
        value = not default
    elif isinstance(default, int):
        value = default + 1
    elif isinstance(default, float):
        value = default / 2
    else:
        value = "x"
    assert value != default
    text = str(value).lower() if isinstance(value, bool) else str(value)
    argv = [OFF_FLAGS[name]] if name in OFF_FLAGS else ["--" + name.replace("_", "-"), text]

    for command in COMMANDS:
        assert getattr(_build_parser().parse_args([command, *argv]), name) == value, command

    path = tmp_path / "run.cfg"
    path.write_text(f"{name}={text}\n", encoding="utf-8")
    assert getattr(load_run_config(path, RunConfig()), name) == value
    changed = RunConfig(**{name: value})
    changed.save(path)
    assert load_run_config(path, RunConfig()) == changed


def test_predict_accepts_the_benchmark_cold_predict_argv(tmp_path, capsys):
    """The exact flags the benchmark's cold predict process passes."""
    work = tmp_path / "work"
    code, _, _ = run(capsys, "vocab", "--out-dir", str(work))
    assert code == 0
    vocab_path, ckpt, labels_path = work / "vocab.txt", work / "cold.ckpt", work / "labels.txt"
    cfg = ModelConfig(vocab_size=len(load_vocab(vocab_path)), max_len=48, d_model=8,
                      n_heads=2, n_layers=1, d_ff=16, n_classes=len(LABELS))
    save_checkpoint(Classifier(cfg, "ensemble"), ckpt)
    LABELS.to_file(labels_path)
    record = load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)[0]
    code, text_out, err = run(
        capsys, "predict",
        "--checkpoint", str(ckpt), "--vocab", str(vocab_path), "--labels", str(labels_path),
        "--out-dir", str(work), "--text", record.text, "--entity", record.entity,
    )
    assert code == 0, err
    assert set(json.loads(text_out)["probabilities"]) == set(LABELS.names)


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises EPIPE."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_141_without_a_data_error(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        code = main(["stats"])
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_ends_the_process_with_141_and_no_message():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(meder.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "meder.cli", "stats"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""
