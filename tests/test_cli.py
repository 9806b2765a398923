"""Command-line tests: exit codes, config layering, and the end-to-end flow."""

import json
import re

import jsonschema
import pytest

from meder.bundled import SAMPLE_CORPUS_FILE, SAMPLE_LABELS_FILE, data_path
from meder.cli import RunConfig, load_run_config, main
from meder.corpus import LabelSet, SplitSpec, load_corpus, split, split_fingerprint
from meder.model import Classifier, ModelConfig, save_checkpoint
from meder.textprep import PrepConfig, preprocess_text
from meder.tokenizer import encode_text, load_vocab
from meder.trainer import COMPARISON_JSON_SCHEMA

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


def test_data_errors_exit_2(capsys):
    code, _, err = run(capsys, "stats", "--corpus", "/does/not/exist.jsonl")
    assert code == 2
    assert "data error:" in err

    code, _, err = run(capsys, "stats", "--labels", "/does/not/exist.txt")
    assert code == 2
    assert "does not exist" in err


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


def test_predict_with_a_vocab_larger_than_the_checkpoint_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "vocab", "--out-dir", str(out), "--target-size", "300")
    assert code == 0
    vocab = load_vocab(out / "vocab.txt")
    assert len(vocab) == 300
    cfg = ModelConfig(vocab_size=200, max_len=48, d_model=8, n_heads=2, n_layers=1,
                      d_ff=16, n_classes=len(LABELS))
    save_checkpoint(Classifier(cfg, "single"), out / "model.ckpt")
    prep = PrepConfig.default()
    record = next(
        r for r in load_corpus(data_path(SAMPLE_CORPUS_FILE), LABELS)
        if max(encode_text(preprocess_text(r.text, prep), vocab)) >= cfg.vocab_size
    )
    code, text_out, err = run(capsys, "predict", "--out-dir", str(out),
                              "--text", record.text, "--entity", record.entity)
    assert code == 2
    assert text_out == ""
    assert err.startswith("data error:") and "out of range [0, 200)" in err
    assert "Traceback" not in err


def test_predict_without_checkpoint_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "predict", "--out-dir", str(tmp_path / "fresh"),
                       "--text", "x", "--entity", "y")
    assert code == 2
    assert "run `meder train` first" in err


def test_compare_writes_a_valid_report(tmp_path, capsys):
    out = str(tmp_path / "out")
    code, text_out, _ = run(capsys, "compare", "--out-dir", out, *SMALL)
    assert code == 0
    assert "single: accuracy=" in text_out
    assert "ensemble: accuracy=" in text_out
    assert "delta (ensemble - single): accuracy=" in text_out
    payload = json.loads((tmp_path / "out" / "comparison.json").read_text(encoding="utf-8"))
    jsonschema.validate(payload, COMPARISON_JSON_SCHEMA)
