"""One benchmark round, run in-process on the bundled sample.

`bench/pipeline.py` calls meder the way the benchmark does (model
builders, `TrainConfig` fields, packed pair tuples, `PairBatch`
fields).  Running one round and its oracles here fails on a source
change that breaks those calls, before a benchmark run would."""

import importlib
import random
from pathlib import Path

from meder.bundled import SAMPLE_CORPUS_FILE, data_path
from meder.corpus import LabelSet

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_one_sample_cli_round_passes_its_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    pipeline = importlib.import_module("pipeline")
    wl = pipeline.WORKLOADS["sample-cli"]
    labels = LabelSet.default()
    rd = pipeline.run_round(wl, data_path(SAMPLE_CORPUS_FILE), labels, random.Random(0), 0.0,
                            n_queries=20, warm=True)
    assert rd.failed == 0
    assert len(rd.history.records) == wl.epochs
    pipeline.check_setup(rd.s, labels)
    pipeline.check_round(wl, labels, rd, tmp_path)
