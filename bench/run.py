#!/usr/bin/env python3
"""meder benchmark: end-to-end and per-layer metrics on three workloads.

One workload per process:

    python3 bench/run.py --workload sample-cli --seed 1 --seconds 6 --trace 0

prints every metric by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
run reports the per-layer ones, its tracing overhead, and writes its
spans to bench/results/.

All workloads, each in its own process, over one or more seeds:

    python3 bench/run.py --workload all --seeds 1,2,3 --out bench/results/base.json

writes a result file that bench/compare.py reads.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; cold-predict processes inherit the pin.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import dataclasses
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# meder, and the bench modules that import it, load inside the functions
# below, once main() has found the sources and put them on sys.path.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("sample-cli", "corpus-single", "fullscale-484")
TRACE_QUERIES = 20
OVERHEAD_PAIRS = 4


def reported(metrics: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def corpus_for(wl, seed: int, work: Path) -> Path:
    import corpus_gen
    from meder.bundled import SAMPLE_CORPUS_FILE, data_path

    if not wl.synthetic:
        return data_path(SAMPLE_CORPUS_FILE)
    path = work / "corpus.jsonl"
    corpus_gen.write_jsonl(corpus_gen.generate(seed), path)
    corpus_gen.check_file(path)
    return path


def end_to_end(wl, corpus_path: Path, labels, seed: int, seconds: float, work: Path) -> dict:
    import checks
    import pipeline as pl

    rng = random.Random(f"queries-{seed}")
    # each round's set-ups are timed as one block; a sample is the block's time per set-up
    setup_blocks, train_rates, eval_times, latencies, cold_times = [], [], [], [], []
    attempted = failed = 0
    for r in range(wl.rounds):
        rd = pl.run_round(wl, corpus_path, labels, rng, seconds / wl.rounds, warm=r == 0)
        if r == 0:
            first = rd.history
        elif rd.history != first:
            raise checks.CheckFailed("identical rounds trained to different losses")
        if r == wl.rounds - 1:
            pl.check_setup(rd.s, labels)
            pl.check_round(wl, labels, rd, work)
        colds, cold_failed = pl.cold_predicts(wl, ROOT, work, child_env(), labels, rd)
        setup_blocks.append(statistics.fmean(rd.setup_times))
        train_rates.append(rd.n_train / rd.train_s)
        eval_times += rd.eval_times
        latencies += rd.latencies
        cold_times += colds
        attempted += rd.attempted + wl.colds_per_round
        failed += rd.failed + cold_failed
    metrics = {
        "setup_s": statistics.median(setup_blocks),
        "train_samples_per_s": statistics.median(train_rates),
        "eval_samples_per_s": rd.n_eval / statistics.median(eval_times),
        "predict_p50_ms": 1e3 * statistics.median(latencies),
        "predict_cold_ms": 1e3 * statistics.median(cold_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setups": wl.rounds * wl.setups_per_round, "trains": len(train_rates),
              "evals": len(eval_times), "queries": len(latencies), "colds": len(cold_times)}
    return {"attempted": attempted, "failed": failed,
            "metrics": reported(metrics, "end_to_end"), "counts": counts}


def traced(wl, corpus_path: Path, labels, seed: int, seconds: float, work: Path) -> dict:
    """One untraced round, then the same round with every wrapper
    installed; per-layer figures come from the traced round."""
    import tracemalloc

    import checks
    import meder.trainer as trainer
    import pipeline as pl
    from tracer import Tracer, step_metrics

    one = dataclasses.replace(wl, setups_per_round=1, evals_per_round=1)
    base = pl.run_round(one, corpus_path, labels, random.Random(f"queries-{seed}"), 0.0,
                        TRACE_QUERIES, warm=True)
    setup_counts = pl.check_setup(base.s, labels)
    pl.check_round(one, labels, base, work)
    base.s = None

    tr = Tracer()
    tr.install()
    try:
        ph = pl.run_round(one, corpus_path, labels, random.Random(f"queries-{seed}"), 0.0,
                          TRACE_QUERIES)
        checks.check_checkpoint_roundtrip(ph.s.model, work / "traced.ckpt", work / "resaved.ckpt")
    finally:
        tr.uninstall()
    if ph.history != base.history:
        raise checks.CheckFailed("tracing changed the training losses")
    s = ph.s

    # tracemalloc slows every allocation, so its step runs apart from the timed ones
    m = pl.new_model(wl, len(s.vocab), len(labels))
    tracemalloc.start()
    trainer.train(m, list(s.data.train[:wl.batch_size]), [], pl.train_config(wl, 1))
    step_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    n_records = sum(len(p) for p in s.splits)
    n_predict = len(ph.latencies)

    def ms(name, phase=None, parent=None, per=None):
        secs, n = tr.total(name, phase, parent)
        return 1e3 * secs / (per if per is not None else n)

    metrics = {
        "corpus.load_split_ms": ms("corpus.load_corpus") + ms("corpus.split"),
        "textprep.preprocess_ms_per_record": ms("textprep.preprocess_record", "setup"),
        "tokenizer.train_vocab_s": tr.total("tokenizer.train_vocab")[0],
        "tokenizer.merges": setup_counts["merges"],
        "tokenizer.encode_ms_per_record": ms("tokenizer.encode_text", "setup", per=n_records),
        "tokenizer.unk_fraction": setup_counts["unk_fraction"],
        "pairseq.pack_ms_per_record": ms("pairseq.build_both", "setup", per=n_records),
        **step_metrics(tr),
        "numcore.step_peak_mb": step_peak / 2**20,
        "model.forward_ms_per_eval_batch": ms("model.forward_batch", "eval"),
        "model.save_checkpoint_ms": ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": ms("model.load_checkpoint"),
        "trainer.validation_s": (tr.total("model.forward_batch", "validation")[0]
                                 + tr.total("numcore.cross_entropy", "validation")[0]),
        "trainer.predict.preprocess_ms": ms("textprep.preprocess_text", parent="trainer.predict",
                                            per=n_predict),
        "trainer.predict.encode_ms": ms("tokenizer.encode_text", parent="trainer.predict",
                                        per=n_predict),
        "trainer.predict.pack_ms": (ms("pairseq.build_both", parent="trainer.predict", per=n_predict)
                                    + ms("pairseq.build_pair", parent="trainer.predict",
                                         per=n_predict)),
        "trainer.predict.forward_ms": (
            ms("model.forward_ensemble", parent="trainer.predict", per=n_predict)
            + ms("model.forward_single", parent="trainer.predict", per=n_predict)),
        "metrics.aggregate_ms": ms("metrics.aggregate"),
        "trace.overhead_pct": tracing_overhead_pct(wl, s, labels),
    }
    RESULTS.mkdir(exist_ok=True)
    tr.dump(RESULTS / f"trace-{wl.name}-seed{seed}.json")
    return {"attempted": base.attempted + ph.attempted, "failed": base.failed + ph.failed,
            "metrics": reported(metrics, "per_layer"), "counts": {"queries": n_predict}}


def tracing_overhead_pct(wl, s, labels) -> float:
    """Traced minus untraced time of one training step plus one query,
    over untraced: the median of OVERHEAD_PAIRS back-to-back pairs, so
    that drift in host speed cancels within each pair."""
    import meder.trainer as trainer
    import pipeline as pl
    from tracer import Tracer

    batch, query = list(s.data.train[:wl.batch_size]), s.splits[2][0]

    def unit() -> float:
        m = pl.new_model(wl, len(s.vocab), len(labels))
        gc.collect()
        t0 = time.perf_counter()
        trainer.train(m, batch, [], pl.train_config(wl, 1))
        pl.predict_one(wl, s, labels, query, m)
        return time.perf_counter() - t0

    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        plain = unit()
        tr = Tracer()
        tr.install()
        try:
            traced = unit()
        finally:
            tr.uninstall()
        ratios.append(traced / plain)
    return 100.0 * (statistics.median(ratios) - 1.0)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import pipeline as pl
    from meder.corpus import LabelSet

    wl = pl.WORKLOADS[name]
    labels = LabelSet.default()
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        corpus_path = corpus_for(wl, seed, work)
        run = traced if trace else end_to_end
        result = run(wl, corpus_path, labels, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = True  # a failed check raises CheckFailed instead
    return result


def print_result(args, result: dict) -> None:
    counts = " ".join(f"{k}={v}" for k, v in result["counts"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} {counts}")
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'attempted':40s} {result['attempted']:14d}")
    print(f"{'failed':40s} {result['failed']:14d}")


def run_all(args) -> int:
    """Every workload in its own process for each seed; writes a result file."""
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else [args.seed]
    runs = {name: [] for name in WORKLOAD_NAMES}
    for seed in seeds:
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode
            runs[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = Path(args.out) if args.out else RESULTS / f"run-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace, "seeds": seeds,
                               "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"results: {out}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seeds", help="comma-separated seeds, with --workload all")
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file, with --workload all")
    args = ap.parse_args()
    if not (SRC / "meder" / "__init__.py").is_file():
        print(f"error: no meder sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import checks

    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print_result(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
