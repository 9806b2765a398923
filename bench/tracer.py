"""Span tracer that wraps meder's public functions from outside.

`Tracer.install()` replaces the module attributes that `model`,
`trainer` and the benchmark's set-up call through (for example
`numcore.gelu`, `trainer.forward_batch`, `trainer.backward`,
`AdamW.step`, `tokenizer.train_vocab`) with wrappers
that record spans, and wraps the backward closure of every tape node an
op returns.  Spans hold name, start, end, parent and the phase they ran
in; they stay in memory until `dump` writes them.  `uninstall()` puts
every attribute back.  No file under src/ is changed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import meder.corpus as corpus
import meder.model as model_mod
import meder.numcore as nc
import meder.textprep as textprep
import meder.tokenizer as tokenizer
import meder.trainer as trainer

# every tape op the model and trainer call
OPS = (
    "matmul", "add", "mul", "gelu", "layer_norm", "row_softmax", "masked_fill",
    "embedding_lookup", "transpose", "reshape", "select", "concat", "cross_entropy",
)

NAME, START, END, PARENT, PHASE, STEP = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.step = 0
        # summed over training steps
        self.tape_nodes = self.tape_bytes = 0
        self.real_positions = self.fed_positions = 0

    # -- span recording -------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.phase, self.step])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    # -- wrappers -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _plain(self, name: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapped
        return make

    def _op(self, op: str):
        span, bwd_span = f"numcore.{op}", f"numcore.{op}.bwd"

        def make(fn):
            def wrapped(*args, **kwargs):
                out = self.call(span, fn, *args, **kwargs)
                if self.phase == "step":
                    self.tape_nodes += 1
                    self.tape_bytes += out.data.nbytes
                closure = out._backward
                if closure is not None:
                    def timed_backward(g, closure=closure):
                        self.call(bwd_span, closure, g)
                    out._backward = timed_backward
                return out
            return wrapped
        return make

    def _forward_batch(self, fn):
        def wrapped(model, batch, rng=None):
            if rng is not None:
                self.step += 1
                self.phase = "step"
            elif self._inside("trainer.train"):
                self.phase = "validation"
            elif self._inside("trainer.evaluate"):
                self.phase = "eval"
            return self.call("model.forward_batch", fn, model, batch, rng)
        return wrapped

    def _encode(self, fn):
        def wrapped(branch, hidden, attention_mask, rng=None):
            if self.phase == "step":
                self.real_positions += int(attention_mask.sum())
                self.fed_positions += int(attention_mask.size)
            return self.call("model.encode", fn, branch, hidden, attention_mask, rng)
        return wrapped

    def _adamw_step(self, fn):
        def wrapped(opt):
            try:
                return self.call("trainer.adamw_step", fn, opt)
            finally:
                self.phase = "train"
        return wrapped

    def _phase_span(self, name: str, phase: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                before = self.phase
                self.phase = phase
                try:
                    return self.call(name, fn, *args, **kwargs)
                finally:
                    self.phase = before
            return wrapped
        return make

    def install(self) -> None:
        for op in OPS:
            if op != "cross_entropy":
                self._patch(nc, op, self._op(op))
        self._patch(trainer, "cross_entropy", self._op("cross_entropy"))
        self._patch(trainer, "backward", self._plain("numcore.backward"))
        self._patch(trainer, "forward_batch", self._forward_batch)
        self._patch(model_mod, "encode", self._encode)
        self._patch(trainer.AdamW, "step", self._adamw_step)
        self._patch(trainer, "train", self._phase_span("trainer.train", "train"))
        self._patch(trainer, "evaluate", self._phase_span("trainer.evaluate", "eval"))
        self._patch(trainer, "predict", self._phase_span("trainer.predict", "predict"))
        self._patch(trainer, "aggregate", self._plain("metrics.aggregate"))
        for name in ("load_corpus", "split"):
            self._patch(corpus, name, self._plain(f"corpus.{name}"))
        self._patch(tokenizer, "train_vocab", self._plain("tokenizer.train_vocab"))
        self._patch(trainer, "preprocess_record", self._plain("textprep.preprocess_record"))
        self._patch(textprep, "preprocess_record", self._plain("textprep.preprocess_record"))
        self._patch(trainer, "preprocess_text", self._plain("textprep.preprocess_text"))
        self._patch(trainer, "encode_text", self._plain("tokenizer.encode_text"))
        for name in ("build_both", "build_pair"):
            self._patch(trainer, name, self._plain(f"pairseq.{name}"))
        for name in ("forward_ensemble", "forward_single"):
            self._patch(trainer, name, self._plain(f"model.{name}"))
        for name in ("save_checkpoint", "load_checkpoint"):
            self._patch(model_mod, name, self._plain(f"model.{name}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def total(self, name: str, phase: str | None = None, parent: str | None = None) -> tuple[float, int]:
        """(summed seconds, span count) for spans of one name."""
        secs, n = 0.0, 0
        for s in self.spans:
            if s[NAME] != name or (phase is not None and s[PHASE] != phase):
                continue
            if parent is not None and (s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != parent):
                continue
            secs += s[END] - s[START]
            n += 1
        return secs, n

    def dump(self, path: Path) -> None:
        """Write every span and a per-name total/self summary."""
        own = self.self_times()
        summary: dict = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, own):
            row = summary[f"{s[PHASE]}/{s[NAME]}"]
            row["count"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += self_s
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "summary": summary,
            "fields": ["name", "start_s", "end_s", "parent", "phase", "step"],
            "spans": [[s[NAME], s[START] - origin, s[END] - origin, s[PARENT], s[PHASE], s[STEP]]
                      for s in self.spans],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")


def step_metrics(tr: Tracer) -> dict[str, float]:
    """numcore and model figures averaged over the traced training steps."""
    n = tr.step
    busy: defaultdict = defaultdict(float)
    backward_self = 0.0
    for s, self_s in zip(tr.spans, tr.self_times()):
        if s[PHASE] != "step":
            continue
        if s[NAME] == "numcore.backward":
            backward_self += self_s
        else:
            busy[s[NAME]] += s[END] - s[START]
    out = {}
    for op in OPS:
        out[f"numcore.{op}.fwd_ms"] = 1e3 * busy[f"numcore.{op}"] / n
        out[f"numcore.{op}.bwd_ms"] = 1e3 * busy[f"numcore.{op}.bwd"] / n
    out["numcore.backward_self_ms"] = 1e3 * backward_self / n
    out["numcore.nodes_per_step"] = tr.tape_nodes / n
    out["numcore.tape_mb_per_step"] = tr.tape_bytes / n / 2**20
    out["model.forward_ms_per_step"] = 1e3 * busy["model.forward_batch"] / n
    out["trainer.adamw_step_ms"] = 1e3 * busy["trainer.adamw_step"] / n
    out["pairseq.real_token_fraction"] = tr.real_positions / tr.fed_positions
    return out
