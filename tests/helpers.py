"""Helpers shared by several test modules: a sum loss for gradient
checks, the comparison report's JSON Schema, the full-rows encoder and
the uncut CLS reference that the cut and padding oracles compare
against, the translate-table reference for text cleaning, and a
snapshot of a directory tree for the CLI's all-or-none checks."""

import stat
import unicodedata
from pathlib import Path

import numpy as np

from meder.model import _attention, dropout, embed
from meder.numcore import Tensor, _node, add, gelu, layer_norm, matmul, select
from meder.trainer import COMPARISON_SCHEMA


def total_sum(a: Tensor) -> Tensor:
    """The scalar sum of `a`, as a tape node."""
    data = np.asarray(a.data.sum())

    def backward(g: np.ndarray) -> None:
        a.grad += np.broadcast_to(g, a.data.shape)

    return _node(data, (a,), backward)


def full_rows_encode(branch, hidden, attention_mask, rng=None):
    """`meder.model.encode` without the last-block cut: every block runs
    over every position and the result is [B, L, d_model].  It draws the
    same dropout masks in the same order."""
    p = branch.params
    mask = np.asarray(attention_mask)
    rate = branch.cfg.dropout_rate
    h = hidden
    for i in range(branch.cfg.n_layers):
        normed = layer_norm(h, p[f"layer{i}.ln1.gain"], p[f"layer{i}.ln1.bias"])
        h = add(h, dropout(_attention(branch, i, normed, mask, rng), rate, rng))
        normed = layer_norm(h, p[f"layer{i}.ln2.gain"], p[f"layer{i}.ln2.bias"])
        ff = matmul(normed, p[f"layer{i}.ffn.w1"], bias=p[f"layer{i}.ffn.b1"])
        ff = matmul(gelu(ff), p[f"layer{i}.ffn.w2"], bias=p[f"layer{i}.ffn.b2"])
        h = add(h, dropout(ff, rate, rng))
    return h


def uncut_cls(branch, input_ids, segment_ids, attention_mask, rng=None):
    """The CLS vector of the whole block, every padding column and every
    position of every block included; a drop-in for
    `meder.model.encode_cls` without its cuts."""
    h = dropout(embed(branch, input_ids, segment_ids), branch.cfg.dropout_rate, rng)
    return select(full_rows_encode(branch, h, attention_mask, rng), 0, axis=1)


def translate_clean_text(raw: str, charset: frozenset) -> str:
    """`meder.textprep.clean_text` as a chain of string methods: NFC,
    delete each charset code point through a translate table, then
    collapse and trim whitespace."""
    s = unicodedata.normalize("NFC", raw).translate({ord(c): None for c in charset})
    return " ".join(s.split())


def tree_snapshot(root: Path) -> dict:
    """Every entry under `root` by relative path: its mode, and its bytes
    if it is a file.  Two snapshots are equal only when no entry was
    added, removed, rewritten or re-permissioned, temporary files
    included."""
    entries = {}
    for path in sorted(root.rglob("*")):
        mode = path.lstat().st_mode
        entries[str(path.relative_to(root))] = (
            mode, path.read_bytes() if stat.S_ISREG(mode) else None)
    return entries


COMPARISON_JSON_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "fingerprints", "arms", "deltas"],
    "properties": {
        "schema": {"const": COMPARISON_SCHEMA},
        "fingerprints": {
            "type": "object",
            "required": ["train", "val", "test"],
            "additionalProperties": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        },
        "arms": {
            "type": "object",
            "required": ["single", "ensemble"],
            "additionalProperties": {
                "type": "object",
                "required": [
                    "accuracy", "micro_f1", "macro_f1", "weighted_f1",
                    "epochs_trained", "per_class",
                ],
                "properties": {
                    "accuracy": {"type": "number"},
                    "micro_f1": {"type": "number"},
                    "macro_f1": {"type": "number"},
                    "weighted_f1": {"type": "number"},
                    "epochs_trained": {"type": "integer"},
                    "per_class": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["label", "precision", "recall", "f1", "support"],
                        },
                    },
                },
            },
        },
        "deltas": {
            "type": "object",
            "required": ["accuracy", "micro_f1", "macro_f1"],
            "additionalProperties": {"type": "number"},
        },
    },
}
