"""Helpers shared by several test modules: a sum loss for gradient
checks, the comparison report's JSON Schema, the uncut encoder
reference that the padding oracles compare against, and a snapshot of
a directory tree for the CLI's all-or-none checks."""

import stat
from pathlib import Path

import numpy as np

from meder.model import embed, encode
from meder.numcore import Tensor, _node, select
from meder.trainer import COMPARISON_SCHEMA


def total_sum(a: Tensor) -> Tensor:
    """The scalar sum of `a`, as a tape node."""
    data = np.asarray(a.data.sum())

    def backward(g: np.ndarray) -> None:
        a.grad += np.broadcast_to(g, a.data.shape)

    return _node(data, (a,), backward)


def uncut_cls(branch, input_ids, segment_ids, attention_mask, rng=None):
    """The CLS vector of the whole block, padding columns included; a
    drop-in for `meder.model.encode_cls` without its cut."""
    return select(encode(branch, embed(branch, input_ids, segment_ids), attention_mask, rng),
                  0, axis=1)


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
