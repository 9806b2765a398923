"""Dual-branch transformer encoder ensemble and its single-branch baseline.

Each branch embeds ids (word + segment + position), runs pre-norm
attention blocks, and is pooled at the CLS position.  Both arms are one
`Classifier` laid out by the ARMS table: the ensemble concatenates two
branches' CLS vectors (text-first and entity-first packings) and
classifies through a small two-layer head; the baseline classifies one
text-first branch's CLS vector through a single affine map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import numcore as nc
from .errors import DataError, NumericError, ShapeError
from .numcore import Tensor
from .pairseq import BatchBlock, EncodedPair, PairBatch, PairOrder, block

INIT_STD = 0.02
CHECKPOINT_MAGIC = b"MEDER1\n"
# The last block computes queries and everything after them only at
# positions 0..CLS_ROWS-1, since the head reads position 0 alone.  Two
# rows, not one: on OpenBLAS 0.3.31 (Haswell) a one-row product sums in
# another order than the same row inside the full product, while a
# two-row product keeps that row's bits, so one row would move the CLS
# vector.  It follows the BLAS; it is not a setting.
CLS_ROWS = 2

_CONFIG_INT_FIELDS = (
    "vocab_size", "max_len", "d_model", "n_heads", "n_layers",
    "d_ff", "n_classes", "d_hidden", "seed",
)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    max_len: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    n_classes: int = 6
    d_hidden: int = 0  # 0 means "use d_model"
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_hidden == 0:
            object.__setattr__(self, "d_hidden", self.d_model)
        for field in _CONFIG_INT_FIELDS:
            v = getattr(self, field)
            low = 0 if field in ("n_layers", "seed") else 1
            if not isinstance(v, int) or v < low:
                raise DataError(f"{field} must be an integer >= {low}, got {v!r}")
        if self.vocab_size < 4:
            raise DataError(f"vocab_size must cover the 4 specials, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise DataError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) with resampling outside 2 standard deviations."""
    x = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(x) > 2.0 * INIT_STD
    while bad.any():
        x[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * INIT_STD
    return x


def _keep_mask(
    shape: tuple[int, ...],
    rate: float,
    rng: Optional[np.random.Generator],
    dtype: np.dtype,
    rows: Optional[int] = None,
) -> tuple[Optional[np.ndarray], float]:
    """A boolean dropout mask drawn from `rng` at `shape` and the scale its
    kept entries take; (None, 1.0) when rng is None or the rate is 0.
    With `rows`, a copy of only the first `rows` entries along axis -2 is
    kept, so a cut block draws what the full-rows block draws."""
    if rng is None or rate <= 0.0:
        return None, 1.0
    keep, dt = 1.0 - rate, dtype.type
    mask = rng.random(shape) < keep
    if rows is not None and rows < shape[-2]:
        mask = mask[..., :rows, :].copy()
    return mask, dt(1) / dt(keep)


def dropout(
    x: Tensor,
    rate: float,
    rng: Optional[np.random.Generator],
    drawn: Optional[tuple[int, ...]] = None,
) -> Tensor:
    """Inverted dropout via a boolean mask; identity when rng is None.
    `drawn` is the shape the mask is drawn at, x's by default; a taller
    draw is cut to x's rows along axis -2."""
    rows = None if drawn is None else x.data.shape[-2]
    keep, scale = _keep_mask(drawn or x.data.shape, rate, rng, x.data.dtype, rows)
    return x if keep is None else nc.drop(x, keep, scale)


class EncoderBranch:
    """One encoder stack: embeddings plus n_layers pre-norm blocks."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, prefix: str):
        self.cfg = cfg
        d, f = cfg.d_model, cfg.d_ff
        p: dict[str, Tensor] = {}

        def add(name: str, data) -> None:
            p[name] = nc.param(data, prefix + name)

        add("word_emb", trunc_normal(rng, (cfg.vocab_size, d)))
        add("seg_emb", trunc_normal(rng, (2, d)))
        add("pos_emb", trunc_normal(rng, (cfg.max_len, d)))
        for i in range(cfg.n_layers):
            for proj in ("wq", "wk", "wv", "wo"):
                add(f"layer{i}.attn.{proj}", trunc_normal(rng, (d, d)))
            for proj in ("bq", "bk", "bv", "bo"):
                add(f"layer{i}.attn.{proj}", np.zeros(d))
            add(f"layer{i}.ln1.gain", np.ones(d))
            add(f"layer{i}.ln1.bias", np.zeros(d))
            add(f"layer{i}.ffn.w1", trunc_normal(rng, (d, f)))
            add(f"layer{i}.ffn.b1", np.zeros(f))
            add(f"layer{i}.ffn.w2", trunc_normal(rng, (f, d)))
            add(f"layer{i}.ffn.b2", np.zeros(d))
            add(f"layer{i}.ln2.gain", np.ones(d))
            add(f"layer{i}.ln2.bias", np.zeros(d))
        self.params = p


def embed(branch: EncoderBranch, input_ids: np.ndarray, segment_ids: np.ndarray) -> Tensor:
    """Sum of word, segment and position embeddings, shape [B, L, d_model]."""
    input_ids = np.asarray(input_ids)
    segment_ids = np.asarray(segment_ids)
    if input_ids.shape != segment_ids.shape:
        raise ShapeError(
            f"input_ids {input_ids.shape} and segment_ids {segment_ids.shape} disagree"
        )
    seq_len = input_ids.shape[-1]
    if seq_len > branch.cfg.max_len:
        raise ShapeError(
            f"sequence length {seq_len} exceeds max_len {branch.cfg.max_len}"
        )
    p = branch.params
    h = nc.add(
        nc.embedding_lookup(p["word_emb"], input_ids),
        nc.embedding_lookup(p["seg_emb"], segment_ids),
    )
    return nc.add(h, nc.embedding_lookup(p["pos_emb"], np.arange(seq_len)))


def _attention(
    branch: EncoderBranch,
    i: int,
    x: Tensor,
    attention_mask: np.ndarray,
    rng: Optional[np.random.Generator],
    rows: Optional[int] = None,
) -> Tensor:
    """Block i's self-attention output over x [B, L, d]; with `rows`, only
    the first `rows` positions query, and the output is [B, rows, d]."""
    cfg = branch.cfg
    p = branch.params
    batch, seq_len, d = x.data.shape
    heads, dh = cfg.n_heads, cfg.d_head

    def project(tag: str, src: Tensor) -> Tensor:
        y = nc.matmul(src, p[f"layer{i}.attn.w{tag}"], bias=p[f"layer{i}.attn.b{tag}"])
        y = nc.reshape(y, (batch, src.data.shape[1], heads, dh))
        return nc.transpose(y, (0, 2, 1, 3))

    q = project("q", x if rows is None else nc.leading_rows(x, rows))
    k, v = project("k", x), project("v", x)
    key_mask = (np.asarray(attention_mask) == 0).reshape(batch, 1, 1, seq_len)
    keep, keep_scale = _keep_mask(
        (batch, heads, seq_len, seq_len), cfg.dropout_rate, rng, x.data.dtype, rows)
    ctx = nc.attention(q, k, v, key_mask, 1.0 / math.sqrt(dh), keep, keep_scale)
    ctx = nc.reshape(nc.transpose(ctx, (0, 2, 1, 3)), (batch, q.data.shape[2], d))
    return nc.matmul(ctx, p[f"layer{i}.attn.wo"], bias=p[f"layer{i}.attn.bo"])


def encode(
    branch: EncoderBranch,
    hidden: Tensor,
    attention_mask: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Run the pre-norm block stack over embedded inputs [B, L, d_model]:
    [B, min(CLS_ROWS, L), d_model], or `hidden` itself with no blocks.

    Keys at masked positions get -1e9 attention logits, so padding
    cannot influence any unmasked position.  Every block but the last
    runs over all L positions.  The last keeps LN1 and the key and value
    projections over all of them, since its keys and values read every
    row, and computes queries, attention rows, `wo`, the residuals, LN2
    and the FFN only at the leading CLS_ROWS.  Its dropout masks are
    drawn at the full shape and cut, so every draw is the full block's.
    """
    mask = np.asarray(attention_mask)
    if hidden.data.ndim != 3:
        raise ShapeError(f"encode expects [batch, len, d_model] hidden, got {hidden.data.shape}")
    if mask.shape != hidden.data.shape[:2]:
        raise ShapeError(
            f"attention_mask {mask.shape} does not match hidden {hidden.data.shape}"
        )
    p = branch.params
    rate, n_layers = branch.cfg.dropout_rate, branch.cfg.n_layers
    full = hidden.data.shape
    h = hidden
    for i in range(n_layers):
        rows = min(CLS_ROWS, full[1]) if i == n_layers - 1 else None
        normed = nc.layer_norm(h, p[f"layer{i}.ln1.gain"], p[f"layer{i}.ln1.bias"])
        attn = dropout(_attention(branch, i, normed, mask, rng, rows), rate, rng, full)
        if rows is not None:
            h = nc.leading_rows(h, rows)
        h = nc.add(h, attn)
        normed = nc.layer_norm(h, p[f"layer{i}.ln2.gain"], p[f"layer{i}.ln2.bias"])
        ff = nc.matmul(normed, p[f"layer{i}.ffn.w1"], bias=p[f"layer{i}.ffn.b1"])
        ff = nc.matmul(nc.gelu(ff), p[f"layer{i}.ffn.w2"], bias=p[f"layer{i}.ffn.b2"])
        h = nc.add(h, dropout(ff, rate, rng, full))
    return h


def encode_cls(
    branch: EncoderBranch,
    input_ids: np.ndarray,
    segment_ids: np.ndarray,
    attention_mask: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Embed, encode, and pool the CLS position: [B, d_model].

    The block is first cut after the last column that any row leaves
    unmasked.  The CLS row reads only unmasked keys and a masked key's
    softmax weight is exactly 0, so the cut changes the result only by
    summation order while cost and memory follow the longest row.
    """
    ids, segs, mask = (np.asarray(a) for a in (input_ids, segment_ids, attention_mask))
    if ids.ndim != 2 or not ids.shape == segs.shape == mask.shape:
        raise ShapeError(
            f"input_ids {ids.shape}, segment_ids {segs.shape} and attention_mask "
            f"{mask.shape} must share one [batch, len] shape"
        )
    if ids.shape[1] > branch.cfg.max_len:
        raise ShapeError(f"sequence length {ids.shape[1]} exceeds max_len {branch.cfg.max_len}")
    if ids.shape[1] == 0 or not mask[:, 0].all():
        raise DataError("every row must leave its [CLS] position 0 unmasked")
    width = ids.shape[1] - int(np.argmax(mask[:, ::-1].any(axis=0)))
    h = embed(branch, ids[:, :width], segs[:, :width])
    h = dropout(h, branch.cfg.dropout_rate, rng)
    h = encode(branch, h, mask[:, :width], rng)
    return nc.select(h, 0, axis=1)


# kind -> (the packing each branch reads, in branch order; head depth).
# A depth-1 head is one affine map; depth 2 adds a GELU hidden layer.
ARMS: dict[str, tuple[tuple[PairOrder, ...], int]] = {
    "single": ((PairOrder.TEXT_FIRST,), 1),
    "ensemble": ((PairOrder.TEXT_FIRST, PairOrder.ENTITY_FIRST), 2),
}


class Classifier:
    """Encoder branches whose CLS vectors are concatenated and classified
    by a small head; `kind` names the layout in ARMS.

    One branch is named `branch.`, several `branch1.`, `branch2.`, ...;
    a depth-1 head holds `head.w`/`head.b`, deeper heads `head.w1`,
    `head.b1`, ....  Initialisation draws branches first, then head
    matrices, in that order, from one generator seeded by config.seed.
    """

    def __init__(self, config: ModelConfig, kind: str):
        if kind not in ARMS:
            raise DataError(f"unknown model kind {kind!r}; expected one of {sorted(ARMS)}")
        self.config = config
        self.kind = kind
        self.orders, depth = ARMS[kind]
        rng = np.random.default_rng(config.seed)
        n = len(self.orders)
        prefixes = ["branch."] if n == 1 else [f"branch{i}." for i in range(1, n + 1)]
        self.branches = tuple(EncoderBranch(config, rng, prefix) for prefix in prefixes)
        widths = [n * config.d_model] + [config.d_hidden] * (depth - 1) + [config.n_classes]
        self.head: dict[str, Tensor] = {}
        for j in range(depth):
            tag = "" if depth == 1 else str(j + 1)
            self.head[f"w{tag}"] = nc.param(
                trunc_normal(rng, (widths[j], widths[j + 1])), f"head.w{tag}")
            self.head[f"b{tag}"] = nc.param(np.zeros(widths[j + 1]), f"head.b{tag}")

    def parameters(self) -> dict[str, Tensor]:
        groups = [branch.params for branch in self.branches] + [self.head]
        return {t.name: t for group in groups for t in group.values()}


# EnsembleModel/SingleModel and forward_single/forward_ensemble stay while
# bench/ still builds, calls and times models through these names.
def EnsembleModel(config: ModelConfig) -> Classifier:
    return Classifier(config, "ensemble")


def SingleModel(config: ModelConfig) -> Classifier:
    return Classifier(config, "single")


def count_params(model: Classifier) -> int:
    return sum(int(t.data.size) for t in model.parameters().values())


def _forward(
    model: Classifier,
    blocks: Sequence[BatchBlock],
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Logits [B, n_classes]: branch i encodes blocks[i], whose packing
    must be the i-th of the model's layout."""
    got = tuple(b.order for b in blocks)
    if got != model.orders:
        raise DataError(
            f"{model.kind} forward needs ({', '.join(o.value for o in model.orders)}) "
            f"blocks, got ({', '.join(o.value for o in got)})"
        )
    cls = [
        encode_cls(branch, b.input_ids, b.segment_ids, b.attention_mask, rng)
        for branch, b in zip(model.branches, blocks)
    ]
    rate = model.config.dropout_rate
    h = dropout(cls[0] if len(cls) == 1 else nc.concat(cls, axis=-1), rate, rng)
    layers = list(model.head.values())
    for j in range(0, len(layers), 2):
        if j:
            h = dropout(nc.gelu(h), rate, rng)
        h = nc.matmul(h, layers[j], bias=layers[j + 1])
    return h


def forward_pairs(
    model: Classifier,
    pairs: Sequence[EncodedPair],
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Logits [n_classes] for one observation, one packed pair per branch."""
    blocks = [block([p]) for p in pairs]
    return nc.reshape(_forward(model, blocks, rng), (model.config.n_classes,))


def forward_single(
    m: Classifier, pair: EncodedPair, rng: Optional[np.random.Generator] = None
) -> Tensor:
    return forward_pairs(m, (pair,), rng)


def forward_ensemble(
    m: Classifier,
    p1: EncodedPair,
    p2: EncodedPair,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    return forward_pairs(m, (p1, p2), rng)


def forward_batch(
    model: Classifier,
    batch: PairBatch,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Logits [B, n_classes]; branch i reads the batch's i-th packing."""
    return _forward(model, (batch.first, batch.second)[:len(model.branches)], rng)


def _layout(model: Classifier) -> tuple[bytes, list[np.ndarray]]:
    """The checkpoint bytes up to the tensor data (magic, then a text
    header of kind, config, tensor manifest with shapes and byte offsets,
    and `end`) and the <f4 tensors that follow it, in parameter order."""
    cfg = model.config
    lines = [f"kind={model.kind}"]
    lines += [f"{f}={getattr(cfg, f)}" for f in _CONFIG_INT_FIELDS]
    lines.append(f"dropout_rate={cfg.dropout_rate!r}")
    params = model.parameters()
    lines.append(f"tensors={len(params)}")
    arrays = []
    offset = 0
    for name, t in params.items():
        # a float64 value beyond the float32 range becomes inf here and is
        # reported by save_checkpoint's finiteness check, not as a warning
        with np.errstate(over="ignore"):
            arr = np.ascontiguousarray(t.data, dtype="<f4")
        lines.append(f"{name} {','.join(str(d) for d in arr.shape)} {offset}")
        arrays.append(arr)
        offset += arr.nbytes
    lines.append("end")
    return CHECKPOINT_MAGIC + "\n".join(lines).encode("utf-8") + b"\n", arrays


def require_finite(named: Iterable[tuple[str, np.ndarray]], error: type, where: str) -> None:
    """Raise `error` naming the first (name, array) pair that holds a NaN or inf."""
    for name, arr in named:
        if not np.isfinite(arr).all():
            raise error(f"{where}: tensor {name} holds NaN or inf")


def save_checkpoint(model: Classifier, path: Union[str, Path]) -> None:
    header, arrays = _layout(model)
    require_finite(zip(model.parameters(), arrays), NumericError, f"cannot save {path}")
    Path(path).write_bytes(header + b"".join(arr.tobytes() for arr in arrays))


def load_checkpoint(path: Union[str, Path]) -> Classifier:
    """Rebuild the model whose `save_checkpoint` bytes the file holds.

    Only kind and config are parsed; the rest of the header must equal
    the one the rebuilt model lays out, and the file must end where its
    tensors do.  Any other bytes, or a NaN or inf weight, raise DataError.
    """
    p = Path(path)
    blob = p.read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{p}: not a checkpoint (bad magic bytes)")
    stop = blob.find(b"\nend\n", len(CHECKPOINT_MAGIC) - 1)
    if stop < 0:
        raise DataError(f"{p}: truncated checkpoint header")
    try:
        lines = blob[:stop + len(b"\nend\n")].decode("utf-8").split("\n")
    except UnicodeDecodeError as e:
        raise DataError(f"{p}: checkpoint header is not UTF-8 at byte {e.start}") from None
    fields = dict(line.partition("=")[::2] for line in lines)
    kind = fields.get("kind")
    if kind not in ARMS:
        raise DataError(f"{p}: unknown checkpoint kind {kind!r}")
    try:
        cfg = ModelConfig(
            **{f: int(fields[f]) for f in _CONFIG_INT_FIELDS},
            dropout_rate=float(fields["dropout_rate"]),
        )
    except (KeyError, ValueError) as e:
        raise DataError(f"{p}: bad checkpoint header: {e}") from None
    model = Classifier(cfg, kind)
    header, arrays = _layout(model)
    for got, want in zip_longest(lines, header.decode("utf-8").split("\n")):
        if got != want:
            raise DataError(f"{p}: header line {got!r} differs from the {kind} layout's {want!r}")
    size = len(header) + sum(arr.nbytes for arr in arrays)
    if len(blob) != size:
        raise DataError(f"{p}: checkpoint is {len(blob)} bytes, its layout needs {size}")
    offset = len(header)
    for t, arr in zip(model.parameters().values(), arrays):
        data = np.frombuffer(blob, dtype="<f4", count=arr.size, offset=offset)
        t.data = data.reshape(arr.shape).astype(nc.default_dtype())
        offset += arr.nbytes
    require_finite(((name, t.data) for name, t in model.parameters().items()), DataError, str(p))
    return model
