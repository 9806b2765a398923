"""Model tests: embeddings, attention, symmetry, padding, checkpoints."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meder.model as mm
from meder.errors import DataError, NumericError, ShapeError
from meder.model import (
    ARMS,
    CHECKPOINT_MAGIC,
    Classifier,
    EncoderBranch,
    ModelConfig,
    count_params,
    dropout,
    embed,
    encode,
    encode_cls,
    forward_batch,
    forward_pairs,
    load_checkpoint,
    save_checkpoint,
    trunc_normal,
)
from meder.numcore import Tensor, backward, cross_entropy, grad_check, no_grad, use_dtype
from meder.pairseq import PairBatch, batchify, build_both

from helpers import uncut_cls

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_encoder.json"
GOLDEN_LOGITS = DATA / "golden_checkpoint_logits.json"

TOY = dict(vocab_size=20, max_len=12, d_model=8, n_heads=2, n_layers=2,
           d_ff=16, n_classes=6, dropout_rate=0.0, seed=123)


def toy_config(**overrides) -> ModelConfig:
    return ModelConfig(**{**TOY, **overrides})


def toy_batch(max_len=12):
    pairs = [
        build_both([5, 6, 7, 8, 9], [10, 11], max_len=max_len, label_id=3),
        build_both([12, 13], [14, 15, 16], max_len=max_len, label_id=1),
    ]
    return batchify(pairs, batch_size=2)[0]


def test_config_fills_d_hidden_and_d_head():
    cfg = toy_config()
    assert cfg.d_hidden == cfg.d_model
    assert cfg.d_head == cfg.d_model // cfg.n_heads
    assert toy_config(d_hidden=5).d_hidden == 5
    assert toy_config(n_layers=0).n_layers == 0


@pytest.mark.parametrize("bad", [
    dict(vocab_size=3),
    dict(d_model=9),            # not divisible by n_heads=2
    dict(n_layers=-1),
    dict(d_ff=0),
    dict(dropout_rate=1.0),
    dict(dropout_rate=-0.1),
    dict(max_len="12"),
    dict(seed=-1),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(DataError):
        toy_config(**bad)


def test_trunc_normal_is_bounded_and_seeded():
    a = trunc_normal(np.random.default_rng(7), (50, 50), std=0.02)
    b = trunc_normal(np.random.default_rng(7), (50, 50), std=0.02)
    assert a.shape == (50, 50)
    assert np.abs(a).max() <= 0.04 + 1e-12
    assert np.array_equal(a, b)
    assert len(np.unique(a)) > 100  # actually random, not constant


def test_dropout_identity_without_rng_or_rate():
    x = Tensor(np.ones((3, 4)))
    assert dropout(x, 0.5, None) is x
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_scales_kept_entries():
    x = Tensor(np.full((100, 100), 2.0))
    y = dropout(x, 0.25, np.random.default_rng(0)).data
    kept = y[y != 0.0]
    assert np.allclose(kept, 2.0 / 0.75)
    assert 0.5 < np.mean(y != 0.0) < 0.9  # roughly the keep probability


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_mask_is_a_constant_with_the_cast_and_divide_bits(dtype):
    with use_dtype(dtype):
        x = Tensor(np.random.default_rng(1).normal(size=(6, 7)), requires_grad=True)
        y = dropout(x, 0.3, np.random.default_rng(5))
        mask = y._parents[1]
        keep = (np.random.default_rng(5).random((6, 7)) < 0.7).astype(dtype) / dtype(0.7)
        assert mask.data.dtype == dtype and np.array_equal(mask.data, keep)
        backward(cross_entropy(y, np.zeros(6, dtype=np.int64)))
    assert mask.grad is None and x.grad is not None


def test_embed_matches_per_position_gather():
    def run():
        cfg = toy_config()
        branch = EncoderBranch(cfg, np.random.default_rng(cfg.seed), "b.")
        ids = np.array([[2, 5, 3, 0], [2, 9, 17, 3]])
        segs = np.array([[0, 0, 1, 0], [0, 1, 1, 0]])
        got = embed(branch, ids, segs).data
        w = branch.params["word_emb"].data
        s = branch.params["seg_emb"].data
        p = branch.params["pos_emb"].data
        expected = np.zeros_like(got)
        for b in range(2):
            for t in range(4):
                expected[b, t] = (w[ids[b, t]] + s[segs[b, t]]) + p[t]
        assert got.shape == (2, 4, 8)
        assert np.array_equal(got, expected)
    with use_dtype(np.float64):
        run()


def test_embed_rejects_bad_shapes():
    cfg = toy_config()
    branch = EncoderBranch(cfg, np.random.default_rng(0), "b.")
    with pytest.raises(ShapeError, match="disagree"):
        embed(branch, np.zeros((1, 3), dtype=int), np.zeros((1, 4), dtype=int))
    with pytest.raises(ShapeError, match="exceeds max_len"):
        embed(branch, np.zeros((1, 13), dtype=int), np.zeros((1, 13), dtype=int))


def test_zeroed_tables_embed_to_zero():
    cfg = toy_config()
    branch = EncoderBranch(cfg, np.random.default_rng(0), "b.")
    for name in ("word_emb", "seg_emb", "pos_emb"):
        branch.params[name].data[:] = 0.0
    out = embed(branch, np.array([[2, 5, 3]]), np.array([[0, 0, 1]]))
    assert np.array_equal(out.data, np.zeros((1, 3, 8)))


def test_encode_with_no_layers_is_identity():
    cfg = toy_config(n_layers=0)
    branch = EncoderBranch(cfg, np.random.default_rng(0), "b.")
    hidden = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
    out = encode(branch, hidden, np.ones((2, 5), dtype=int))
    assert out is hidden


def test_encode_rejects_mismatched_mask():
    cfg = toy_config()
    branch = EncoderBranch(cfg, np.random.default_rng(0), "b.")
    hidden = Tensor(np.zeros((2, 5, 8)))
    with pytest.raises(ShapeError, match="attention_mask"):
        encode(branch, hidden, np.ones((2, 4), dtype=int))
    with pytest.raises(ShapeError, match="expects"):
        encode(branch, Tensor(np.zeros((2, 5))), np.ones((2, 5), dtype=int))


def test_attention_over_single_key_is_value_then_output_projection():
    """With one unmasked position the softmax is 1, so attention reduces
    to the value projection followed by the output projection."""
    def run():
        cfg = toy_config(n_layers=1)
        branch = EncoderBranch(cfg, np.random.default_rng(3), "b.")
        x = Tensor(np.random.default_rng(4).normal(size=(1, 1, 8)))
        got = mm._attention(branch, 0, x, np.ones((1, 1), dtype=int), None).data
        p = branch.params
        v = x.data @ p["layer0.attn.wv"].data + p["layer0.attn.bv"].data
        expected = v @ p["layer0.attn.wo"].data + p["layer0.attn.bo"].data
        assert np.allclose(got, expected, atol=1e-12)
    with use_dtype(np.float64):
        run()


def test_golden_forward_outputs_are_stable():
    spec = json.loads(GOLDEN.read_text(encoding="utf-8"))
    with use_dtype(np.float64):
        cfg = ModelConfig(**spec["config"])
        pairs = [
            build_both(o["text_ids"], o["entity_ids"], max_len=cfg.max_len,
                       label_id=o["label_id"])
            for o in spec["observations"]
        ]
        batch = batchify(pairs, batch_size=len(pairs))[0]
        ensemble = Classifier(cfg, "ensemble")
        single = Classifier(cfg, "single")
        cls1 = encode_cls(ensemble.branches[0], batch.first.input_ids,
                          batch.first.segment_ids, batch.first.attention_mask)
        checks = [
            ("branch1_cls", cls1.data),
            ("ensemble_logits", forward_batch(ensemble, batch).data),
            ("single_logits", forward_batch(single, batch).data),
        ]
    for key, got in checks:
        expected = np.array(spec["expected"][key])
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() < 1e-9, key


def test_extra_padding_leaves_logits_unchanged(monkeypatch):
    """The uncut stack, run over extra padding columns, gives the cut
    forward's logits: masked keys carry no weight."""
    with use_dtype(np.float64):
        cfg = toy_config(max_len=16)
        model = Classifier(cfg, "ensemble")
        p1, p2 = build_both([5, 6, 7, 8, 9], [10, 11], max_len=12, label_id=0)
        base = forward_pairs(model, (p1, p2)).data
        widened = tuple(dataclasses.replace(p, max_len=p.max_len + 4) for p in (p1, p2))
        monkeypatch.setattr(mm, "encode_cls", uncut_cls)
        wide = forward_pairs(model, widened).data
    assert np.abs(base - wide).max() < 1e-8


def test_swapping_branches_and_head_columns_swaps_the_orders():
    """Exchanging the two branch parameter sets, the two row-blocks of the
    first head matrix, and the two input orders yields identical logits."""
    with use_dtype(np.float64):
        cfg = toy_config()
        m1 = Classifier(cfg, "ensemble")
        m2 = Classifier(cfg, "ensemble")
        (a1, a2), (b1, b2) = m1.branches, m2.branches
        for name in a1.params:
            b1.params[name].data = a2.params[name].data.copy()
            b2.params[name].data = a1.params[name].data.copy()
        d = cfg.d_model
        w1 = m1.head["w1"].data
        m2.head["w1"].data = np.concatenate([w1[d:], w1[:d]], axis=0)
        for name in ("b1", "w2", "b2"):
            m2.head[name].data = m1.head[name].data.copy()

        text, entity = [5, 6, 7, 8], [10, 11]
        p1, p2 = build_both(text, entity, max_len=12)
        q1, q2 = build_both(entity, text, max_len=12)
        base = forward_pairs(m1, (p1, p2)).data
        swapped = forward_pairs(m2, (q1, q2)).data
    assert np.abs(base - swapped).max() < 1e-8


def test_blocked_head_rows_make_logits_ignore_second_branch():
    with use_dtype(np.float64):
        cfg = toy_config()
        model = Classifier(cfg, "ensemble")
        model.head["w1"].data[cfg.d_model:, :] = 0.0
        p1, p2 = build_both([5, 6, 7], [10, 11], max_len=12)
        _, other = build_both([17, 18, 19], [12, 13, 14], max_len=12)
        a = forward_pairs(model, (p1, p2)).data
        b = forward_pairs(model, (p1, other)).data
    assert np.array_equal(a, b)


def mixed_length_batch(max_len=24):
    """Rows of content length 6 to 13 packed to max_len: 11 columns of
    the block are padding in every row."""
    shapes = [([5, 6], [10]), ([5, 6, 7, 8, 9, 12, 13], [10, 11, 14]),
              ([15, 16, 17], [18, 19]), ([7, 8, 9, 10], [11])]
    pairs = [build_both(t, e, max_len=max_len, label_id=i) for i, (t, e) in enumerate(shapes)]
    return batchify(pairs, batch_size=len(pairs))[0]


def param_grads(model, batch):
    backward(cross_entropy(forward_batch(model, batch), batch.labels))
    return {name: t.grad.copy() for name, t in model.parameters().items()}


@pytest.mark.parametrize("kind", list(ARMS))
def test_cut_blocks_match_the_uncut_stack(monkeypatch, kind):
    """encode_cls drops the all-padding trailing columns; the CLS vectors
    and every parameter gradient equal those of the full-width stack."""
    with use_dtype(np.float64):
        model = Classifier(toy_config(max_len=24, seed=11), kind)
        batch = mixed_length_batch()
        assert batch.first.attention_mask.sum(axis=1).max() == 13
        for branch, block in zip(model.branches, (batch.first, batch.second)):
            args = (branch, block.input_ids, block.segment_ids, block.attention_mask)
            assert np.abs(encode_cls(*args).data - uncut_cls(*args).data).max() < 1e-12
        cut = param_grads(model, batch)
        monkeypatch.setattr(mm, "encode_cls", uncut_cls)
        full = param_grads(model, batch)
    assert list(cut) == list(full)
    for name in cut:
        assert np.abs(cut[name] - full[name]).max() < 1e-10, name


def test_encode_sees_only_the_longest_row(monkeypatch):
    widths = []

    def spy(branch, hidden, attention_mask, rng=None):
        widths.append(attention_mask.shape[1])
        return encode(branch, hidden, attention_mask, rng)

    monkeypatch.setattr(mm, "encode", spy)
    batch = mixed_length_batch()
    forward_batch(Classifier(toy_config(max_len=24), "ensemble"), batch)
    assert widths == [13, 13]
    forward_batch(Classifier(toy_config(max_len=24), "single"), batch)
    assert widths == [13, 13, 13]


def test_encode_cls_rejects_masked_cls_and_overwide_blocks():
    branch = EncoderBranch(toy_config(), np.random.default_rng(0), "b.")
    ids = np.array([[2, 5, 3, 7, 3, 0], [2, 6, 3, 8, 3, 0]])
    segs = np.array([[0, 0, 0, 1, 1, 0]] * 2)
    mask = (ids != 0).astype(np.int64)
    assert encode_cls(branch, ids, segs, mask).data.shape == (2, 8)
    no_cls = mask.copy()
    no_cls[1, 0] = 0
    with pytest.raises(DataError, match="position 0 unmasked"):
        encode_cls(branch, ids, segs, no_cls)
    with pytest.raises(DataError, match="position 0 unmasked"):
        encode_cls(branch, ids[:, :0], segs[:, :0], mask[:, :0])
    wide = [np.pad(a, ((0, 0), (0, 7))) for a in (ids, segs, mask)]
    with pytest.raises(ShapeError, match="sequence length 13 exceeds max_len 12"):
        encode_cls(branch, *wide)
    with pytest.raises(ShapeError, match=r"one \[batch, len\] shape"):
        encode_cls(branch, ids, segs, mask[:, :5])
    with pytest.raises(ShapeError, match=r"one \[batch, len\] shape"):
        encode_cls(branch, ids[0], segs[0], mask[0])


def test_hand_built_block_with_interior_holes_is_cut_after_its_last_unmasked_column():
    """The cut keeps every column up to the last one any row leaves
    unmasked, so a masked column inside that width stays masked."""
    with use_dtype(np.float64):
        branch = EncoderBranch(toy_config(), np.random.default_rng(2), "b.")
        ids = np.array([[2, 5, 0, 7, 3, 0, 0, 0]])
        segs = np.zeros_like(ids)
        mask = (ids != 0).astype(np.int64)
        got = encode_cls(branch, ids, segs, mask)
        want = uncut_cls(branch, ids, segs, mask)
    assert np.abs(got.data - want.data).max() < 1e-12


@pytest.mark.parametrize("kind", list(ARMS))
def test_no_grad_logits_equal_the_recorded_ones_and_carry_no_tape(kind):
    model = Classifier(toy_config(max_len=24), kind)
    batch = mixed_length_batch()
    recorded = forward_batch(model, batch)
    with no_grad():
        bare = forward_batch(model, batch)
    assert recorded._parents and recorded.requires_grad
    assert bare._parents == () and bare._backward is None and not bare.requires_grad
    assert np.array_equal(bare.data, recorded.data)


def test_a_spent_loss_holds_no_tape():
    """After backward, the loss the training loop still holds keeps only
    its value: what stays allocated is the parameter gradients.  d_model
    32 keeps NumPy's per-array overhead small beside the weights."""
    model = Classifier(toy_config(max_len=24, d_model=32, d_ff=64, dropout_rate=0.1), "ensemble")
    batch = mixed_length_batch()
    param_bytes = sum(t.data.nbytes for t in model.parameters().values())
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy(forward_batch(model, batch, rng), batch.labels)
        backward(loss)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.data)
    assert held <= 2 * param_bytes, (held, param_bytes)


def test_inference_is_deterministic_and_dropout_rng_is_live():
    cfg = toy_config(dropout_rate=0.3)
    model = Classifier(cfg, "ensemble")
    batch = toy_batch()
    a = forward_batch(model, batch).data
    b = forward_batch(model, batch).data
    assert np.array_equal(a, b)
    trained = forward_batch(model, batch, rng=np.random.default_rng(0)).data
    assert not np.array_equal(a, trained)


def test_ensemble_forward_requires_both_orders():
    batch = toy_batch()
    swapped = PairBatch(first=batch.second, second=batch.first, labels=batch.labels)
    with pytest.raises(DataError, match=r"needs \(text_first, entity_first\)"):
        forward_batch(Classifier(toy_config(), "ensemble"), swapped)
    with pytest.raises(DataError, match=r"needs \(text_first\) blocks, got \(entity_first\)"):
        forward_batch(Classifier(toy_config(), "single"), swapped)


def test_single_pair_forwards_return_class_vectors():
    cfg = toy_config()
    p1, p2 = build_both([5, 6], [10], max_len=12, label_id=2)
    assert forward_pairs(Classifier(cfg, "single"), (p1,)).data.shape == (6,)
    assert forward_pairs(Classifier(cfg, "ensemble"), (p1, p2)).data.shape == (6,)


def test_forward_batch_dispatches_on_kind():
    batch = toy_batch()
    for kind in ARMS:
        assert forward_batch(Classifier(toy_config(), kind), batch).data.shape == (2, 6)
    with pytest.raises(DataError, match="unknown model kind"):
        Classifier(toy_config(), "triple")


def branch_param_count(cfg: ModelConfig) -> int:
    d, f = cfg.d_model, cfg.d_ff
    per_layer = 4 * d * d + 2 * d * f + 9 * d + f
    return (cfg.vocab_size + 2 + cfg.max_len) * d + cfg.n_layers * per_layer


def test_count_params_matches_closed_form():
    cfg = toy_config(d_hidden=5)
    d, h, c = cfg.d_model, cfg.d_hidden, cfg.n_classes
    ens = 2 * branch_param_count(cfg) + (2 * d * h + h + h * c + c)
    sing = branch_param_count(cfg) + (d * c + c)
    assert count_params(Classifier(cfg, "ensemble")) == ens
    assert count_params(Classifier(cfg, "single")) == sing


@pytest.mark.parametrize("kind", list(ARMS))
def test_checkpoint_round_trip_is_bit_exact(tmp_path, kind):
    model = Classifier(toy_config(seed=9), kind)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    first_bytes = path.read_bytes()
    assert first_bytes.startswith(CHECKPOINT_MAGIC)

    loaded = load_checkpoint(path)
    assert loaded.kind == kind
    assert loaded.config == model.config
    orig, back = model.parameters(), loaded.parameters()
    assert list(orig) == list(back)
    for name in orig:
        assert np.array_equal(orig[name].data, back[name].data), name

    batch = toy_batch()
    assert np.array_equal(forward_batch(model, batch).data,
                          forward_batch(loaded, batch).data)

    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, again)
    assert again.read_bytes() == first_bytes


@pytest.mark.parametrize("kind", list(ARMS))
def test_golden_checkpoints_load_and_resave_byte_for_byte(tmp_path, kind):
    """Checkpoints written by earlier code (TOY config, seed 9) still load,
    re-save to the same bytes and give the same logits; a fresh model of
    that config draws the same parameters under the same names."""
    golden = DATA / f"golden_{kind}.ckpt"
    blob = golden.read_bytes()
    fresh = tmp_path / "fresh.ckpt"
    save_checkpoint(Classifier(toy_config(seed=9), kind), fresh)
    assert fresh.read_bytes() == blob

    with use_dtype(np.float64):
        loaded = load_checkpoint(golden)
        logits = forward_batch(loaded, toy_batch()).data
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(loaded, resaved)
    assert resaved.read_bytes() == blob
    expected = np.array(json.loads(GOLDEN_LOGITS.read_text(encoding="utf-8"))["logits"][kind])
    assert logits.shape == expected.shape
    assert np.abs(logits - expected).max() < 1e-9


@pytest.mark.parametrize("kind", list(ARMS))
def test_gradient_check_passes_for_every_arm(kind):
    with use_dtype(np.float64):
        cfg = toy_config(vocab_size=50, max_len=16, n_layers=1, seed=0)
        model = Classifier(cfg, kind)
        rng = np.random.default_rng(4)
        pairs = [
            build_both(rng.integers(4, 50, size=5).tolist(), rng.integers(4, 50, size=2).tolist(),
                       cfg.max_len, int(rng.integers(0, cfg.n_classes)))
            for _ in range(2)
        ]
        batch = batchify(pairs, batch_size=2)[0]

        def loss_fn():
            return cross_entropy(forward_batch(model, batch), batch.labels)

        report = grad_check(loss_fn, model.parameters(), tolerance=1e-3, h=1e-4)
    assert set(report.per_param) == set(model.parameters())
    assert report.passed, f"worst {report.worst_param}: {report.max_rel_err:.3e}"


def test_checkpoint_rejects_corruption(tmp_path):
    model = Classifier(toy_config(), "single")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMEDER" + blob[8:])
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(bad)

    bad.write_bytes(CHECKPOINT_MAGIC + b"kind=single")
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(blob.replace(b"kind=single", b"kind=banana", 1))
    with pytest.raises(DataError, match="unknown checkpoint kind"):
        load_checkpoint(bad)

    n = len(model.parameters())
    bad.write_bytes(blob.replace(
        f"tensors={n}".encode(), f"tensors={n + 1}".encode(), 1))
    with pytest.raises(DataError, match=f"header line 'tensors={n + 1}' differs"):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"\0\0\0\0")
    with pytest.raises(DataError, match="bytes, its layout needs"):
        load_checkpoint(bad)

    # seg_emb follows the 20x8 word_emb at byte 640; moved to 0 it
    # would overlap word_emb
    bad.write_bytes(blob.replace(b"branch.seg_emb 2,8 640", b"branch.seg_emb 2,8 0", 1))
    with pytest.raises(DataError, match="'branch.seg_emb 2,8 0' differs"):
        load_checkpoint(bad)

    bad.write_bytes(blob.replace(b"branch.seg_emb 2,8", b"branch.seg_emb 2,x", 1))
    with pytest.raises(DataError, match="differs"):
        load_checkpoint(bad)

    bad.write_bytes(blob.replace(b"branch.seg_emb", b"branch.seg\xffemb", 1))
    with pytest.raises(DataError, match="not UTF-8"):
        load_checkpoint(bad)

    for value in (np.nan, np.inf):
        bad.write_bytes(blob[:-4] + np.array([value], dtype="<f4").tobytes())
        with pytest.raises(DataError, match="head.b holds NaN or inf"):
            load_checkpoint(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_save_refuses_non_finite_weights_and_writes_nothing(tmp_path, value):
    """1e39 is finite in float64 but inf once stored as <f4; the cast
    reports it through the NumericError alone, with no NumPy warning."""
    with use_dtype(np.float64):
        model = Classifier(toy_config(), "single")
    model.head["b"].data[1] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(
            NumericError, match=r"cannot save .*model.ckpt: tensor head.b holds NaN or inf"):
        save_checkpoint(model, path)
    assert not path.exists()


FUZZ_SOURCE = (DATA / "golden_ensemble.ckpt").read_bytes()
FUZZ_HEADER_END = FUZZ_SOURCE.index(b"\nend\n") + len(b"\nend\n")
# positions inside the header are drawn as often as positions anywhere
_fuzz_position = st.one_of(st.integers(0, FUZZ_HEADER_END - 1),
                           st.integers(0, len(FUZZ_SOURCE) - 1))


@settings(max_examples=150, deadline=None)
@given(edit=st.one_of(
    st.tuples(st.just("substitute"), _fuzz_position, st.integers(0, 255)),
    st.tuples(st.just("truncate"), _fuzz_position),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
))
def test_fuzzed_checkpoint_loads_or_raises_data_error(tmp_path_factory, edit):
    """Single-byte substitutions, truncations and appended bytes either
    still load or raise DataError, never another exception."""
    if edit[0] == "substitute":
        _, pos, byte = edit
        blob = FUZZ_SOURCE[:pos] + bytes([byte]) + FUZZ_SOURCE[pos + 1:]
    elif edit[0] == "truncate":
        blob = FUZZ_SOURCE[:edit[1]]
    else:
        blob = FUZZ_SOURCE + edit[1]
    path = tmp_path_factory.getbasetemp() / "fuzzed.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except DataError:
        pass
