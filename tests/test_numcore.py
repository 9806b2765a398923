"""Numeric core tests: forward oracles, backward identities, finite differences."""

import math

import numpy as np
import pytest

import meder.numcore as nc
from meder.errors import NumericError, ShapeError
from meder.numcore import (
    Tensor,
    add,
    backward,
    concat,
    cross_entropy,
    embedding_lookup,
    gelu,
    grad_check,
    layer_norm,
    masked_fill,
    matmul,
    mul,
    no_grad,
    param,
    reshape,
    row_softmax,
    select,
    transpose,
    use_dtype,
)

from helpers import total_sum


def f64(fn):
    """Run a test body under the verification dtype."""
    with use_dtype(np.float64):
        return fn()


def test_dtype_switching():
    assert nc.default_dtype() == np.float32
    with use_dtype(np.float64):
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32
    with pytest.raises(NumericError, match="unsupported dtype"):
        nc.set_default_dtype(np.int32)


def test_matmul_matches_naive_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    with use_dtype(np.float64):
        got = matmul(Tensor(a), Tensor(b)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, expected, atol=1e-12)


def test_matmul_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(3, 4\) vs \(3, 2\)"):
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError, match="2-D"):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_add_broadcast_and_shape_error():
    out = add(Tensor(np.ones((2, 3))), Tensor(np.arange(3.0)))
    assert out.data.shape == (2, 3)
    with pytest.raises(ShapeError, match="cannot broadcast"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_row_softmax_analytic_cases():
    with use_dtype(np.float64):
        uniform = row_softmax(Tensor([[0.0, 0.0, 0.0]])).data
        assert np.allclose(uniform, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)
        two = row_softmax(Tensor([[0.0, math.log(2.0)]])).data
        assert np.allclose(two, [[1 / 3, 2 / 3]], atol=1e-12)


def test_row_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(1)
    with use_dtype(np.float64):
        x = rng.normal(scale=5.0, size=(8, 7))
        y = row_softmax(Tensor(x)).data
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        shifted = row_softmax(Tensor(x + 123.456)).data
        assert np.allclose(y, shifted, atol=1e-6)
        # extreme logits stay finite thanks to max subtraction
        big = row_softmax(Tensor([[1e30, 0.0, -1e30]])).data
        assert np.all(np.isfinite(big))


def attention_chain(scores, key_mask, scale):
    """The attention probabilities as three tape ops, the reference the
    fused `row_softmax(..., key_mask=, scale=)` must equal bit for bit."""
    return row_softmax(masked_fill(mul(scores, scale), key_mask))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_attention_softmax_equals_the_three_op_chain(dtype):
    rng = np.random.default_rng(13)
    x = rng.normal(scale=3.0, size=(2, 3, 5, 6))
    weights = rng.normal(size=x.shape)
    key_mask = rng.random((2, 1, 1, 6)) < 0.4
    key_mask[0, 0, 0, :] = True  # every key of one batch row masked
    key_mask[1, 0, 0, 0] = False
    scale = 1.0 / math.sqrt(5.0)
    results = []
    with use_dtype(dtype):
        for probs in (lambda s: attention_chain(s, key_mask, scale),
                      lambda s: row_softmax(s, key_mask=key_mask, scale=scale)):
            s = param(x, "scores")
            out = probs(s)
            data = out.data.copy()
            backward(total_sum(mul(out, Tensor(weights))))
            results.append((data, s.grad))
    (chain_data, chain_grad), (fused_data, fused_grad) = results
    assert fused_data.dtype == fused_grad.dtype == dtype
    assert np.array_equal(fused_data, chain_data)
    assert np.array_equal(fused_grad, chain_grad)
    assert np.all(fused_grad[0] == 0.0)  # every key masked: no gradient reaches the scores


def test_fused_attention_softmax_passes_grad_check():
    rng = np.random.default_rng(14)
    key_mask = np.array([[False, True, False, False, True]])
    with use_dtype(np.float64):
        s = param(rng.normal(size=(3, 5)), "scores")
        weights = Tensor(rng.normal(size=(3, 5)))
        report = grad_check(
            lambda: total_sum(mul(row_softmax(s, key_mask=key_mask, scale=0.7), weights)),
            {"scores": s},
        )
    assert report.passed, report.lines()
    with pytest.raises(ShapeError, match="key_mask"):
        row_softmax(Tensor(np.zeros((3, 5))), key_mask=np.zeros(4, dtype=bool))


def test_layer_norm_constant_row_is_near_zero():
    with use_dtype(np.float64):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]), gain, bias).data
    assert np.all(np.abs(out) < 1e-3)


def test_layer_norm_normalizes_and_validates_shapes():
    rng = np.random.default_rng(2)
    with use_dtype(np.float64):
        x = rng.normal(size=(3, 8))
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)
        with pytest.raises(ShapeError, match="must both be"):
            layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(8)))


def test_cross_entropy_uniform_is_log_n_classes():
    with use_dtype(np.float64):
        logits = Tensor(np.zeros((2, 6)))
        loss = cross_entropy(logits, np.array([0, 5]))
        assert abs(float(loss.data) - math.log(6.0)) < 1e-12
        assert abs(float(loss.data) - 1.791759) < 1e-6


def test_cross_entropy_validation():
    with use_dtype(np.float64):
        with pytest.raises(ShapeError, match=r"\[batch, classes\]"):
            cross_entropy(Tensor(np.zeros(6)), np.array([0]))
        with pytest.raises(NumericError, match="label out of range"):
            cross_entropy(Tensor(np.zeros((1, 6))), np.array([6]))


def test_backward_linear_case():
    # loss = sum(W @ x): dL/dW = ones (outer) x
    with use_dtype(np.float64):
        w = param(np.arange(6.0).reshape(2, 3), "w")
        x = Tensor([[1.0], [2.0], [3.0]])
        loss = total_sum(matmul(w, x))
        backward(loss)
        assert np.allclose(w.grad, np.tile([1.0, 2.0, 3.0], (2, 1)), atol=1e-12)


def test_backward_softmax_cross_entropy_identity():
    rng = np.random.default_rng(3)
    with use_dtype(np.float64):
        z = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 5, 1])
        logits = param(z, "logits")
        backward(cross_entropy(logits, labels))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        softmax = e / e.sum(axis=-1, keepdims=True)
        onehot = np.eye(6)[labels]
        assert np.allclose(logits.grad, (softmax - onehot) / 4, atol=1e-12)


def test_backward_requires_scalar_and_finite_loss():
    with use_dtype(np.float64):
        vec = param(np.ones(3), "v")
        with pytest.raises(NumericError, match="scalar"):
            backward(add(vec, 1.0))
        inf = param(np.array(np.inf), "inf")
        with pytest.raises(NumericError, match="non-finite"):
            backward(mul(inf, 1.0))


def test_backward_accumulates_over_reused_nodes():
    with use_dtype(np.float64):
        x = param(np.array([2.0]), "x")
        loss = total_sum(mul(x, x))  # d/dx x^2 = 2x
        backward(loss)
        assert np.allclose(x.grad, [4.0], atol=1e-12)


def test_backward_is_deterministic():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(5, 4))
    ids = np.array([0, 2, 1])

    def run():
        with use_dtype(np.float64):
            table = param(data.copy(), "table")
            h = embedding_lookup(table, ids)
            out = gelu(layer_norm(h, param(np.ones(4), "g"), param(np.zeros(4), "b")))
            backward(total_sum(out))
            return table.grad.copy()

    assert np.array_equal(run(), run())


def test_backward_releases_the_graph_and_skips_constants():
    with use_dtype(np.float64):
        w = param(np.array([[1.0, -2.0], [3.0, 0.5]]), "w")
        mask = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        consts = [Tensor(np.ones((2, 2))), Tensor(np.ones(4)), Tensor(np.zeros(4))]
        hidden = mul(matmul(w, w), mask)
        joined = concat([add(hidden, consts[0]), consts[0]], axis=-1)
        loss = total_sum(layer_norm(joined, consts[1], consts[2]))
        backward(loss)
        assert mask.grad is None and all(c.grad is None for c in consts)
        for node in (hidden, joined, loss):
            assert node.grad is None and node._parents == ()
        assert w.grad.shape == (2, 2)
        assert np.isfinite(loss.data)
        # a new graph through a released node would stop w's gradient there
        with pytest.raises(NumericError, match="already released"):
            backward(total_sum(mul(hidden, 3.0)))


def test_backward_without_a_tape_raises():
    """A loss built under no_grad, or one an earlier backward released,
    would otherwise leave stale gradients for the optimizer."""
    with use_dtype(np.float64):
        w = param(np.ones(3), "w")
        with no_grad():
            untaped = total_sum(mul(w, 2.0))
        with pytest.raises(NumericError, match="no tape"):
            backward(untaped)
        loss = total_sum(mul(w, 2.0))
        backward(loss)
        first = w.grad
        with pytest.raises(NumericError, match="already released"):
            backward(loss)
        assert w.grad is first


def test_no_grad_records_nothing_and_restores_the_flag():
    with use_dtype(np.float64):
        w = param(np.arange(4.0).reshape(2, 2), "w")
        with no_grad():
            out = gelu(matmul(w, w))
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert np.array_equal(out.data, gelu(matmul(w, w)).data)
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError("inside")
        assert matmul(w, w)._parents == (w, w)


def test_masked_fill_blocks_gradient():
    with use_dtype(np.float64):
        x = param(np.array([[1.0, 2.0, 3.0]]), "x")
        mask = np.array([[False, True, False]])
        out = masked_fill(x, mask)
        assert out.data[0, 1] == nc.MASK_FILL_VALUE
        backward(total_sum(out))
        assert np.array_equal(x.grad, [[1.0, 0.0, 1.0]])


def test_embedding_lookup_accumulates_repeated_ids():
    with use_dtype(np.float64):
        table = param(np.zeros((4, 2)), "t")
        out = embedding_lookup(table, np.array([1, 1, 3]))
        backward(total_sum(out))
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])
        with pytest.raises(ShapeError, match="out of range"):
            embedding_lookup(table, np.array([4]))
        with pytest.raises(ShapeError, match="integers"):
            embedding_lookup(table, np.array([0.5]))


def test_select_concat_transpose_reshape_grads():
    with use_dtype(np.float64):
        x = param(np.arange(12.0).reshape(2, 3, 2), "x")
        y = param(np.arange(6.0).reshape(1, 3, 2), "y")
        joined = concat([x, y], axis=0)  # [3, 3, 2]
        pooled = select(joined, 0, axis=1)  # [3, 2]
        flat = reshape(transpose(pooled, (1, 0)), (6,))
        backward(total_sum(flat))
        expected_x = np.zeros((2, 3, 2))
        expected_x[:, 0, :] = 1.0
        assert np.array_equal(x.grad, expected_x)
        expected_y = np.zeros((1, 3, 2))
        expected_y[:, 0, :] = 1.0
        assert np.array_equal(y.grad, expected_y)


def test_forward_ops_finite_on_finite_inputs():
    rng = np.random.default_rng(5)
    with use_dtype(np.float64):
        x = Tensor(rng.normal(scale=50.0, size=(4, 8)))
        for out in (
            row_softmax(x),
            gelu(x),
            layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))),
            masked_fill(x, rng.random((4, 8)) > 0.5),
        ):
            assert np.all(np.isfinite(out.data))


def test_grad_check_linear_model_is_exact():
    rng = np.random.default_rng(6)
    with use_dtype(np.float64):
        w = param(rng.normal(size=(5, 3)), "w")
        b = param(rng.normal(size=(3,)), "b")
        x = rng.normal(size=(2, 5))
        report = grad_check(
            lambda: total_sum(add(matmul(Tensor(x), w), b)),
            {"w": w, "b": b},
        )
    assert report.passed
    assert report.max_rel_err < 1e-8
    assert report.n_checked == 18


def test_grad_check_small_network_passes_default_tolerance():
    rng = np.random.default_rng(7)
    ids = np.array([[1, 3, 2, 0]])
    labels = np.array([1])
    with use_dtype(np.float64):
        table = param(rng.normal(scale=0.2, size=(5, 8)), "table")
        gain = param(np.ones(8), "gain")
        bias = param(np.zeros(8), "bias")
        w = param(rng.normal(scale=0.2, size=(8, 6)), "w")

        def loss_fn():
            h = embedding_lookup(table, ids)
            h = layer_norm(h, gain, bias)
            h = gelu(h)
            pooled = select(h, 0, axis=1)
            return cross_entropy(matmul(pooled, w), labels)

        report = grad_check(loss_fn, {"table": table, "gain": gain, "bias": bias, "w": w})
    assert report.passed
    assert report.max_rel_err < 1e-3


def gelu_with_powers(x):
    t = np.tanh(nc.GELU_K0 * (x + nc.GELU_K1 * x**3))
    return 0.5 * x * (1.0 + t)


def gelu_grad_with_powers(x):
    t = np.tanh(nc.GELU_K0 * (x + nc.GELU_K1 * x**3))
    return (0.5 * (1.0 + t)
            + 0.5 * x * (1.0 - t**2) * nc.GELU_K0 * (1.0 + 3.0 * nc.GELU_K1 * x**2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_products_match_the_power_form(dtype):
    """Errors are measured against the largest magnitude each formula
    cancels: |x| for gelu, whose 1 + tanh falls to 0 for negative x, and
    1 + |x| K0 (1 + 3 K1 x^2) / 2 for gelu_grad, whose 1 - tanh^2 does."""
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.uniform(-12.0, 12.0, 20000), rng.normal(0.0, 1.0, 20000),
                        rng.normal(0.0, 1e-3, 1000), [0.0]]).astype(dtype)
    wide = x.astype(np.float64)
    scales = (np.abs(wide),
              1.0 + 0.5 * np.abs(wide) * nc.GELU_K0 * (1.0 + 3.0 * nc.GELU_K1 * wide**2))
    with use_dtype(dtype):
        got = (gelu(Tensor(x)).data, nc.gelu_grad(x))
    want = (gelu_with_powers(x), gelu_grad_with_powers(x))
    for g, w, scale in zip(got, want, scales):
        assert g.dtype == dtype
        err = np.abs(g.astype(np.float64) - w)
        if dtype == np.float32:
            ulp = np.spacing(scale.astype(np.float32)).astype(np.float64)
            assert (err <= 4 * np.maximum(ulp, np.finfo(np.float32).tiny)).all()
        else:
            assert (err <= 1e-14 * scale).all()


def test_grad_check_detects_corrupted_gelu(monkeypatch):
    rng = np.random.default_rng(8)
    monkeypatch.setattr(nc, "gelu_grad", lambda x: nc.GELU_K0 * np.ones_like(x))
    with use_dtype(np.float64):
        w = param(rng.normal(size=(4, 4)), "w")
        x = Tensor(rng.normal(size=(2, 4)))
        report = grad_check(lambda: total_sum(gelu(matmul(x, w))), {"w": w})
    assert not report.passed
    assert report.max_rel_err > 1e-3


def test_grad_check_requires_float64():
    w = param(np.ones((2, 2)), "w")  # float32 under the default dtype
    with pytest.raises(NumericError, match="float64"):
        grad_check(lambda: total_sum(mul(w, 1.0)), {"w": w})


def test_grad_check_report_lines():
    with use_dtype(np.float64):
        w = param(np.ones((2, 2)), "w")
        report = grad_check(lambda: total_sum(mul(w, 3.0)), {"w": w})
    lines = report.lines()
    assert lines[0].startswith("w: max_rel_err")
    assert "overall: max_rel_err" in lines[-1]
    assert lines[-1].endswith("-> PASS")


def test_grad_check_samples_large_tensors():
    with use_dtype(np.float64):
        w = param(np.random.default_rng(9).normal(size=(30, 30)), "w")
        report = grad_check(
            lambda: total_sum(mul(w, w)), {"w": w}, samples_per_tensor=50,
        )
    assert report.n_checked == 50
    assert report.passed
