"""Dense tensors with reverse-mode differentiation on a tape.

Just enough operator surface for the encoder: broadcast add/mul, batched
matmul, reshape/transpose, row softmax, layer norm, gelu, embedding
lookup, masked fill, select/concat and cross entropy.  Forward ops guard
against overflow (softmax max subtraction, layer-norm epsilon), so finite
inputs give finite outputs.

Training runs in float32; verification (finite differences) runs under
`use_dtype(np.float64)`.  Ops record a node only for outputs that need a
gradient, and none at all under `no_grad()`; `backward` releases each
node's gradient, closure and parents once it has run, so a spent loss
holds nothing but its value.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import NumericError, ShapeError

# tanh-approximation constants for gelu
GELU_K0 = 0.7978845608028654  # sqrt(2/pi)
GELU_K1 = 0.044715

LAYER_NORM_EPS = 1e-5
MASK_FILL_VALUE = -1e9

_default_dtype = np.dtype(np.float32)
_grad_enabled = True


def default_dtype() -> np.dtype:
    return _default_dtype


def set_default_dtype(dtype) -> None:
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise NumericError(f"unsupported dtype {dt}; use float32 or float64")
    global _default_dtype
    _default_dtype = dt


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the dtype new tensors are created with."""
    old = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


@contextmanager
def no_grad():
    """Build no tape: ops inside return nodes without parents or backward."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


class Tensor:
    """A node in the computation graph.

    `data` is a row-major numpy array; `grad` is filled by backward().
    Graph edges (`_parents`, `_backward`) are recorded by the ops below.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def param(data, name: str) -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.name = None
    out._parents = parents if out.requires_grad else ()
    out._backward = backward if out.requires_grad else None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Union[Tensor, float], b: Union[Tensor, float]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.data.shape} with {b.data.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return _node(data, (a, b), backward)


def mul(a: Union[Tensor, float], b: Union[Tensor, float]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.data.shape} with {b.data.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.data.shape} vs {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: cannot broadcast {a.data.shape} with {b.data.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)

    return _node(data, (a, b), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} are not a permutation for shape {a.data.shape}")
    inverse = tuple(np.argsort(axes))

    def backward(g: np.ndarray) -> None:
        a.grad += g.transpose(inverse)

    return _node(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}") from None

    def backward(g: np.ndarray) -> None:
        a.grad += g.reshape(a.data.shape)

    return _node(data, (a,), backward)


def select(a: Tensor, index: int, axis: int) -> Tensor:
    """Take one slice along `axis`, dropping that axis (e.g. CLS pooling)."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"select: axis {axis} out of range for shape {a.data.shape}")
    if not 0 <= index < a.data.shape[axis]:
        raise ShapeError(f"select: index {index} out of range for shape {a.data.shape} axis {axis}")
    data = np.take(a.data, index, axis=axis)

    def backward(g: np.ndarray) -> None:
        expanded = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        expanded[tuple(sl)] = g
        a.grad += expanded

    return _node(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty tensor list")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.data.shape for t in tensors]
        raise ShapeError(f"concat: incompatible shapes {shapes} on axis {axis}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        moved = np.moveaxis(g, axis, 0)
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            if t.requires_grad:
                t.grad += np.moveaxis(moved[start:stop], 0, axis)

    return _node(data, tuple(tensors), backward)


def row_softmax(
    a: Tensor, key_mask: Optional[np.ndarray] = None, scale: Optional[float] = None
) -> Tensor:
    """Softmax over the last axis, with max subtraction for stability.

    Attention probabilities in one node: the logits are first multiplied
    by `scale`, then entries where `key_mask` is true are set to
    MASK_FILL_VALUE.  Data and gradient are bit for bit those of
    `row_softmax(masked_fill(mul(a, scale), key_mask))`.
    """
    x = a.data
    if scale is not None:
        scale = x.dtype.type(scale)
        x = x * scale
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        try:
            np.broadcast_to(key_mask, x.shape)
        except ValueError:
            raise ShapeError(
                f"row_softmax: key_mask {key_mask.shape} does not broadcast to {x.shape}"
            ) from None
        x = np.where(key_mask, x.dtype.type(MASK_FILL_VALUE), x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * data).sum(axis=-1, keepdims=True)
        gx = (g - inner) * data
        if key_mask is not None:
            np.copyto(gx, 0.0, where=key_mask)
        if scale is not None:
            gx *= scale
        a.grad += gx

    return _node(data, (a,), backward)


def masked_fill(a: Tensor, mask: np.ndarray, value: float = MASK_FILL_VALUE) -> Tensor:
    """Replace entries where `mask` is true by `value` (pre-softmax logits)."""
    mask = np.asarray(mask, dtype=bool)
    try:
        keep = np.broadcast_to(~mask, a.data.shape)
    except ValueError:
        raise ShapeError(f"masked_fill: mask {mask.shape} does not broadcast to {a.data.shape}") from None
    data = np.where(keep, a.data, a.data.dtype.type(value))

    def backward(g: np.ndarray) -> None:
        a.grad += np.where(keep, g, 0.0)

    return _node(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; then scale and shift."""
    d = a.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} "
            f"must both be ({d},) for input {a.data.shape}"
        )
    mean = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mean) * inv
    data = xhat * gain.data + bias.data

    def backward(g: np.ndarray) -> None:
        axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            gain.grad += (g * xhat).sum(axis=axes)
        if bias.requires_grad:
            bias.grad += g.sum(axis=axes)
        if a.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            a.grad += inv * (gx - m1 - xhat * m2)

    return _node(data, (a, gain, bias), backward)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of the tanh-approximation gelu; separate so tests can corrupt it."""
    x2 = x * x
    t = np.tanh(GELU_K0 * (x + GELU_K1 * (x2 * x)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_K0 * (1.0 + 3.0 * GELU_K1 * x2)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    t = np.tanh(GELU_K0 * (x + GELU_K1 * (x * x * x)))
    data = 0.5 * x * (1.0 + t)

    def backward(g: np.ndarray) -> None:
        # late-bound module lookup so a corrupted gelu_grad is picked up
        a.grad += g * gelu_grad(a.data)

    return _node(data, (a,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"embedding ids must be integers, got dtype {ids.dtype}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.data.shape[0]}) "
            f"(min {ids.min()}, max {ids.max()})"
        )
    data = table.data[ids]

    def backward(g: np.ndarray) -> None:
        np.add.at(table.grad, ids, g)

    return _node(data, (table,), backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log likelihood of `labels` under softmax([B, C] logits)."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch, classes] logits, got {logits.data.shape}")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise NumericError(f"cross_entropy: label out of range [0, {c})")

    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    probs = e / e.sum(axis=-1, keepdims=True)
    logp = (logits.data - m) - np.log(e.sum(axis=-1, keepdims=True))
    picked = logp[np.arange(n), labels]
    data = np.asarray(-picked.mean())

    def backward(g: np.ndarray) -> None:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        logits.grad += grad * (g / n)

    return _node(data, (logits,), backward)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        # reversed so parents are visited left-to-right, keeping the
        # accumulation order deterministic
        for p in reversed(node._parents):
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _spent(g: np.ndarray) -> None:
    """The closure of a node whose graph an earlier backward released."""
    raise NumericError(
        "backward: the graph was already released by an earlier backward; build it again"
    )


def backward(loss: Tensor) -> None:
    """Populate `.grad` for every leaf that needs one and is reachable from
    a scalar loss, then release the graph.

    A node's zero-filled gradient is allocated just before the first
    closure that writes into it, and only if the node requires grad.
    Each interior node's gradient and parents are dropped once its closure
    has run, and the closure becomes `_spent`: the loss keeps only its
    value, and a second backward through any node of it is a NumericError
    rather than a gradient that silently stops there.
    """
    if loss.data.size != 1:
        raise NumericError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NumericError("backward called on a non-finite loss")
    if loss._backward is None:
        raise NumericError("backward: the loss has no tape (built under no_grad or from constants)")
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            # allocated at first write, not all up front: the heap then
            # never grows by every gradient at once, which the allocator
            # would hand back to the OS and fault in again every step
            for p in node._parents:
                if p.requires_grad and p.grad is None:
                    p.grad = np.zeros_like(p.data)
            node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    max_rel_err: float
    tolerance: float
    h: float
    worst_param: str
    worst_index: int
    n_checked: int
    per_param: dict[str, float]

    def lines(self) -> list[str]:
        out = [f"{name}: max_rel_err {err:.3e}" for name, err in sorted(self.per_param.items())]
        out.append(
            f"overall: max_rel_err {self.max_rel_err:.3e} at {self.worst_param}[{self.worst_index}] "
            f"(h={self.h:g}, n={self.n_checked}, tolerance {self.tolerance:g}) "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        )
        return out


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    tolerance: float = 1e-3,
    h: float = 1e-4,
    samples_per_tensor: int = 200,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Requires float64 parameters.  For tensors larger than
    samples_per_tensor, a seeded sample of that many scalar entries is
    checked; smaller tensors are checked exhaustively.  Relative error
    is |a - n| / max(|a|, |n|, 1e-6).
    """
    if not params:
        raise NumericError("grad_check needs at least one parameter")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise NumericError(f"grad_check requires float64 parameters; {name} is {p.data.dtype}")

    loss = loss_fn()
    if loss.data.dtype != np.float64:
        raise NumericError(f"grad_check requires a float64 loss, got {loss.data.dtype}")
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    worst = (0.0, "", 0)
    n_checked = 0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        size = flat.shape[0]
        if size <= samples_per_tensor:
            idxs = np.arange(size)
        else:
            idxs = rng.choice(size, size=samples_per_tensor, replace=False)
        worst_here = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(aflat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            n_checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > worst[0]:
                worst = (rel, name, int(i))
        per_param[name] = worst_here
    max_rel = worst[0]
    return GradCheckReport(
        passed=max_rel <= tolerance,
        max_rel_err=max_rel,
        tolerance=tolerance,
        h=h,
        worst_param=worst[1] or next(iter(params)),
        worst_index=worst[2],
        n_checked=n_checked,
        per_param=per_param,
    )
