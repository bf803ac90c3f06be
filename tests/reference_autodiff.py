"""The autodiff engine as it was before graph and data were separated: every
Tensor keeps its output array and is its own graph node, and each backward
closure reads its operands' arrays through their Tensors.

Kept as the reference for the gradient tests: the engine in
`crossmpt.autodiff` must give the same outputs and the same gradients, bit
for bit, on every primitive and on every model. The arithmetic below is not
to be edited except together with the engine's.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "matmul",
    "transpose",
    "add",
    "mul",
    "neg",
    "scale",
    "concat",
    "narrow",
    "reshape",
    "reduce_sum",
    "masked_softmax",
    "layer_norm",
    "gelu",
    "softplus",
    "ffn",
]

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = (), _backward=None):
        if isinstance(data, Tensor):
            raise TypeError("cannot wrap a Tensor in a Tensor")
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-accumulate gradients from this tensor.

        Every node in the recorded graph is visited exactly once, and an
        interior node's gradient is freed once its closure has used it; leaves
        keep theirs. Calling backward twice on the same output, or through a
        node an earlier backward used, is an error; build a fresh forward pass
        instead.
        """
        if self._done:
            raise RuntimeError("backward already ran on this computation record")
        if seed is None:
            if self.data.ndim != 0:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                if node._done:
                    raise RuntimeError("computation record node already consumed by backward")
                node._backward(node.grad)
                node._done = True
                node.grad = None
        self._done = True

    # operator sugar
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return add(self, neg(other))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def parameter(data, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, keepdims, as matrix-vector products against a
    1/d vector of x's dtype, one per leading index. One product over all rows
    flattened would let BLAS's blocking of the rows make a frame's means
    depend on the frames batched with it."""
    d = x.shape[-1]
    return (x @ np.full(d, 1.0 / d, dtype=x.dtype))[..., None]


def _result(data, parents, backward) -> Tensor:
    if _tracked(*parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes.

    Adjoints: dA = dC @ B^T, dB = A^T @ dC (summed over broadcast axes). When
    B is a 2-D weight shared by every leading index of A, both adjoints are
    one GEMM over the flattened leading axes instead of one per matrix.
    """
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        flat = b.data.ndim == 2 and a.data.ndim > 2
        if a.requires_grad or a._parents:
            if flat:
                ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.data.shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            a._accumulate(ga)
        if b.requires_grad or b._parents:
            if flat:
                k = a.data.shape[-1]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            b._accumulate(gb)

    return _result(out_data, (a, b), backward)


def transpose(t: Tensor) -> Tensor:
    """Swap the last two axes."""
    out_data = np.swapaxes(t.data, -1, -2)

    def backward(g: np.ndarray) -> None:
        t._accumulate(np.swapaxes(g, -1, -2))

    return _result(out_data, (t,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad or b._parents:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad or a._parents:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad or b._parents:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward)


def neg(t: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        t._accumulate(-g)

    return _result(-t.data, (t,), backward)


def scale(t: Tensor, factor: float) -> Tensor:
    factor = float(factor)

    def backward(g: np.ndarray) -> None:
        t._accumulate(g * factor)

    return _result(t.data * factor, (t,), backward)


def concat(tensors: list[Tensor], axis: int = -2) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
            t._accumulate(g[tuple(idx)])

    return _result(out_data, tuple(tensors), backward)


def narrow(t: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    """Contiguous slice along one axis."""
    pos = axis if axis >= 0 else t.data.ndim + axis
    idx = [slice(None)] * t.data.ndim
    idx[pos] = slice(start, stop)
    idx = tuple(idx)

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(t.data)
        full[idx] = g
        t._accumulate(full)

    return _result(t.data[idx], (t,), backward)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g: np.ndarray) -> None:
        t._accumulate(g.reshape(t.data.shape))

    return _result(t.data.reshape(shape), (t,), backward)


def reduce_sum(t: Tensor) -> Tensor:
    """Sum of all entries (scalar output)."""
    def backward(g: np.ndarray) -> None:
        t._accumulate(np.broadcast_to(g, t.data.shape).astype(t.data.dtype))

    return _result(t.data.sum(), (t,), backward)


def masked_softmax(logits: Tensor, additive: np.ndarray) -> Tensor:
    """Row-wise softmax of (logits + additive) along the last axis.

    additive is an array with entries in {0, -inf}; masked positions get
    weight exactly 0 and gradient exactly 0. Raises on a fully-masked row.
    """
    w = np.add(logits.data, additive, dtype=logits.data.dtype)  # 0 and -inf cast exactly
    zmax = np.max(w, axis=-1, keepdims=True)
    if np.isneginf(zmax).any():
        raise ValueError("masked_softmax: a row is fully masked")
    w -= zmax
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * w).sum(axis=-1, keepdims=True)
        gl = g - inner
        gl *= w
        logits._accumulate(gl)

    return _result(w, (logits,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply the
    learned affine map; gain and bias are vectors of the last axis' length.

    Row means are matrix-vector products (`_row_mean`); centring, scaling and
    the backward arithmetic run in place on arrays allocated here.
    """
    d = x.data.shape[-1]
    xhat = x.data - _row_mean(x.data)
    out_data = np.square(xhat)  # the squares for the variance, then the output
    inv = 1.0 / np.sqrt(_row_mean(out_data) + eps)
    xhat *= inv
    np.multiply(gain.data, xhat, out=out_data)
    out_data += bias.data

    def backward(g: np.ndarray) -> None:
        gxh = g * xhat
        if gain.requires_grad or gain._parents:
            gain._accumulate(_unbroadcast(gxh, gain.data.shape))
        if bias.requires_grad or bias._parents:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad or x._parents:
            # row means of g*gain and g*gain*xhat, as products with gain/d
            w = gain.data / d
            m1 = (g.reshape(-1, d) @ w).reshape(inv.shape)
            m2 = (gxh.reshape(-1, d) @ w).reshape(inv.shape)
            gx = g * gain.data
            gx -= m1
            gx -= np.multiply(xhat, m2, out=gxh)
            gx *= inv
            x._accumulate(gx)

    return _result(out_data, (x, gain, bias), backward)


def gelu(t: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x). scipy's `ndtr` computes Phi in x's dtype, to
    full relative precision in the negative tail, and is the floor of the
    cost; the rest of the arithmetic runs in place on arrays allocated here.
    The constants take x's dtype, so float32 stays float32."""
    x = t.data
    cdf = ndtr(x)
    out_data = x * cdf

    def backward(g: np.ndarray) -> None:
        gx = np.square(x, dtype=cdf.dtype)
        gx *= -0.5
        np.exp(gx, out=gx)
        gx *= x.dtype.type(_INV_SQRT2PI)
        gx *= x
        gx += cdf
        gx *= g
        t._accumulate(gx)

    return _result(out_data, (t,), backward)


def softplus(t: Tensor) -> Tensor:
    """log(1 + exp(x)) with overflow-safe evaluation."""
    x = t.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g: np.ndarray) -> None:
        sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                       np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
        t._accumulate(g * sig)

    return _result(out_data, (t,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer position-wise feed-forward block: linear -> GELU -> linear."""
    return add(matmul(gelu(add(matmul(x, w1), b1)), w2), b2)
