"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly the primitives the decoder stacks need: (batched) matmul,
elementwise arithmetic with limited broadcasting, masked softmax, layer norm,
GELU, softplus, concatenation/slicing along the last axes, and full-sum
reduction. Arrays are float64 by default; float32 is accepted for training
runs. Graphs are built per forward pass; backward() walks the recorded
applications exactly once and refuses to run twice on the same record.

What a graph holds: the graph is a set of small `_Node`s, one per tracked
result and one per leaf (parameters and other requires_grad inputs). A node
holds the gradient that backward accumulates, its parent nodes, its backward
closure and a done flag, but no output array. The `Tensor` a primitive returns
holds the output array and a reference to its node. Each closure captures
only the arrays its gradients read: matmul its operands (only the one the
tracked side needs), mul its factors, gelu its input and Phi(x), softplus its
input, masked_softmax its weights on the unmasked entries only, layer_norm the
normalized input and the inverse deviations; add, scale, neg, transpose,
concat, narrow, reshape and reduce_sum keep shapes only. So an output array
dies when the caller drops its Tensor, unless a closure saved it: a matmul
output that feeds only a bias add, or a residual sum, is gone before backward
starts. Untracked results (constants in, constant out) build no node.

Gradient lifetime: backward() leaves gradients only on leaves, where they
accumulate across graphs until zero_grad(). An interior node's gradient and
closure, with the arrays the closure saved, are dropped as soon as the closure
has run, so after backward() every interior tensor has grad None, as PyTorch
does for non-leaf tensors.

A backward closure never mutates its incoming gradient or any array it did
not allocate itself; it may work in place on temporaries it allocated.
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


class _Node:
    """A leaf or one recorded application: the gradient backward accumulates,
    the parent nodes, the backward closure (None on a leaf) and whether
    backward has used it. It holds no output array."""

    __slots__ = ("grad", "parents", "backward", "done")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward
        self.done = False

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g


class Tensor:
    """A dense array plus, when it takes part in differentiation, its node."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, _node: _Node | None = None):
        if isinstance(data, Tensor):
            raise TypeError("cannot wrap a Tensor in a Tensor")
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self._node = _Node() if requires_grad else _node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is None:
            raise AttributeError("an untracked tensor has no gradient")
        self._node.grad = value

    @property
    def _backward(self):
        """The node's backward closure; None on leaves and untracked tensors."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node.backward = closure

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-accumulate gradients from this tensor.

        Every node in the recorded graph is visited exactly once, and an
        interior node's gradient and closure are freed once the closure has
        run; leaves keep their gradients. Calling backward twice on the same
        output, or through a node an earlier backward used, is an error; build
        a fresh forward pass instead.
        """
        root = self._node
        if root is None:
            raise RuntimeError("backward() on a tensor that records no computation")
        if root.done:
            raise RuntimeError("backward already ran on this computation record")
        if seed is None:
            if self.data.ndim != 0:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)

        order: list[_Node] = []
        seen: set[_Node] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p not in seen:
                    stack.append((p, False))

        root.accumulate(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(order):
            if not node.parents or node.grad is None:
                continue
            if node.done:
                raise RuntimeError("computation record node already consumed by backward")
            node.backward(node.grad)
            node.done = True
            node.grad = node.backward = None
        root.done = True

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def parameter(data, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _record(data, parents: tuple, backward) -> Tensor:
    """A primitive's result: with a node over the parents' nodes when any
    parent is tracked, and as a plain array (no node) otherwise."""
    parents = tuple(p for p in parents if p is not None)
    if not parents:
        return Tensor(data)
    return Tensor(data, _node=_Node(parents, backward))


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes.

    Adjoints: dA = dC @ B^T, dB = A^T @ dC (summed over broadcast axes). When
    B is a 2-D weight shared by every leading index of A, both adjoints are
    one GEMM over the flattened leading axes instead of one per matrix.
    """
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    na, nb = a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if nb is not None else None  # dB reads A
    b_data = b.data if na is not None else None  # dA reads B
    flat = len(b_shape) == 2 and len(a_shape) > 2

    def backward(g: np.ndarray) -> None:
        if na is not None:
            if flat:
                ga = (g.reshape(-1, g.shape[-1]) @ b_data.T).reshape(a_shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape)
            na.accumulate(ga)
        if nb is not None:
            if flat:
                gb = a_data.reshape(-1, a_shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape)
            nb.accumulate(gb)

    return _record(out_data, (na, nb), backward)


def transpose(t: Tensor) -> Tensor:
    """Swap the last two axes."""
    out_data = np.swapaxes(t.data, -1, -2)
    node = t._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(np.swapaxes(g, -1, -2))

    return _record(out_data, (node,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    na, nb = a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(_unbroadcast(g, a_shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g, b_shape))

    return _record(out_data, (na, nb), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    na, nb = a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape
    a_data = a.data if nb is not None else None  # dB reads A
    b_data = b.data if na is not None else None  # dA reads B

    def backward(g: np.ndarray) -> None:
        if na is not None:
            na.accumulate(_unbroadcast(g * b_data, a_shape))
        if nb is not None:
            nb.accumulate(_unbroadcast(g * a_data, b_shape))

    return _record(out_data, (na, nb), backward)


def neg(t: Tensor) -> Tensor:
    node = t._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(-g)

    return _record(-t.data, (node,), backward)


def scale(t: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    node = t._node

    def backward(g: np.ndarray) -> None:
        node.accumulate(g * factor)

    return _record(t.data * factor, (node,), backward)


def concat(tensors: list[Tensor], axis: int = -2) -> Tensor:
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]
    pos = axis if axis >= 0 else out_data.ndim + axis
    offsets = np.cumsum([0] + [t.data.shape[pos] for t in tensors])

    def backward(g: np.ndarray) -> None:
        for node, start, stop in zip(nodes, offsets[:-1], offsets[1:]):
            if node is not None:
                idx = [slice(None)] * g.ndim
                idx[pos] = slice(start, stop)
                node.accumulate(g[tuple(idx)])

    return _record(out_data, tuple(nodes), backward)


def narrow(t: Tensor, start: int, stop: int, axis: int = -1) -> Tensor:
    """Contiguous slice along one axis."""
    pos = axis if axis >= 0 else t.data.ndim + axis
    idx = [slice(None)] * t.data.ndim
    idx[pos] = slice(start, stop)
    idx = tuple(idx)
    node = t._node
    shape, dtype = t.data.shape, t.data.dtype

    def backward(g: np.ndarray) -> None:
        full = np.zeros(shape, dtype=dtype)
        full[idx] = g
        node.accumulate(full)

    return _record(t.data[idx], (node,), backward)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    node = t._node
    in_shape = t.data.shape

    def backward(g: np.ndarray) -> None:
        node.accumulate(g.reshape(in_shape))

    return _record(t.data.reshape(shape), (node,), backward)


def reduce_sum(t: Tensor) -> Tensor:
    """Sum of all entries (scalar output)."""
    node = t._node
    shape, dtype = t.data.shape, t.data.dtype

    def backward(g: np.ndarray) -> None:
        node.accumulate(np.broadcast_to(g, shape).astype(dtype))

    return _record(t.data.sum(), (node,), backward)


def masked_softmax(logits: Tensor, additive: np.ndarray) -> Tensor:
    """Row-wise softmax of (logits + additive) along the last axis.

    additive (0 or -inf) broadcasts to the logits' last two axes; masked
    positions get weight and gradient exactly 0. Raises on a fully-masked row.
    Only unmasked entries are exponentiated: exp is several times slower on -inf.
    """
    shape = logits.data.shape
    r, c = shape[-2:]
    keep = np.broadcast_to(additive == 0, (r, c))
    edges, counts = np.flatnonzero(keep), np.count_nonzero(keep, axis=1)
    if not counts.all():
        raise ValueError("masked_softmax: a row is fully masked")
    starts = np.cumsum(counts) - counts

    def segments(values: np.ndarray, reduce) -> np.ndarray:  # repeated over each segment
        return np.repeat(reduce.reduceat(values, starts, axis=1), counts, axis=1)

    def scattered(values: np.ndarray) -> np.ndarray:
        full = np.zeros((len(values), r * c), dtype=values.dtype)
        full[:, edges] = values
        return full.reshape(shape)

    w = np.take(logits.data.reshape(-1, r * c), edges, axis=1)  # C order, unlike [:, edges]
    w -= segments(w, np.maximum)
    np.exp(w, out=w)
    w /= segments(w, np.add)
    node = logits._node

    def backward(g: np.ndarray) -> None:
        gl = np.take(g.reshape(-1, r * c), edges, axis=1)
        gl -= segments(gl * w, np.add)
        gl *= w
        node.accumulate(scattered(gl))

    return _record(scattered(w), (node,), backward)


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
    nx, ngain, nbias = x._node, gain._node, bias._node
    gain_data = gain.data
    gain_shape, bias_shape = gain.data.shape, bias.data.shape

    def backward(g: np.ndarray) -> None:
        gxh = g * xhat
        if ngain is not None:
            ngain.accumulate(_unbroadcast(gxh, gain_shape))
        if nbias is not None:
            nbias.accumulate(_unbroadcast(g, bias_shape))
        if nx is not None:
            # row means of g*gain and g*gain*xhat, as products with gain/d
            w = gain_data / d
            m1 = (g.reshape(-1, d) @ w).reshape(inv.shape)
            m2 = (gxh.reshape(-1, d) @ w).reshape(inv.shape)
            gx = g * gain_data
            gx -= m1
            gx -= np.multiply(xhat, m2, out=gxh)
            gx *= inv
            nx.accumulate(gx)

    return _record(out_data, (nx, ngain, nbias), backward)


def gelu(t: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x). scipy's `ndtr` computes Phi in x's dtype, to
    full relative precision in the negative tail, and is the floor of the
    cost; the rest of the arithmetic runs in place on arrays allocated here.
    The constants take x's dtype, so float32 stays float32."""
    x = t.data
    cdf = ndtr(x)
    out_data = x * cdf
    node = t._node

    def backward(g: np.ndarray) -> None:
        gx = np.square(x, dtype=cdf.dtype)
        gx *= -0.5
        np.exp(gx, out=gx)
        gx *= x.dtype.type(_INV_SQRT2PI)
        gx *= x
        gx += cdf
        gx *= g
        node.accumulate(gx)

    return _record(out_data, (node,), backward)


def softplus(t: Tensor) -> Tensor:
    """log(1 + exp(x)) with overflow-safe evaluation."""
    x = t.data
    out_data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    node = t._node

    def backward(g: np.ndarray) -> None:
        sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                       np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
        node.accumulate(g * sig)

    return _record(out_data, (node,), backward)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two-layer position-wise feed-forward block: linear -> GELU -> linear."""
    return add(matmul(gelu(add(matmul(x, w1), b1)), w2), b2)
