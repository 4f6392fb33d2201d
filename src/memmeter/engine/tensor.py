"""Reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the toolkit's machines need: dense and
convolutional layers, 2x2 max pooling, pointwise activations, and scalar
reductions. Single-threaded, deterministic, no graph optimization.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """An array plus an optional gradient and the closure that fills it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def backward(self):
        """Populate grad on every tracked ancestor of a scalar output.

        Consumes the graph: every node drops its parents and its backward
        closure, which references the node itself, so no reference cycle
        is left for the cyclic GC and a second backward() reaches nothing.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()
        for node in order:
            node._parents = ()
            node._backward = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _toposort(root):
    # Iterative post-order: parents appear before their consumers.
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    # Reduce a broadcast gradient back to the parent's shape.
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    out = _node(out_data, (a, b), backward)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, _unbroadcast(-out.grad, b.data.shape))

    out = _node(out_data, (a, b), backward)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward():
        _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out = _node(out_data, (a, b), backward)
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    out_data = a.data @ b.data

    def backward():
        _accumulate(a, out.grad @ b.data.T)
        _accumulate(b, a.data.T @ out.grad)

    out = _node(out_data, (a, b), backward)
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward():
        _accumulate(x, out.grad * (x.data > 0.0))

    out = _node(out_data, (x,), backward)
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    # Stable in both tails.
    z = x.data
    out_data = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))

    def backward():
        _accumulate(x, out.grad * out_data * (1.0 - out_data))

    out = _node(out_data, (x,), backward)
    return out


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.reshape(shape)

    def backward():
        _accumulate(x, out.grad.reshape(x.data.shape))

    out = _node(out_data, (x,), backward)
    return out


def mean(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.asarray(x.data.mean())

    def backward():
        _accumulate(x, np.full_like(x.data, out.grad / x.data.size))

    out = _node(out_data, (x,), backward)
    return out


def tensor_sum(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.asarray(x.data.sum())

    def backward():
        _accumulate(x, np.full_like(x.data, out.grad))

    out = _node(out_data, (x,), backward)
    return out


def _im2col(padded, kh, kw, out_h, out_w):
    n, c, _, _ = padded.shape
    s = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s[0], s[1], s[2], s[3], s[2], s[3]),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w)


def conv2d(x, w, b, padding=1) -> Tensor:
    """Stride-1 cross-correlation of NCHW inputs with OIHW filters."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c2 != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, filters {c2}")
    out_h = h + 2 * padding - kh + 1
    out_w = wd + 2 * padding - kw + 1
    if out_h < 1 or out_w < 1:
        raise ValueError("conv2d output would be empty")
    padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.ascontiguousarray(_im2col(padded, kh, kw, out_h, out_w))
    w_mat = w.data.reshape(f, c * kh * kw)
    out_data = (np.matmul(w_mat, cols) + b.data[:, None]).reshape(n, f, out_h, out_w)

    def backward():
        g = out.grad.reshape(n, f, out_h * out_w)
        _accumulate(b, g.sum(axis=(0, 2)))
        _accumulate(w, np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        if x.requires_grad:
            dcols = np.matmul(w_mat.T, g).reshape(n, c, kh, kw, out_h, out_w)
            dpad = np.zeros_like(padded)
            for i in range(kh):
                for j in range(kw):
                    dpad[:, :, i : i + out_h, j : j + out_w] += dcols[:, :, i, j]
            if padding:
                _accumulate(x, dpad[:, :, padding:-padding, padding:-padding])
            else:
                _accumulate(x, dpad)

    out = _node(out_data, (x, w, b), backward)
    return out


def maxpool2(x) -> Tensor:
    """2x2 max pooling, stride 2; trailing odd rows/columns are dropped."""
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ValueError("maxpool2 needs at least a 2x2 input")
    trimmed = x.data[:, :, : 2 * h2, : 2 * w2]
    blocks = trimmed.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    # argmax -> first maximum wins, which keeps gradients single-routed on ties
    idx = blocks.argmax(axis=-1)
    out_data = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backward():
        dblocks = np.zeros((n, c, h2, w2, 4))
        np.put_along_axis(dblocks, idx[..., None], out.grad[..., None], axis=-1)
        dtrim = dblocks.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * h2, 2 * w2)
        if dtrim.shape == x.data.shape:
            _accumulate(x, dtrim)
        else:
            dx = np.zeros_like(x.data)
            dx[:, :, : 2 * h2, : 2 * w2] = dtrim
            _accumulate(x, dx)

    out = _node(out_data, (x,), backward)
    return out
