"""Reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the toolkit's machines need: dense and
convolutional layers, 2x2 max pooling, pointwise activations, and scalar
reductions. Single-threaded, deterministic, no graph optimization. Ops
take Tensor operands; wrap a raw array in Tensor() first.

Backward closures take their output's gradient as an argument and never
reference their own output node, so graphs are acyclic and a forward
dropped without backward() is freed by reference counting alone.
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

    def backward(self):
        """Populate grad on every tracked ancestor of a scalar output.

        Consumes the graph: every node drops its parents and its backward
        closure, so a second backward() reaches nothing, and a caller that
        keeps the loss while it builds the next graph (a training loop's
        last loss) keeps that one node alive rather than the whole graph.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
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
    out_data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    out_data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def relu(x) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        _accumulate(x, g * (x.data > 0.0))

    return _node(out_data, (x,), backward)


def sigmoid(x) -> Tensor:
    # Stable in both tails.
    z = x.data
    e = np.exp(-np.abs(z))
    out_data = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), backward)


def reshape(x, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(out_data, (x,), backward)


def mean(x) -> Tensor:
    out_data = np.asarray(x.data.mean())

    def backward(g):
        _accumulate(x, np.full_like(x.data, g / x.data.size))

    return _node(out_data, (x,), backward)


def tensor_sum(x) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def backward(g):
        _accumulate(x, np.full_like(x.data, g))

    return _node(out_data, (x,), backward)


def _windows(padded, kh, kw, out_h, out_w):
    # Read-only (n, c, kh, kw, out_h, out_w) view of every filter window.
    n, c, _, _ = padded.shape
    s = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s[0], s[1], s[2], s[3], s[2], s[3]),
        writeable=False,
    )


def conv2d(x, w, b, workspace) -> Tensor:
    """Stride-1 cross-correlation of NCHW inputs, zero-padded by one pixel, with OIHW filters.

    `workspace` is a dict, owned by the calling layer, that keeps the pad,
    im2col and input-gradient buffers between steps, keyed by input shape.
    The forward takes the buffers out and the backward puts them back when
    it is done, so a second forward while this graph is pending gets
    buffers of its own. A forward dropped without backward() (an evaluation
    pass) takes its shape's buffers with it, and the next forward of that
    shape allocates them again.
    """
    n, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c2 != c:
        raise ValueError(f"conv2d channel mismatch: input {c}, filters {c2}")
    out_h, out_w = h - kh + 3, wd - kw + 3
    if out_h < 1 or out_w < 1:
        raise ValueError("conv2d output would be empty")
    buffers = workspace.pop(x.data.shape, None)
    if buffers is None:  # (pad, cols, dpad); the pad's zero border is never written
        buffers = (np.zeros((n, c, h + 2, wd + 2)), np.empty((n, c * kh * kw, out_h * out_w)), None)
    padded, cols, dpad = buffers
    padded[:, :, 1:-1, 1:-1] = x.data
    np.copyto(cols.reshape(n, c, kh, kw, out_h, out_w), _windows(padded, kh, kw, out_h, out_w))
    w_mat = w.data.reshape(f, c * kh * kw)
    out_data = np.matmul(w_mat, cols)
    out_data += b.data[:, None]
    out_data = out_data.reshape(n, f, out_h, out_w)

    def backward(g):
        nonlocal dpad
        g = g.reshape(n, f, out_h * out_w)
        _accumulate(b, g.sum(axis=(0, 2)))
        _accumulate(w, np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape))
        if x.requires_grad:
            # The weight gradient was the last use of cols; its buffer takes their gradient.
            dcols = np.matmul(w_mat.T, g, out=cols).reshape(n, c, kh, kw, out_h, out_w)
            if dpad is None:  # first backward for this shape
                dpad = np.zeros_like(padded)
            else:
                dpad.fill(0.0)
            for i in range(kh):
                for j in range(kw):
                    dpad[:, :, i : i + out_h, j : j + out_w] += dcols[:, :, i, j]
            _accumulate(x, dpad[:, :, 1:-1, 1:-1])
        workspace[x.data.shape] = (padded, cols, dpad)

    return _node(out_data, (x, w, b), backward)


def maxpool2(x) -> Tensor:
    """2x2 max pooling, stride 2, as the maximum of the four window corners.

    Trailing odd rows/columns are dropped and get zero gradient; each output's
    gradient goes to the first corner, in row-major order, equal to the maximum,
    and a NaN window, equal to none of its corners, sends none. The backward
    turns each window's winning corner into one flat offset into x and writes
    the whole gradient with a single scatter.
    """
    n, c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    if h2 < 1 or w2 < 1:
        raise ValueError("maxpool2 needs at least a 2x2 input")
    corners = [(..., slice(i, 2 * h2, 2), slice(j, 2 * w2, 2)) for i in (0, 1) for j in (0, 1)]
    out_data = x.data[corners[0]]
    for corner in corners[1:]:
        out_data = np.maximum(out_data, x.data[corner])

    def backward(g):
        c0, c1, c2 = (x.data[corner] for corner in corners[:3])
        # The winner's offset from its window's top-left corner, plus that corner's offset in x.
        offsets = np.where(c0 == out_data, 0, np.where(c1 == out_data, 1, np.where(c2 == out_data, w, w + 1)))
        offsets += (
            np.arange(n * c).reshape(n, c, 1, 1) * (h * w) + (np.arange(h2) * (2 * w))[:, None] + np.arange(0, 2 * w2, 2)
        )
        nan = np.isnan(out_data)
        if nan.any():  # the chain above sends a NaN window to its last corner
            g = np.where(nan, 0.0, g)
        dx = np.zeros(x.data.shape)  # C-contiguous, so ravel() is a view
        dx.ravel()[offsets] = g
        _accumulate(x, dx)

    return _node(out_data, (x,), backward)
