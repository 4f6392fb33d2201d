"""Reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the toolkit's machines need: dense and
convolutional layers, 2x2 max pooling, pointwise activations, and scalar
reductions. Single-threaded, deterministic, no graph optimization. Ops
take Tensor operands; wrap a raw array in Tensor() first.

Backward closures take their output's gradient as an argument and never
reference their own output node, so graphs are acyclic and a forward
dropped without backward() is freed by reference counting alone.

Each gradient is written once. An op that makes its input's gradient as a
new array, and keeps no other reference to it, hands the array over
(`_accumulate(t, g, owned=True)`) and a first gradient is that array
itself; a view of another array (the consumer's gradient, a workspace
buffer) is copied. `_accumulate` says why parameters come out the same.
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


def _accumulate(t, g, owned=False):
    """Add the gradient `g`, shaped like `t`, into `t.grad`.

    `owned=True` promises that the caller made `g` in this call and keeps
    no other reference to it, so a first gradient takes `g` itself. Any
    other first gradient is copied as `g + 0.0` into an array laid out like
    `t.data`, which has the bytes of a zero-filled buffer plus `g`.

    The two differ only in the sign of zero: the copy turns -0.0 into
    +0.0, a handed-over array keeps it. Backward ops multiply, add, sum and
    scatter gradients, and none of these lets a zero's sign change a
    nonzero result. Nor does it reach a parameter: SGD's
    `v <- momentum*v + grad (+ weight_decay*param)` gets the same nonzero
    values, and `param -= lr*v` subtracts a zero of either sign from a
    parameter without changing it unless the parameter is -0.0. None is:
    parameters start nonzero or +0.0 (He-uniform draws, zero biases), and
    `x - y` is -0.0 only for x = -0.0.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned:
        t.grad = g
    else:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))


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
        _accumulate(a, g @ b.data.T, owned=True)
        _accumulate(b, a.data.T @ g, owned=True)

    return _node(out_data, (a, b), backward)


def relu(x) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        _accumulate(x, g * (x.data > 0.0), owned=True)

    return _node(out_data, (x,), backward)


def sigmoid(x) -> Tensor:
    # Stable in both tails.
    z = x.data
    e = np.exp(-np.abs(z))
    out_data = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(x, g * out_data * (1.0 - out_data), owned=True)

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

    The backward sums the input gradient in the `dpad` buffer, which the
    next backward of this shape overwrites, so x.grad is copied out of it.
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
        _accumulate(b, g.sum(axis=(0, 2)), owned=True)
        _accumulate(w, np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.data.shape), owned=True)
        if x.requires_grad:
            # The weight gradient was the last use of cols; its buffer takes their gradient.
            dcols = np.matmul(w_mat.T, g, out=cols).reshape(n, c, kh, kw, out_h, out_w)
            if dpad is None:  # first backward for this shape
                dpad = np.empty_like(padded)
            # The first shifted term is assigned, not added to zeros; only the strips it misses are zeroed.
            dpad[:, :, :out_h, :out_w] = dcols[:, :, 0, 0]
            dpad[:, :, out_h:, :] = 0.0
            dpad[:, :, :out_h, out_w:] = 0.0
            for i in range(kh):
                for j in range(kw):
                    if i or j:
                        dpad[:, :, i : i + out_h, j : j + out_w] += dcols[:, :, i, j]
            _accumulate(x, dpad[:, :, 1:-1, 1:-1])
        workspace[x.data.shape] = (padded, cols, dpad)

    return _node(out_data, (x, w, b), backward)


def maxpool2(x) -> Tensor:
    """2x2 max pooling, stride 2, as the maximum of the four window corners.

    The forward takes two pairwise passes, each row's two columns and then
    each window's two rows; np.maximum keeps its first operand on ties and
    propagates NaN, so the result has the bytes of the row-major corner chain.
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
    pairs = x.data[..., : 2 * h2, : 2 * w2].reshape(n, c, 2 * h2, w2, 2)
    rows = np.maximum(pairs[..., 0], pairs[..., 1]).reshape(n, c, h2, 2, w2)
    out_data = np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])

    def backward(g):
        c0, c1, c2 = (x.data[..., i : 2 * h2 : 2, j : 2 * w2 : 2] for i, j in ((0, 0), (0, 1), (1, 0)))
        # Each window's top-left corner as a flat offset into x, plus the winner's offset from it:
        # 0, 1, w or w + 1, counted in integer arithmetic from the corners before it that lose.
        offsets = np.arange(n * c).reshape(n, c, 1, 1) * (h * w) + (
            (np.arange(h2) * (2 * w))[:, None] + np.arange(0, 2 * w2, 2)
        )
        past0 = c0 != out_data
        past1 = past0 & (c1 != out_data)
        offsets += past0 + (w - 1) * past1 + (past1 & (c2 != out_data))
        nan = np.isnan(out_data)
        if nan.any():  # no corner equals NaN, so the count sends a NaN window to its last corner
            g = np.where(nan, 0.0, g)
        dx = np.zeros(x.data.shape)  # C-contiguous, so ravel() is a view
        dx.ravel()[offsets] = g
        _accumulate(x, dx, owned=True)

    return _node(out_data, (x,), backward)
