"""Reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the toolkit's machines need: dense and
convolutional layers, 2x2 max pooling, pointwise activations, and scalar
reductions. Single-threaded, deterministic, no graph optimization. Ops
take Tensor operands; wrap a raw array in Tensor() first.

Invariants are checked where input enters (MachineSpec, Machine.forward's
input shape), and ops trust a valid MachineSpec: a shape that only an
internal bug could produce fails in numpy, not in a check of its own.

Backward closures take their output's gradient as an argument and never
reference their own output node, so graphs are acyclic and a forward
dropped without backward() is freed by reference counting alone.

Each gradient is written once. An op hands its input's gradient over
(`_accumulate(t, g, owned=True)`), and a first gradient is that array
itself when it is the op's to give: a new one or, for an interior input,
its layer's workspace buffer or the output's own gradient. Anything
else is copied; `_accumulate` says why parameters come out the same.

Training steps are allocation-steady. Only conv2d and maxpool2 keep a
plan per input shape, in a dict owned by their layer: the buffers of
that shape and every view over them, built when the shape is first
seen and reused by every later step; relu masks its output's gradient
in place. A forward that builds a graph takes its shape's plan out and
the backward puts it back, so a second forward while the graph is
pending gets a plan of its own.

Evaluation passes run inside `no_graph()`. There, ops attach no parents
or backward closure to their output, and a forward borrows its shape's
plan in place (storing a new one when the shape has none) rather than
taking it, so it neither builds a graph nor evicts the training plans.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

_graph = True  # False inside no_graph()


@contextmanager
def no_graph():
    """Run the enclosed forwards as evaluation passes: no graph, and plans borrowed, not taken."""
    global _graph
    outer = _graph
    _graph = False
    try:
        yield
    finally:
        _graph = outer


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

        Consumes the graph as it walks it: each interior node drops its
        parents, closure and gradient once its closure has run, as its
        consumers ran before it and nothing reads it again. A second
        backward() reaches nothing, and a caller that keeps the loss while
        it builds the next graph (a training loop's last loss) keeps that
        one node alive. The dropped gradients may be workspace buffers
        that the next step overwrites, or an output's gradient that relu
        masked in place and handed to its input; leaves keep theirs.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:  # leaves have neither parents nor a closure
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = None  # an interior gradient may be a workspace buffer
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

    `owned=True` promises that `g` is the caller's to give, so a first
    gradient takes `g` itself: a new array the caller keeps no other
    reference to or, when `t` is interior (an op's output, `_backward`
    set), its layer's workspace buffer or the op output's own gradient:
    backward() drops interior gradients before a later forward can take
    the buffer back. A leaf (a parameter, or a caller's input) keeps its
    gradient, so it never takes either.
    Any other first gradient is copied as `g + 0.0` into an array laid out
    like `t.data`, which has the bytes of a zero-filled buffer plus `g`.

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


def _plan(workspace, shape, make):
    """The plan of `shape` in a layer's `workspace`, made by `make()` when it has none.

    A forward that builds a graph takes it out, and its backward puts it back. A forward
    inside no_graph() reads it in place, and stores a new one there.
    """
    if _graph:
        plan = workspace.pop(shape, None)
        return make() if plan is None else plan
    plan = workspace.get(shape)
    if plan is None:
        plan = workspace[shape] = make()
    return plan


@lru_cache(maxsize=64)
def _pool_corners(shape):
    """Each 2x2 window's top-left corner, as a flat offset into an (n, c, h, w) input."""
    n, c, h, w = shape
    corners = np.arange(n * c).reshape(n, c, 1, 1) * (h * w) + (
        (np.arange(h // 2) * (2 * w))[:, None] + np.arange(0, 2 * (w // 2), 2)
    )
    corners.flags.writeable = False  # the cache hands the same array to every call
    return corners


class _ConvPlan:
    """conv2d's plan for an (n, c, h, w) input and a kh x kw kernel.

    For the forward: the padded input buffer, whose zero border is never
    written, and its interior; the read-only view of every filter window
    over it; the im2col buffer `cols`, with its (n, c, kh, kw, out_h, out_w)
    view and its transpose. For the backward, made by the first one: `dpad`,
    the two strips of it that the first shifted column term misses, the
    (dpad slice, column slice) pair of every shifted term, and `dx`, the
    interior of `dpad`, which is the input gradient.
    """

    __slots__ = ("padded", "interior", "windows", "cols", "cols6", "cols_t", "dpad", "strips", "terms", "dx")

    def __init__(self, shape, kh, kw):
        n, c, h, w = shape
        out_h, out_w = h - kh + 3, w - kw + 3
        self.padded = np.zeros((n, c, h + 2, w + 2))
        self.interior = self.padded[:, :, 1:-1, 1:-1]
        self.windows = _windows(self.padded, kh, kw, out_h, out_w)
        self.cols = np.empty((n, c * kh * kw, out_h * out_w))
        self.cols6 = self.cols.reshape(n, c, kh, kw, out_h, out_w)
        self.cols_t = self.cols.transpose(0, 2, 1)
        self.dpad = None

    def col2im(self):
        """Sum the column gradients in `cols` into `dpad`; returns its interior, `dx`."""
        if self.dpad is None:  # first backward for this shape
            _, _, kh, kw, out_h, out_w = self.cols6.shape
            dpad = self.dpad = np.empty_like(self.padded)
            self.strips = (dpad[:, :, out_h:, :], dpad[:, :, :out_h, out_w:])
            self.terms = [
                (dpad[:, :, i : i + out_h, j : j + out_w], self.cols6[:, :, i, j]) for i in range(kh) for j in range(kw)
            ]
            self.dx = dpad[:, :, 1:-1, 1:-1]
        # The first shifted term is assigned, not added to zeros; only the strips it misses are zeroed.
        np.copyto(*self.terms[0])
        for strip in self.strips:
            strip.fill(0.0)
        for dst, src in self.terms[1:]:
            dst += src
        return self.dx


def _node(data, parents, backward):
    out = Tensor(data)
    if _graph and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    # The machines broadcast only a bias over the batch axis; _accumulate rejects any other.
    return g if g.shape == shape else g.sum(axis=0)


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
    """max(x, 0). The backward masks g in place for an interior x; a leaf x gets a masked copy."""
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        _accumulate(x, np.multiply(g, x.data > 0.0, out=None if x._backward is None else g), owned=True)

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
    # No program path sums a tensor; the benchmark's tracer wraps every op in its TENSOR_OPS by name.
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

    `workspace` is a dict, owned by the calling layer, that keeps a
    `_ConvPlan` per input shape: the pad, im2col and input-gradient buffers
    and every view over them. A forward that builds a graph takes its
    shape's plan out and the backward puts it back, so a second forward
    while this graph is pending gets a plan of its own; one dropped without
    backward() takes the plan with it. An evaluation forward, inside
    no_graph(), uses the plan in place.

    The backward sums the input gradient in the plan's `dpad` buffer and
    hands its interior over as x.grad when x is interior; a leaf x, which
    keeps its gradient past the next backward of this shape, gets a copy.
    """
    n, c, h, wd = x.data.shape
    f, _, kh, kw = w.data.shape
    out_h, out_w = h - kh + 3, wd - kw + 3
    plan = _plan(workspace, x.data.shape, lambda: _ConvPlan(x.data.shape, kh, kw))
    np.copyto(plan.interior, x.data)
    np.copyto(plan.cols6, plan.windows)
    w_mat = w.data.reshape(f, c * kh * kw)
    out_data = np.matmul(w_mat, plan.cols)
    out_data += b.data[:, None]
    out_data = out_data.reshape(n, f, out_h, out_w)

    def backward(g):
        g = g.reshape(n, f, out_h * out_w)
        _accumulate(b, g.sum(axis=(0, 2)), owned=True)
        _accumulate(w, np.matmul(g, plan.cols_t).sum(axis=0).reshape(w.data.shape), owned=True)
        if x.requires_grad:
            # The weight gradient was the last use of cols; its buffer takes their gradient.
            np.matmul(w_mat.T, g, out=plan.cols)
            _accumulate(x, plan.col2im(), owned=x._backward is not None)  # interior x
        workspace[x.data.shape] = plan

    return _node(out_data, (x, w, b), backward)


def maxpool2(x, workspace) -> Tensor:
    """2x2 max pooling, stride 2, as the maximum of the four window corners.

    The forward takes two pairwise passes, each row's two columns and then
    each window's two rows; np.maximum keeps its first operand on ties and
    propagates NaN, so the result has the bytes of the row-major corner chain.
    Trailing odd rows/columns are dropped and get zero gradient; each output's
    gradient goes to the first corner, in row-major order, equal to the maximum,
    and a NaN window, equal to none of its corners, sends none. The backward
    turns each window's winning corner into one flat offset into x and writes
    the whole gradient with a single scatter, into a zero-filled buffer:
    for an interior x, the one that `workspace`, the layer's dict keyed by
    input shape, keeps between steps; a leaf x gets an array of its own.
    """
    n, c, h, w = x.data.shape
    h2, w2 = h // 2, w // 2
    pairs = x.data[..., : 2 * h2, : 2 * w2].reshape(n, c, 2 * h2, w2, 2)
    rows = np.maximum(pairs[..., 0], pairs[..., 1]).reshape(n, c, h2, 2, w2)
    out_data = np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])
    dx = _plan(workspace, x.data.shape, lambda: np.empty(x.data.shape))

    def backward(g):
        c0, c1, c2 = (x.data[..., i : 2 * h2 : 2, j : 2 * w2 : 2] for i, j in ((0, 0), (0, 1), (1, 0)))
        # Each window's top-left corner plus the winner's offset from it:
        # 0, 1, w or w + 1, counted in integer arithmetic from the corners before it that lose.
        past0 = c0 != out_data
        past1 = past0 & (c1 != out_data)
        offsets = past0 + (w - 1) * past1 + (past1 & (c2 != out_data))
        offsets += _pool_corners(x.data.shape)
        nan = np.isnan(out_data)
        if nan.any():  # no corner equals NaN, so the count sends a NaN window to its last corner
            g = np.where(nan, 0.0, g)
        workspace[x.data.shape] = dx
        grad = dx if x._backward is not None else np.empty(x.data.shape)
        grad.fill(0.0)  # C-contiguous, so ravel() is a view
        grad.ravel()[offsets] = g
        _accumulate(x, grad, owned=True)

    return _node(out_data, (x,), backward)
