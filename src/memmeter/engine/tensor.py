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
from numpy.lib.stride_tricks import as_strided

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
        for node in reversed(order):  # interior nodes only: leaves have neither parents nor a closure
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None  # an interior gradient may be a workspace buffer
            node._parents = ()
            node._backward = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _toposort(root):
    # Iterative post-order over interior nodes (`_backward` set): parents appear before their consumers.
    order = []
    visited = set()
    stack = [(root, False)] if root._backward is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and parent not in visited:
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
    """conv2d's plan for an (n, c, h, w) input and a 3x3 kernel, zero-padded by one pixel.

    The input is one flat buffer: the rows of all n*c planes back to back, between
    w + 1 zeros at each end. Tap (i, j) of plane k's output pixel p = y*w + x, input
    pixel (y + i - 1, x + j - 1), sits at k*h*w + i*w + j + p, so a tap is one slice.
    A tap that falls off its plane reads the next pixel over: j = 0 in an output's
    first column, j = 2 in its last, i = 0 in its first row and i = 2 in its last;
    these four `wrapped` parts of `cols` are zeroed after each copy into it, so the
    columns are a zero-padded input's. Forward: `flat`, its (n, c, h, w) `interior`,
    the read-only view `taps` over it, and `cols` with its tap view, wrapped parts
    and transpose. Backward, made by the first one: `dflat`, its `tail` past tap
    (0, 0), a (dflat, cols) tap pair each, and `dx`, dflat's C-contiguous interior.
    """

    __slots__ = ("flat", "interior", "taps", "cols", "cols5", "wrapped", "cols_t", "dflat", "tail", "terms", "dx")

    def __init__(self, shape):
        n, c, h, w = shape
        self.flat = np.zeros(n * c * h * w + 2 * w + 2)
        self.interior = self.flat[w + 1 : -w - 1].reshape(shape)
        s0, s1, sh, s = self.interior.strides
        self.taps = as_strided(self.flat, (n, c, 3, 3, h * w), (s0, s1, sh, s, s), writeable=False)
        self.cols = np.empty((n, c * 9, h * w))
        self.cols5 = self.cols.reshape(n, c, 3, 3, h * w)
        cols6 = self.cols.reshape(n, c, 3, 3, h, w)
        self.wrapped = (cols6[:, :, :, 0, :, 0], cols6[:, :, :, 2, :, -1], cols6[:, :, 0, :, 0], cols6[:, :, 2, :, -1])
        self.cols_t = self.cols.transpose(0, 2, 1)
        self.dflat = None

    def im2col(self, x):
        """Copy the input `x` into `flat` and every tap of it into `cols`."""
        np.copyto(self.interior, x)
        np.copyto(self.cols5, self.taps)
        for part in self.wrapped:
            part.fill(0.0)

    def col2im(self):
        """Sum the column gradients in `cols` into `dflat`, tap by tap in raster order; returns `dx`."""
        if self.dflat is None:  # first backward for this shape
            dflat = self.dflat = np.empty_like(self.flat)
            self.tail = dflat[self.interior.size :]
            dtaps = as_strided(dflat, self.taps.shape, self.taps.strides)  # each tap is written on its own
            self.terms = [(dtaps[:, :, i, j], self.cols5[:, :, i, j]) for i in range(3) for j in range(3)]
            w = self.interior.shape[3]
            self.dx = dflat[w + 1 : -w - 1].reshape(self.interior.shape)
        for part in self.wrapped:  # where a wrapped part's gradient lands it adds +0.0
            part.fill(0.0)
        np.copyto(*self.terms[0])  # tap (0, 0) is assigned, not added to zeros; only the tail it misses is zeroed
        self.tail.fill(0.0)
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
        # With one row of `a` (a batch-1 step) each entry is a single rounded product,
        # and `@` takes numpy's own outer-product loop, about 5x slower than np.dot's
        # BLAS call at 2048x64. At four rows (a rotation step) `@` is the faster.
        _accumulate(b, np.dot(a.data.T, g) if len(a.data) == 1 else a.data.T @ g, owned=True)

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


def conv2d(x, w, b, workspace) -> Tensor:
    """Stride-1 cross-correlation of NCHW inputs, zero-padded by one pixel, with 3x3 OIHW filters.

    `workspace` is a dict, owned by the calling layer, that keeps a
    `_ConvPlan` per input shape: the flat input, im2col and input-gradient
    buffers and every view over them. A forward that builds a graph takes its
    shape's plan out and the backward puts it back, so a second forward
    while this graph is pending gets a plan of its own; one dropped without
    backward() takes the plan with it. An evaluation forward, inside
    no_graph(), uses the plan in place.

    The backward sums the input gradient in the plan's `dflat` buffer and
    hands its `dx` view over as x.grad when x is interior; a leaf x, which
    keeps its gradient past the next backward of this shape, gets a copy.
    """
    n, c, h, wd = x.data.shape
    f = len(w.data)
    plan = _plan(workspace, x.data.shape, lambda: _ConvPlan(x.data.shape))
    plan.im2col(x.data)
    w_mat = w.data.reshape(f, c * 9)
    out_data = np.matmul(w_mat, plan.cols)
    out_data += b.data[:, None]
    out_data = out_data.reshape(n, f, h, wd)

    def backward(g):
        g = g.reshape(n, f, h * wd)
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
