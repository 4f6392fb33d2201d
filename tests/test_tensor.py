"""Autodiff engine: forward values, gradient correctness, determinism."""

import numpy as np
import pytest

from memmeter.engine import tensor as T
from memmeter.engine.layers import Conv2d, MaxPool2, ReLU
from memmeter.engine.machine import build_machine
from memmeter.engine.tensor import Tensor


def finite_difference(fn, arr, index, h=1e-5):
    flat = arr.ravel()
    orig = flat[index]
    flat[index] = orig + h
    up = fn()
    flat[index] = orig - h
    down = fn()
    flat[index] = orig
    return (up - down) / (2.0 * h)


def check_gradients(fn, tensors, rng, coords_per_tensor=25, tol=1e-4):
    """Compare analytic gradients of scalar fn() against central differences."""
    loss = fn()
    loss.backward()
    for tensor in tensors:
        assert tensor.grad is not None
        for index in rng.choice(tensor.data.size, size=min(coords_per_tensor, tensor.data.size), replace=False):
            numeric = finite_difference(lambda: float(fn().data), tensor.data, index)
            analytic = tensor.grad.ravel()[index]
            assert abs(analytic - numeric) < tol * max(1.0, abs(numeric)), (
                f"grad mismatch at {index}: analytic {analytic}, numeric {numeric}"
            )


def test_backward_sum_gives_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.tensor_sum(p).backward()
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_square_at_three():
    p = Tensor(np.array([3.0]), requires_grad=True)
    T.tensor_sum(T.mul(p, p)).backward()
    assert np.allclose(p.grad, [6.0])


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.add(p, p).backward()


def test_backward_frees_the_graph_without_the_cyclic_gc():
    import gc
    import weakref

    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    hidden = T.relu(T.mul(p, p))
    # Tensor has no __weakref__ slot; its data array lives exactly as long as it.
    interior = weakref.ref(hidden.data)
    loss = T.tensor_sum(hidden)
    del hidden
    enabled = gc.isenabled()
    gc.disable()
    try:
        loss.backward()
        del loss
        assert interior() is None
    finally:
        if enabled:
            gc.enable()
    assert np.allclose(p.grad, [2.0, -4.0, 6.0])


def test_backward_drops_interior_gradients_and_leaves_keep_theirs():
    # An interior gradient may be a layer's workspace buffer, which the next step overwrites,
    # or an output's gradient that relu masked in place.
    p = Tensor(np.array([[[[1.0, -2.0], [3.0, -4.0]]]]), requires_grad=True)
    hidden = T.mul(p, p)
    pooled = T.maxpool2(hidden, {})
    loss = T.tensor_sum(T.relu(pooled))
    loss.backward()
    assert hidden.grad is None and pooled.grad is None and loss.grad is None
    assert np.array_equal(p.grad, [[[[0.0, 0.0], [0.0, -8.0]]]])


def every_node_toposort(root):
    """The engine's earlier walk: an iterative post-order over every node, leaves included."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node._parents if id(parent) not in visited)
    return order


def test_toposort_walks_the_interior_nodes_in_the_order_of_a_walk_over_every_node(cnn_spec, rng):
    machine = build_machine(cnn_spec, 4, seed=5)
    x = T.mul(Tensor(rng.random((4, 3, 12, 12)), requires_grad=True), Tensor(np.full((4, 3, 12, 12), 0.5)))
    for root in (_rotation_step_loss(machine, rng.random((4, 3, 12, 12))), T.tensor_sum(T.add(x, x))):
        order = T._toposort(root)
        assert order == [node for node in every_node_toposort(root) if node._backward is not None]
        assert order[-1] is root and len(set(order)) == len(order)
    leaf = Tensor(np.array(2.0), requires_grad=True)
    assert T._toposort(leaf) == []
    leaf.backward()
    assert leaf.grad == 1.0


def test_dropped_forward_is_freed_without_the_cyclic_gc(cnn_spec, rng):
    import gc

    # Parameters require grad, so an inference forward still builds a graph;
    # dropping its result without backward() must free all of it.
    machine = build_machine(cnn_spec, 4, seed=5)
    batch = Tensor(rng.random((4, 3, 12, 12)))
    machine.forward(batch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(5):
            machine.forward(batch)
        left = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert left == 0


def test_gradient_accumulates_over_reuse():
    p = Tensor(np.array([2.0]), requires_grad=True)
    T.tensor_sum(T.add(p, p)).backward()
    assert np.allclose(p.grad, [2.0])


def test_add_broadcast_gradients(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    check_gradients(lambda: T.mean(T.mul(T.add(a, b), T.add(a, b))), [a, b], rng)


def test_add_backward_rejects_a_broadcast_other_than_a_bias_over_the_batch():
    a = Tensor(np.ones((3, 1)), requires_grad=True)
    b = Tensor(np.ones((3, 4)), requires_grad=True)
    with pytest.raises(ValueError):
        T.tensor_sum(T.add(a, b)).backward()


def test_matmul_rejects_operands_that_are_not_2d():
    # numpy's matmul would broadcast a 1-d or 3-d operand, and the backward's .T would not match it.
    for a, b in ((np.ones(3), np.ones((3, 2))), (np.ones((2, 3)), np.ones(3)), (np.ones((2, 2, 3)), np.ones((3, 2)))):
        with pytest.raises(ValueError, match="2-d"):
            T.matmul(Tensor(a), Tensor(b))


def test_matmul_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_gradients(lambda: T.mean(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b], rng)


def test_relu_gradients(rng):
    x = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    check_gradients(lambda: T.tensor_sum(T.mul(T.relu(x), T.relu(x))), [x], rng)


def test_relu_gradients_when_its_output_has_two_consumers(rng):
    # The output's gradient is one consumer's array plus the other's term; relu masks that sum in place.
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
    v = Tensor(rng.normal(size=(7, 3)), requires_grad=True)

    def loss():
        out = T.relu(T.matmul(x, w))
        return T.add(T.tensor_sum(T.matmul(out, v)), T.mean(T.mul(out, out)))

    check_gradients(loss, [x, w, v], rng)


def test_relu_gradients_when_its_interior_input_has_two_consumers(rng):
    # Each relu masks its own output's gradient; the second adds into the array the first handed over.
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 7)), requires_grad=True)

    def loss():
        hidden = T.matmul(x, w)
        return T.add(T.tensor_sum(T.mul(T.relu(hidden), T.relu(hidden))), T.mean(T.mul(hidden, hidden)))

    check_gradients(loss, [x, w], rng)


def test_relu_hands_its_output_gradient_to_an_interior_input(monkeypatch, rng):
    accumulate = T._accumulate
    held = {}

    def watched(t, g, owned=False):
        accumulate(t, g, owned)
        held.setdefault(id(t), []).append((g, t.grad))

    monkeypatch.setattr(T, "_accumulate", watched)
    leaf = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    hidden = T.mul(leaf, Tensor(np.full((4, 6), 2.0)))
    inner, outer = T.relu(hidden), T.relu(leaf)
    column = Tensor(np.ones((6, 1)))
    T.add(T.tensor_sum(T.matmul(inner, column)), T.tensor_sum(T.matmul(outer, column))).backward()
    ((_, inner_grad),) = held[id(inner)]
    ((given, hidden_grad),) = held[id(hidden)]
    assert given is inner_grad and hidden_grad is inner_grad  # the output's own array, masked in place
    assert np.array_equal(hidden_grad, np.where(hidden.data > 0.0, 1.0, 0.0))
    ((_, outer_grad),) = held[id(outer)]
    leaf_grads = [grad for _, grad in held[id(leaf)]]
    assert all(grad is not outer_grad for grad in leaf_grads)  # a leaf keeps an array of its own
    assert np.array_equal(leaf.grad, np.where(leaf.data > 0.0, 1.0, 0.0) + 2.0 * hidden_grad)


def test_sigmoid_gradients_and_stability(rng):
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    check_gradients(lambda: T.tensor_sum(T.sigmoid(x)), [x], rng)
    extreme = T.sigmoid(Tensor(np.array([1000.0, -1000.0])))
    assert np.all(np.isfinite(extreme.data))
    assert extreme.data[0] == pytest.approx(1.0)
    assert extreme.data[1] == pytest.approx(0.0)


def test_conv2d_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.1, requires_grad=True)
    b = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
    check_gradients(lambda: T.mean(T.mul(T.conv2d(x, w, b, {}), T.conv2d(x, w, b, {}))), [x, w, b], rng)


def test_maxpool_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    check_gradients(lambda: T.tensor_sum(T.mul(T.maxpool2(x, {}), T.maxpool2(x, {}))), [x], rng)


def test_maxpool_drops_odd_edges():
    x = Tensor(np.arange(25.0).reshape(1, 1, 5, 5))
    out = T.maxpool2(x, {})
    assert out.data.shape == (1, 1, 2, 2)
    assert out.data[0, 0, 0, 0] == 6.0  # max of the top-left 2x2 block


def test_maxpool_ties_route_to_first_corner_and_odd_edges_get_no_gradient():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, :2, :2] = 1.0  # four-way tie: (0, 0) wins
    x[0, 0, :2, 2:4] = [[0.0, 2.0], [1.0, 2.0]]  # right column tie: (0, 3) wins
    x[0, 0, 2:4, :2] = [[0.0, 0.0], [3.0, 3.0]]  # bottom row tie: (3, 0) wins
    x[0, 0, 2:4, 2:4] = [[4.0, 5.0], [5.0, 5.0]]  # three-way tie: (2, 3) wins
    x[0, 0, 4, :] = x[0, 0, :, 4] = 9.0  # dropped trailing row and column
    t = Tensor(x, requires_grad=True)
    out = T.maxpool2(t, {})
    assert np.array_equal(out.data[0, 0], [[1.0, 2.0], [3.0, 5.0]])
    T.tensor_sum(out).backward()
    expected = np.zeros((5, 5))
    for i, j in [(0, 0), (0, 3), (3, 0), (2, 3)]:
        expected[i, j] = 1.0
    assert np.array_equal(t.grad[0, 0], expected)


def four_corner_maxpool_grad(x, g):
    """Reference 2x2 max pool and its x.grad: four `where` passes, one per corner in row-major order.

    max-pool hands its dx over as x's first gradient, so x.grad is dx itself, -0.0 entries included.
    """
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    corners = [(..., slice(i, 2 * h2, 2), slice(j, 2 * w2, 2)) for i in (0, 1) for j in (0, 1)]
    out = x[corners[0]]
    for corner in corners[1:]:
        out = np.maximum(out, x[corner])
    dx = np.zeros_like(x)
    for corner in corners:
        hit = x[corner] == out
        dx[corner] = np.where(hit, g, 0.0)
        g = np.where(hit, 0.0, g)
    return out, dx


def test_maxpool_backward_matches_four_corner_reference(rng):
    for trial in range(300):
        shape = (*rng.integers(1, 4, size=2), *rng.integers(2, 10, size=2))  # odd H and W included
        x = rng.integers(-2, 3, size=shape).astype(np.float64)  # integer plateaus: many ties
        x[(x == 0.0) & (rng.random(shape) < 0.5)] = -0.0  # zero plateaus of both signs
        if trial % 2:
            x = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)  # a non-contiguous view
        if trial % 3 == 0:  # a NaN inside a pooled window
            n, c, h, w = x.shape
            x[rng.integers(n), rng.integers(c), rng.integers(h - h % 2), rng.integers(w - w % 2)] = np.nan
        t = Tensor(x, requires_grad=True)
        out = T.maxpool2(t, {})
        g = rng.normal(size=out.data.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        out_expected, grad_expected = four_corner_maxpool_grad(x, g)
        assert out.data.tobytes() == out_expected.tobytes()
        out._backward(g)
        assert t.grad.tobytes() == grad_expected.tobytes(), (trial, x.shape)


def test_pool_corners_are_one_read_only_array_per_shape():
    shape = (2, 3, 5, 7)
    corners = T._pool_corners(shape)
    assert T._pool_corners(shape) is corners
    assert T._pool_corners((2, 3, 5, 6)) is not corners
    assert not corners.flags.writeable
    with pytest.raises(ValueError):
        corners[0, 0, 0, 0] = 1
    expected = [np.ravel_multi_index((n, c, 2 * i, 2 * j), shape) for n, c, i, j in np.ndindex(2, 3, 2, 3)]
    assert corners.shape == (2, 3, 2, 3) and corners.ravel().tolist() == expected


# Layers whose backward hands an interior x an array that is reused: a workspace buffer, or ReLU's output gradient.
HANDING_LAYERS = {"Conv2d": lambda rng: Conv2d(3, 4, rng), "MaxPool2": lambda rng: MaxPool2(), "ReLU": lambda rng: ReLU()}


@pytest.mark.parametrize("kind", sorted(HANDING_LAYERS))
def test_leaf_input_gradient_keeps_its_bytes_through_the_next_backward(kind, rng):
    layer = HANDING_LAYERS[kind](rng)
    tail = Conv2d(4 if kind == "Conv2d" else 3, 2, rng)  # hands the layer's output a workspace buffer
    shape = (2, 3, 6, 6)

    def step(inp):
        out = tail.forward(layer.forward(inp))
        T.mean(T.mul(out, Tensor(rng.normal(size=out.data.shape)))).backward()

    def interior():
        return T.mul(Tensor(rng.normal(size=shape), requires_grad=True), Tensor(np.full(shape, 0.5)))

    step(interior())  # fills the layer's workspace for this shape, if it has one
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    step(x)
    kept = x.grad.tobytes()
    step(interior())  # reuses the workspace, with another input and output gradient
    other = Tensor(rng.normal(size=shape), requires_grad=True)
    step(other)
    assert x.grad.tobytes() == kept
    assert other.grad.tobytes() != kept


def _zero_fill_accumulate(t, g, owned=False):
    """The engine's earlier gradient rule: every first gradient is a zero-filled buffer plus g."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


@pytest.mark.parametrize("kind", ["linear", "mlp", "small_cnn"])
def test_handed_over_gradients_train_bitwise_like_zero_filled_ones(kind, monkeypatch, rng):
    from memmeter.engine.losses import mse_loss, rotated_batch
    from memmeter.engine.optim import SGD
    from memmeter.measurer import SEEN_CLASS, UNSEEN_CLASS, rotation_loss, seen_loss
    from memmeter.engine.machine import MachineSpec
    from memmeter.predictor import PredictorModel

    spec = MachineSpec(kind=kind, in_channels=3, height=8, width=8, hidden=(8,) if kind == "mlp" else ())
    images = rng.random((16, 3, 8, 8))
    images[0] = 0.0  # an all-zero image: flat activations, and gradients of -0.0 behind them
    targets = rng.random(16)
    orders = [rng.permutation(16) for _ in range(10)]
    handed_over = T._accumulate
    signed_zero_seen = []

    def watched(t, g, owned=False):
        if owned and t.requires_grad and t.grad is None:
            signed_zero_seen.append(bool(np.signbit(g[g == 0.0]).any()))
        handed_over(t, g, owned)

    def train():
        machine = build_machine(spec, 4, seed=3)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=50)
        for step in range(50):
            rotation_loss(machine, rotated_batch(images[step % 16])).backward()
            optimizer.step()
        machine.replace_head(2, seed=4)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=20)
        for step in range(20):
            seen_loss(machine, images[step % 16], (SEEN_CLASS, UNSEEN_CLASS)[step % 2]).backward()
            optimizer.step()
        machine.replace_head(1, seed=5)
        model = PredictorModel(machine)
        optimizer = SGD(model.parameters(), lr=0.05, weight_decay=0.0, total_steps=10)
        for order in orders:
            mse_loss(model.forward_scores(images[order]), targets[order]).backward()
            optimizer.step()
        return [t.data.tobytes() for _, t in machine.parameters()]

    monkeypatch.setattr(T, "_accumulate", watched)
    new = train()
    monkeypatch.setattr(T, "_accumulate", _zero_fill_accumulate)
    assert new == train()
    if kind != "linear":  # relu hands over g * (x > 0), which is -0.0 wherever g < 0 and x <= 0
        assert any(signed_zero_seen)


def test_conv2d_matches_direct_convolution(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), {}).data
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expected = np.empty_like(out)
    for f in range(3):
        for i in range(5):
            for j in range(5):
                expected[0, f, i, j] = (padded[0, :, i : i + 3, j : j + 3] * w[f]).sum() + b[f]
    assert np.allclose(out, expected, atol=1e-12)


def padded_conv2d(x, w, b, g):
    """Reference 3x3, pad-1 conv2d and its gradients through a padded buffer: (out, dx, dw, db).

    The engine's earlier im2col/col2im: a zero-bordered (n, c, h+2, w+2) copy of x,
    every window copied out of a strided 6-d view, and the input gradient summed in a
    padded buffer, tap (0, 0) assigned and the other eight added in raster order.
    """
    n, c, h, wd = x.shape
    f = len(w)
    padded = np.zeros((n, c, h + 2, wd + 2))
    padded[:, :, 1:-1, 1:-1] = x
    s = padded.strides
    windows = np.lib.stride_tricks.as_strided(padded, (n, c, 3, 3, h, wd), (*s, s[2], s[3]), writeable=False)
    cols = np.empty((n, c * 9, h * wd))
    cols6 = cols.reshape(n, c, 3, 3, h, wd)
    np.copyto(cols6, windows)
    w_mat = w.reshape(f, c * 9)
    out = np.matmul(w_mat, cols)
    out += b[:, None]
    g = g.reshape(n, f, h * wd)
    db = g.sum(axis=(0, 2))
    dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    np.matmul(w_mat.T, g, out=cols)
    dpad = np.empty_like(padded)
    terms = [(dpad[:, :, i : i + h, j : j + wd], cols6[:, :, i, j]) for i in range(3) for j in range(3)]
    np.copyto(*terms[0])
    dpad[:, :, h:, :] = 0.0
    dpad[:, :, :h, wd:] = 0.0
    for dst, src in terms[1:]:
        dst += src
    return out.reshape(n, f, h, wd), dpad[:, :, 1:-1, 1:-1], dw, db


CONV_ORACLE_CASES = [
    (batch, channels, h, w, order, ties)
    for batch, channels in ((1, 3), (4, 3), (16, 3), (1, 16), (4, 16), (16, 16))
    for h, w in ((6, 6), (5, 7))
    for order, ties in (("C", False), ("channel-last", True))
] + [(2, 3, 4, 1, "C", True), (2, 3, 1, 4, "C", True), (3, 2, 1, 1, "channel-last", False)]


@pytest.mark.parametrize("batch,channels,h,w,order,ties", CONV_ORACLE_CASES)
@pytest.mark.parametrize("interior", [False, True], ids=["leaf", "interior"])
def test_conv2d_matches_the_padded_im2col_bit_for_bit(batch, channels, h, w, order, ties, interior, rng):
    def draw(shape):
        if not ties:
            return rng.normal(size=shape)
        a = rng.integers(-2, 3, size=shape).astype(np.float64)  # integer plateaus: many equal sums
        a[(a == 0.0) & (rng.random(shape) < 0.5)] = -0.0  # zeros of both signs
        return a

    x = draw((batch, channels, h, w))
    if order == "channel-last":  # a PPM batch's memory order
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    weight, bias = draw((4, channels, 3, 3)), draw(4)
    g = draw((batch, 4, h, w))
    if ties:
        g[:, :, : h // 2] = -0.0  # top rows whose every column-gradient product is a signed zero
    out_expected, dx_expected, dw_expected, db_expected = padded_conv2d(x, weight, bias, g)
    workspace = {}
    with T.no_graph():  # an evaluation forward makes the plan; the training forwards then reuse it
        assert T.conv2d(Tensor(x), Tensor(weight), Tensor(bias), workspace).data.tobytes() == out_expected.tobytes()
    for _ in range(2):  # the backward makes its buffers, then reuses them; an evaluation forward runs between
        leaf = Tensor(x, requires_grad=True)
        xt = T.mul(leaf, Tensor(np.ones(x.shape))) if interior else leaf
        wt, bt = Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)
        out = T.conv2d(xt, wt, bt, workspace)
        assert out.data.tobytes() == out_expected.tobytes()
        out._backward(g)
        with T.no_graph():
            assert T.conv2d(xt, wt, bt, workspace).data.tobytes() == out_expected.tobytes()
        assert wt.grad.tobytes() == dw_expected.tobytes() and bt.grad.tobytes() == db_expected.tobytes()
        if interior:  # handed over as summed: a wrapped tap's +0.0 may turn a -0.0 sum into +0.0
            assert (xt.grad + 0.0).tobytes() == (dx_expected + 0.0).tobytes()
        else:  # a leaf's first gradient is copied as g + 0.0
            assert xt.grad.tobytes() == (dx_expected + 0.0).tobytes()


def test_machine_training_is_bitwise_deterministic(mlp_spec, rng):
    from memmeter.engine.losses import softmax_cross_entropy
    from memmeter.engine.optim import SGD

    batches = [rng.normal(size=(2, 3, 6, 6)) for _ in range(10)]
    finals = []
    for _ in range(2):
        machine = build_machine(mlp_spec, 4, seed=99)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=len(batches))
        for batch in batches:
            loss = softmax_cross_entropy(machine.forward(Tensor(batch)), [0, 1])
            loss.backward()
            optimizer.step()
        finals.append([t.data.copy() for _, t in machine.parameters()])
    for left, right in zip(*finals):
        assert np.array_equal(left, right)


def test_all_values_finite_after_training_step(cnn_spec, rng):
    from memmeter.engine.losses import softmax_cross_entropy
    from memmeter.engine.optim import SGD

    machine = build_machine(cnn_spec, 4, seed=5)
    optimizer = SGD(machine.parameters(), lr=0.01, total_steps=1)
    loss = softmax_cross_entropy(machine.forward(Tensor(rng.random((4, 3, 12, 12)))), [0, 1, 2, 3])
    loss.backward()
    optimizer.step()
    assert np.isfinite(loss.data)
    for _, tensor in machine.parameters():
        assert np.isfinite(tensor.data).all()


def _rotation_step_loss(machine, batch):
    from memmeter.engine.losses import softmax_cross_entropy

    return softmax_cross_entropy(machine.forward(Tensor(batch)), [0, 1, 2, 3])


def _take_grads(machine):
    grads = []
    for _, tensor in machine.parameters():
        grads.append(tensor.grad)
        tensor.grad = None
    return grads


def test_pending_forwards_do_not_share_conv_buffers(cnn_spec, rng):
    # small_cnn holds both workspace layers, Conv2d and MaxPool2, and ReLU hands arrays between them.
    first, second = rng.random((4, 3, 12, 12)), rng.random((4, 3, 12, 12))
    shared = build_machine(cnn_spec, 4, seed=8)
    _rotation_step_loss(shared, first).backward()  # fills every workspace
    _take_grads(shared)
    loss_first = _rotation_step_loss(shared, first)
    loss_second = _rotation_step_loss(shared, second)
    loss_first.backward()
    grads_first = _take_grads(shared)
    loss_second.backward()
    grads_second = _take_grads(shared)
    for batch, grads in ((first, grads_first), (second, grads_second)):
        fresh = build_machine(cnn_spec, 4, seed=8)
        _rotation_step_loss(fresh, batch).backward()
        for got, expected in zip(grads, _take_grads(fresh)):
            assert got.tobytes() == expected.tobytes()


def test_two_forwards_summed_into_one_backward_match_fresh_machines(cnn_spec, mlp_spec, rng):
    for spec in (cnn_spec, mlp_spec):
        shape = (4, spec.in_channels, spec.height, spec.width)
        warm, first, second = (rng.random(shape) for _ in range(3))
        shared = build_machine(spec, 4, seed=8)
        _rotation_step_loss(shared, warm).backward()  # fills every workspace
        _take_grads(shared)
        T.add(_rotation_step_loss(shared, first), _rotation_step_loss(shared, second)).backward()
        fresh = build_machine(spec, 4, seed=8)
        T.add(_rotation_step_loss(fresh, first), _rotation_step_loss(fresh, second)).backward()
        for got, expected in zip(_take_grads(shared), _take_grads(fresh)):
            assert got.tobytes() == expected.tobytes()


def _plan_arrays(value):
    """Every array a workspace plan holds, in a fixed order: its buffers and the views
    over them, looking inside plan objects, tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _plan_arrays(item)]
    if value is None:
        return []
    slots = [name for cls in type(value).__mro__ for name in vars(cls).get("__slots__", ())]
    assert slots, f"not a plan: {value!r}"
    return [a for name in slots for a in _plan_arrays(getattr(value, name, None))]


def _workspace_arrays(machine):
    """Every array the machine's layer workspaces hold, by layer name and input shape."""
    arrays = {}
    for name, layer in machine.backbone:
        for shape, plan in getattr(layer, "workspace", {}).items():
            arrays[name, shape] = _plan_arrays(plan)
    return arrays


def test_training_steps_reuse_the_same_workspace_arrays(cnn_spec, rng):
    # Checked by object identity: page-fault counts depend on the allocator and the heap state.
    from memmeter.engine.losses import mse_loss, rotated_batch
    from memmeter.engine.optim import SGD
    from memmeter.measurer import rotation_loss
    from memmeter.predictor import build_predictor

    images = rng.random((16, 3, 12, 12))
    model = build_predictor(cnn_spec, seed=2)
    machine = build_machine(cnn_spec, 4, seed=3)
    steps = {
        "predictor": (model, SGD(model.parameters(), lr=0.01, weight_decay=0.0, total_steps=4),
                      lambda i: mse_loss(model.forward_scores(images[rng.permutation(16)]), rng.random(16))),
        "rotation": (machine, SGD(machine.parameters(), lr=0.01, total_steps=4),
                     lambda i: rotation_loss(machine, rotated_batch(images[i]))),
    }
    for owner, optimizer, loss in steps.values():
        loss(0).backward()  # warm-up: the first step of a shape makes its buffers
        optimizer.step()
        warm = _workspace_arrays(owner)
        assert {name for name, _ in warm} == {name for name, layer in owner.backbone if hasattr(layer, "workspace")}
        assert not any(hasattr(layer, "workspace") for _, layer in owner.backbone if isinstance(layer, ReLU))
        for (name, shape), arrays in warm.items():
            layer = dict(owner.backbone)[name]
            # conv: the flat input, its interior, the tap view, cols, its tap view, its four wrapped
            # parts and its transpose; the backward adds dflat, its tail, a (dflat, cols) slice pair per
            # kernel tap and dx, except in conv0, whose input needs no gradient. pool: the gradient
            # buffer alone.
            expected = {Conv2d: 10 if name == "conv0" else 10 + 3 + 2 * 9, MaxPool2: 1}[type(layer)]
            assert len(arrays) == expected, (name, len(arrays))
            if isinstance(layer, MaxPool2):
                assert arrays[0].shape == shape and arrays[0].dtype == np.float64, name
        for i in range(1, 4):
            loss(i).backward()
            optimizer.step()
            now = _workspace_arrays(owner)
            assert now.keys() == warm.keys()
            for key, arrays in warm.items():
                assert all(a is b for a, b in zip(now[key], arrays, strict=True)), key


def test_forward_only_pass_between_steps_leaves_training_unchanged(cnn_spec, mlp_spec, rng):
    from memmeter.engine.optim import SGD

    for spec in (cnn_spec, mlp_spec):  # conv and pool workspaces; none
        shape = (spec.in_channels, spec.height, spec.width)
        batches = [rng.random((4, *shape)) for _ in range(4)]
        probes = [rng.random((1, *shape)), rng.random((4, *shape))]
        finals = []
        for probing in (None, "graph", "evaluation"):
            machine = build_machine(spec, 4, seed=6)
            optimizer = SGD(machine.parameters(), lr=0.05, total_steps=len(batches))
            for batch in batches:
                _rotation_step_loss(machine, batch).backward()
                optimizer.step()
                for probe in probes if probing else ():
                    if probing == "graph":
                        machine.forward(Tensor(probe))  # dropped without backward()
                    else:
                        with T.no_graph():
                            machine.forward(Tensor(probe))
            finals.append([t.data.tobytes() for _, t in machine.parameters()])
        assert finals[0] == finals[1] == finals[2]


# --- evaluation passes: no_graph() ------------------------------------------------

EVAL_CASES = [(kind, batch) for kind in ("small_cnn", "mlp") for batch in (1, 4)]


def _eval_case(request, kind, batch, rng):
    """A machine of `kind`, trained one step on a batch of `batch`, and two more such batches."""
    from memmeter.engine.losses import softmax_cross_entropy
    from memmeter.engine.optim import SGD

    spec = request.getfixturevalue("cnn_spec" if kind == "small_cnn" else "mlp_spec")
    machine = build_machine(spec, 4, seed=21)
    batches = [rng.random((batch, spec.in_channels, spec.height, spec.width)) for _ in range(3)]
    labels = [i % 4 for i in range(batch)]

    def loss(m, x):
        return softmax_cross_entropy(m.forward(Tensor(x)), labels)

    loss(machine, batches[0]).backward()
    SGD(machine.parameters(), lr=0.05, total_steps=1).step()
    return spec, machine, batches[1:], loss


@pytest.mark.parametrize("kind,batch", EVAL_CASES)
def test_evaluation_forward_has_the_bytes_of_a_graph_building_one_and_no_graph(kind, batch, request, rng):
    spec, machine, (x, _), _ = _eval_case(request, kind, batch, rng)
    cold = build_machine(spec, 4, seed=21)  # no plans yet: the evaluation forward makes them
    for m in (machine, cold):
        with T.no_graph():
            evaluated = m.forward(Tensor(x))
        built = m.forward(Tensor(x))
        assert evaluated.data.tobytes() == built.data.tobytes()
        assert evaluated._backward is None and evaluated._parents == () and not evaluated.requires_grad
        assert built._backward is not None


@pytest.mark.parametrize("kind,batch", EVAL_CASES)
def test_evaluation_forwards_keep_every_workspace_array(kind, batch, request, rng):
    _, machine, (x, y), _ = _eval_case(request, kind, batch, rng)
    trained = _workspace_arrays(machine)
    if kind == "mlp":  # relu, its only op between the layers, keeps no workspace
        assert trained == {} and not any(hasattr(layer, "workspace") for _, layer in machine.backbone)
    else:
        assert trained
    for probe in (x, y, x):
        with T.no_graph():
            machine.forward(Tensor(probe))
        now = _workspace_arrays(machine)
        assert now.keys() == trained.keys()
        for key, arrays in trained.items():
            assert all(a is b for a, b in zip(now[key], arrays, strict=True)), key


@pytest.mark.parametrize("kind,batch", EVAL_CASES)
def test_evaluation_forward_while_a_training_graph_is_pending(kind, batch, request, rng):
    spec, machine, (x, probe), loss = _eval_case(request, kind, batch, rng)
    fresh = build_machine(spec, 4, seed=21)
    for (_, mine), (_, theirs) in zip(machine.parameters(), fresh.parameters()):
        np.copyto(theirs.data, mine.data)
    pending = loss(machine, x)
    with T.no_graph():
        machine.forward(Tensor(probe))  # the same shape as the pending graph's
    pending.backward()
    loss(fresh, x).backward()
    for got, expected in zip(_take_grads(machine), _take_grads(fresh)):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind,batch", EVAL_CASES)
def test_no_graph_is_restored_when_its_body_raises(kind, batch, request, rng):
    from memmeter.errors import ConfigError

    _, machine, (x, _), _ = _eval_case(request, kind, batch, rng)
    with pytest.raises(ConfigError):
        with T.no_graph():
            machine.forward(Tensor(x[:, :, 1:]))  # the wrong input shape
    assert machine.forward(Tensor(x))._backward is not None
    with T.no_graph():
        with T.no_graph():
            pass
        assert machine.forward(Tensor(x))._backward is None
    assert machine.forward(Tensor(x))._backward is not None
