"""Autodiff engine: forward values, gradient correctness, determinism."""

import numpy as np
import pytest

from memmeter.engine import Conv2d, Tensor, build_machine
from memmeter.engine import tensor as T


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


def test_matmul_gradients(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_gradients(lambda: T.mean(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b], rng)


def test_relu_gradients(rng):
    x = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
    check_gradients(lambda: T.tensor_sum(T.mul(T.relu(x), T.relu(x))), [x], rng)


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
    check_gradients(lambda: T.tensor_sum(T.mul(T.maxpool2(x), T.maxpool2(x))), [x], rng)


def test_maxpool_drops_odd_edges():
    x = Tensor(np.arange(25.0).reshape(1, 1, 5, 5))
    out = T.maxpool2(x)
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
    out = T.maxpool2(t)
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
        out = T.maxpool2(t)
        g = rng.normal(size=out.data.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        out_expected, grad_expected = four_corner_maxpool_grad(x, g)
        assert out.data.tobytes() == out_expected.tobytes()
        out._backward(g)
        assert t.grad.tobytes() == grad_expected.tobytes(), (trial, x.shape)


def test_conv_input_gradient_keeps_its_bytes_through_the_next_backward(rng):
    layer = Conv2d(3, 4, rng)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    T.mean(T.mul(layer.forward(x), Tensor(rng.normal(size=(2, 4, 6, 6))))).backward()
    kept = x.grad.tobytes()
    other = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    # Reuses the layer's workspace for this shape, with another output gradient.
    T.mean(T.mul(layer.forward(other), Tensor(rng.normal(size=(2, 4, 6, 6))))).backward()
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
    from memmeter.data import ImageTensor
    from memmeter.engine import SGD, mse_loss, rotation_loss, seen_loss
    from memmeter.engine.losses import rotated_batch
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
            rotation_loss(machine, rotated_batch(ImageTensor(str(step), images[step % 16]))).backward()
            optimizer.step()
        machine.replace_head(2, seed=4)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=20)
        for step in range(20):
            seen_loss(machine, ImageTensor(str(step), images[step % 16]), ("seen", "unseen")[step % 2]).backward()
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


def test_machine_training_is_bitwise_deterministic(mlp_spec, rng):
    from memmeter.engine import SGD
    from memmeter.engine.losses import softmax_cross_entropy, one_hot

    batches = [rng.normal(size=(2, 3, 6, 6)) for _ in range(10)]
    finals = []
    for _ in range(2):
        machine = build_machine(mlp_spec, 4, seed=99)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=len(batches))
        for batch in batches:
            loss = softmax_cross_entropy(machine.forward(Tensor(batch)), one_hot([0, 1], 4))
            loss.backward()
            optimizer.step()
        finals.append([t.data.copy() for _, t in machine.parameters()])
    for left, right in zip(*finals):
        assert np.array_equal(left, right)


def test_all_values_finite_after_training_step(cnn_spec, rng):
    from memmeter.engine import SGD
    from memmeter.engine.losses import softmax_cross_entropy, one_hot

    machine = build_machine(cnn_spec, 4, seed=5)
    optimizer = SGD(machine.parameters(), lr=0.01, total_steps=1)
    loss = softmax_cross_entropy(machine.forward(Tensor(rng.random((4, 3, 12, 12)))), one_hot([0, 1, 2, 3], 4))
    loss.backward()
    optimizer.step()
    assert np.isfinite(loss.data)
    for _, tensor in machine.parameters():
        assert np.isfinite(tensor.data).all()


def _rotation_step_loss(machine, batch):
    from memmeter.engine.losses import one_hot, softmax_cross_entropy

    return softmax_cross_entropy(machine.forward(Tensor(batch)), one_hot([0, 1, 2, 3], 4))


def _take_grads(machine):
    grads = []
    for _, tensor in machine.parameters():
        grads.append(tensor.grad)
        tensor.grad = None
    return grads


def test_pending_forwards_do_not_share_conv_buffers(cnn_spec, rng):
    first, second = rng.random((4, 3, 12, 12)), rng.random((4, 3, 12, 12))
    shared = build_machine(cnn_spec, 4, seed=8)
    _rotation_step_loss(shared, first).backward()  # fills the conv workspaces
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
            assert np.array_equal(got, expected)


def test_forward_only_pass_between_steps_leaves_training_unchanged(cnn_spec, rng):
    from memmeter.engine import SGD

    batches = [rng.random((4, 3, 12, 12)) for _ in range(4)]
    probes = [rng.random((1, 3, 12, 12)), rng.random((4, 3, 12, 12))]
    finals = []
    for probing in (False, True):
        machine = build_machine(cnn_spec, 4, seed=6)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=len(batches))
        for batch in batches:
            _rotation_step_loss(machine, batch).backward()
            optimizer.step()
            if probing:
                for probe in probes:
                    machine.forward(Tensor(probe))  # dropped without backward()
        finals.append([t.data.copy() for _, t in machine.parameters()])
    for plain, probed in zip(*finals):
        assert np.array_equal(plain, probed)
