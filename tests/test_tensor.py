"""Autodiff engine: forward values, gradient correctness, determinism."""

import numpy as np
import pytest

from memmeter.engine import Tensor, build_machine
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
    check_gradients(lambda: T.mean(T.mul(T.conv2d(x, w, b), T.conv2d(x, w, b))), [x, w, b], rng)


def test_maxpool_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    check_gradients(lambda: T.tensor_sum(T.mul(T.maxpool2(x), T.maxpool2(x))), [x], rng)


def test_maxpool_drops_odd_edges():
    x = Tensor(np.arange(25.0).reshape(1, 1, 5, 5))
    out = T.maxpool2(x)
    assert out.data.shape == (1, 1, 2, 2)
    assert out.data[0, 0, 0, 0] == 6.0  # max of the top-left 2x2 block


def test_conv2d_matches_direct_convolution(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
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
