"""SGD update rule and the cosine learning-rate schedule."""

import numpy as np
import pytest

from memmeter.engine import SGD, Tensor, cosine_lr


def make_param(value):
    return Tensor(np.array([value]), requires_grad=True)


def test_plain_sgd_step():
    p = make_param(0.0)
    opt = SGD([("p", p)], lr=0.1, momentum=0.0, weight_decay=0.0, total_steps=10)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.1)
    assert p.grad is None  # gradients cleared after the step


def test_weight_decay_only():
    p = make_param(1.0)
    opt = SGD([("p", p)], lr=1.0, momentum=0.0, weight_decay=1e-4, total_steps=10)
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] == pytest.approx(0.9999)


def test_two_momentum_steps_match_closed_form():
    p = make_param(0.0)
    lr = 0.1
    g1, g2 = 1.0, 0.5
    opt = SGD([("p", p)], lr=lr, momentum=0.9, weight_decay=0.0, total_steps=1000)
    p.grad = np.array([g1])
    opt.step()
    p.grad = np.array([g2])
    opt.step()
    lr0 = cosine_lr(lr, 0, 1000)
    lr1 = cosine_lr(lr, 1, 1000)
    v1 = g1
    v2 = 0.9 * g1 + g2
    assert p.data[0] == pytest.approx(-(lr0 * v1 + lr1 * v2), abs=1e-15)


def test_missing_gradient_is_a_usage_error():
    p = make_param(0.0)
    opt = SGD([("p", p)], lr=0.1, total_steps=1)
    with pytest.raises(ValueError, match="no gradient"):
        opt.step()


def test_momentum_and_decay_ranges_are_validated():
    p = make_param(0.0)
    with pytest.raises(ValueError, match="momentum"):
        SGD([("p", p)], lr=0.1, momentum=1.0, total_steps=1)
    with pytest.raises(ValueError, match="nonnegative"):
        SGD([("p", p)], lr=0.1, weight_decay=-0.1, total_steps=1)


def test_velocity_buffers_match_parameter_shapes():
    params = [("a", Tensor(np.zeros((2, 3)), requires_grad=True)), ("b", Tensor(np.zeros(4), requires_grad=True))]
    opt = SGD(params, lr=0.1, total_steps=1)
    for (_, tensor), velocity in zip(params, opt.velocity):
        assert velocity.shape == tensor.data.shape


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0.01, 0, 100) == pytest.approx(0.01)
    assert cosine_lr(0.01, 100, 100) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(0.01, 50, 100) == pytest.approx(0.005)


def test_cosine_is_monotonically_non_increasing():
    values = [cosine_lr(0.01, step, 137) for step in range(138)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        cosine_lr(0.01, 11, 10)
    with pytest.raises(ValueError):
        cosine_lr(0.01, 0, 0)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_step_is_bitwise_equal_to_the_temporaries_formula(weight_decay):
    rng = np.random.default_rng(7)
    start = rng.normal(size=(3, 5))
    grads = rng.normal(size=(20, 3, 5))
    p = Tensor(start.copy(), requires_grad=True)
    opt = SGD([("p", p)], lr=0.05, momentum=0.9, weight_decay=weight_decay, total_steps=20)
    data, vel = start.copy(), np.zeros_like(start)
    for step, grad in enumerate(grads):
        p.grad = grad.copy()
        opt.step()
        lr = cosine_lr(0.05, step, 20)
        vel *= 0.9
        vel += grad
        if weight_decay:
            vel += weight_decay * data
        data -= lr * vel
        assert np.array_equal(p.data, data)
