"""Loss functions: exact values, stabilization, and decomposition oracles."""

import math

import numpy as np
import pytest

from memmeter.engine import tensor as T
from memmeter.engine.losses import mse_loss, rotated_batch, softmax_cross_entropy
from memmeter.engine.machine import build_machine
from memmeter.engine.tensor import Tensor
from memmeter.measurer import SEEN_CLASS, UNSEEN_CLASS, rotation_loss, seen_loss

from synth import random_image


def naive_cross_entropy(logits, labels):
    """Straight softmax-then-log oracle in extended precision."""
    z = np.asarray(logits, dtype=np.longdouble)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return float(-np.log(probs[np.arange(len(z)), labels]).mean())


def one_hot_cross_entropy(logits, labels, g):
    """Loss and logits gradient (for upstream gradient g) by the one-hot target formula,
    the reference that softmax_cross_entropy's label indexing must match byte for byte."""
    targets = np.eye(logits.shape[1])[labels]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    sumexp = expz.sum(axis=1, keepdims=True)
    loss = -(targets * (shifted - np.log(sumexp))).sum(axis=1).mean()
    return np.asarray(loss), g * (expz / sumexp - targets) / len(logits)


@pytest.mark.parametrize("logits_kind", ["normal", "plus_minus_1000"])
@pytest.mark.parametrize("rows,width", [(1, 2), (1, 4), (4, 2), (4, 4)])
@pytest.mark.parametrize("upstream", [1.0, 0.3])
def test_cross_entropy_has_the_bytes_of_the_one_hot_formula(logits_kind, rows, width, upstream):
    rng = np.random.default_rng(rows * 10 + width)
    for _ in range(20):
        if logits_kind == "normal":
            z = rng.normal(size=(rows, width)) * 3.0
        else:
            z = rng.choice([-1000.0, 1000.0], size=(rows, width))
        labels = rng.integers(0, width, size=rows)
        logits = Tensor(z, requires_grad=True)
        loss = softmax_cross_entropy(logits, labels)
        T.mul(loss, Tensor(np.asarray(upstream))).backward()
        expected_loss, expected_grad = one_hot_cross_entropy(z, labels, np.asarray(upstream))
        assert loss.data.tobytes() == expected_loss.tobytes()
        assert logits.grad.tobytes() == expected_grad.tobytes()


def test_uniform_logits_give_log_num_classes():
    logits = Tensor(np.zeros((3, 4)))
    loss = softmax_cross_entropy(logits, [0, 2, 3])
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_extreme_logits_do_not_overflow():
    logits = Tensor(np.array([[1000.0, -1000.0]]))
    loss = softmax_cross_entropy(logits, [0])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_extended_precision_oracle(rng):
    logits = rng.normal(size=(2, 4)) * 3.0
    labels = rng.integers(0, 4, size=2)
    loss = softmax_cross_entropy(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(naive_cross_entropy(logits, labels), abs=1e-10)


def test_cross_entropy_is_nonnegative(rng):
    for _ in range(50):
        logits = rng.normal(size=(3, 5)) * 5.0
        labels = rng.integers(0, 5, size=3)
        assert float(softmax_cross_entropy(Tensor(logits), labels).data) >= 0.0


def test_cross_entropy_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax_cross_entropy(Tensor(np.array([[np.inf, 0.0]])), [0])


@pytest.mark.parametrize("labels", [[], [0, 1], [[0]], 0])
def test_cross_entropy_needs_one_label_per_row(labels):
    with pytest.raises(ValueError, match="one label per logits row"):
        softmax_cross_entropy(Tensor(np.zeros((1, 2))), labels)


def test_cross_entropy_gradient_matches_finite_difference(rng):
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    labels = [1, 0, 3]
    loss = softmax_cross_entropy(logits, labels)
    loss.backward()
    h = 1e-6
    for index in range(logits.data.size):
        flat = logits.data.ravel()
        orig = flat[index]
        flat[index] = orig + h
        up = float(softmax_cross_entropy(Tensor(logits.data), labels).data)
        flat[index] = orig - h
        down = float(softmax_cross_entropy(Tensor(logits.data), labels).data)
        flat[index] = orig
        assert logits.grad.ravel()[index] == pytest.approx((up - down) / (2 * h), abs=1e-6)


class UniformMachine:
    """Stub machine emitting identical logits for every input row."""

    def __init__(self, width):
        self.head_width = width

    def forward(self, x):
        return Tensor(np.zeros((x.data.shape[0], self.head_width)))


def test_rotation_loss_uniform_logits_is_ln4(rng):
    pixels = random_image("img", rng).pixels
    loss = rotation_loss(UniformMachine(4), rotated_batch(pixels), "four_way")
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_rotation_loss_binary_uniform_is_ln2(rng):
    pixels = random_image("img", rng).pixels
    loss = rotation_loss(UniformMachine(2), rotated_batch(pixels), "binary")
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)


class BiasedMachine:
    """Stub machine that always favors the true rotation class."""

    def __init__(self, width, margin):
        self.head_width = width
        self.margin = margin

    def forward(self, x):
        n = x.data.shape[0]
        logits = np.zeros((n, self.head_width))
        for row in range(n):
            logits[row, row % self.head_width] = self.margin
        return Tensor(logits)


def test_rotation_loss_drops_below_ln4_with_correct_margin(rng):
    pixels = random_image("img", rng).pixels
    loss = rotation_loss(BiasedMachine(4, margin=2.0), rotated_batch(pixels), "four_way")
    assert float(loss.data) < math.log(4.0)


def test_rotation_loss_matches_four_separate_passes(cnn_spec, rng):
    machine = build_machine(cnn_spec, 4, seed=21)
    batch = rotated_batch(random_image("img", rng, size=12).pixels)
    combined = float(rotation_loss(machine, batch, "four_way").data)
    separate = []
    for k in range(4):
        logits = machine.forward(Tensor(batch[k][None]))
        separate.append(float(softmax_cross_entropy(logits, [k]).data))
    assert combined == pytest.approx(np.mean(separate), abs=1e-12)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("size", [1, 5, 12])
def test_rotated_batch_has_the_bytes_of_np_rot90(channels, size, rng):
    pixels = rng.random((channels, size, size))
    expected = np.stack([np.rot90(pixels, k, axes=(1, 2)) for k in range(4)])
    assert rotated_batch(pixels).tobytes() == expected.tobytes()


def test_seen_loss_uniform_is_ln2(rng):
    pixels = random_image("img", rng).pixels
    assert float(seen_loss(UniformMachine(2), pixels, SEEN_CLASS).data) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_seen_loss_confident_correct_approaches_zero(rng):
    class Confident:
        head_width = 2

        def forward(self, x):
            return Tensor(np.array([[50.0, -50.0]]))

    assert float(seen_loss(Confident(), random_image("img", rng).pixels, SEEN_CLASS).data) == pytest.approx(
        0.0, abs=1e-12
    )


def test_seen_loss_composes_cross_entropy(mlp_spec, rng):
    machine = build_machine(mlp_spec, 2, seed=8)
    pixels = random_image("img", rng, size=6).pixels
    direct = softmax_cross_entropy(machine.forward(Tensor(pixels[None])), [UNSEEN_CLASS])
    assert float(seen_loss(machine, pixels, UNSEEN_CLASS).data) == pytest.approx(
        float(direct.data), abs=1e-12
    )


@pytest.mark.parametrize("targets", [np.zeros(2), np.zeros((1, 2)), np.zeros((2, 2))])
def test_mse_loss_rejects_targets_of_another_shape(targets):
    # Broadcasting (2, 1) predictions against these targets would average the wrong pairs silently.
    with pytest.raises(ValueError, match="prediction shape"):
        mse_loss(Tensor(np.zeros((2, 1))), targets)


def test_mse_loss_value_and_gradient(rng):
    pred = Tensor(np.array([0.2, 0.8]), requires_grad=True)
    loss = mse_loss(pred, np.array([0.0, 1.0]))
    assert float(loss.data) == pytest.approx((0.04 + 0.04) / 2, abs=1e-12)
    loss.backward()
    assert np.allclose(pred.grad, [0.2, -0.2])
