"""Loss functions: exact values, stabilization, and decomposition oracles."""

import math

import numpy as np
import pytest

from memmeter.data import ImageTensor
from memmeter.engine import Tensor, build_machine
from memmeter.engine.losses import (
    mse_loss,
    one_hot,
    rotated_batch,
    rotation_loss,
    seen_loss,
    softmax_cross_entropy,
)
from memmeter.errors import ConfigError

from synth import random_image


def naive_cross_entropy(logits, targets):
    """Straight softmax-then-log oracle in extended precision."""
    z = np.asarray(logits, dtype=np.longdouble)
    t = np.asarray(targets, dtype=np.longdouble)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return float(-(t * np.log(probs)).sum(axis=1).mean())


def test_uniform_logits_give_log_num_classes():
    logits = Tensor(np.zeros((3, 4)))
    loss = softmax_cross_entropy(logits, one_hot([0, 2, 3], 4))
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_extreme_logits_do_not_overflow():
    logits = Tensor(np.array([[1000.0, -1000.0]]))
    loss = softmax_cross_entropy(logits, one_hot([0], 2))
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_matches_extended_precision_oracle(rng):
    logits = rng.normal(size=(2, 4)) * 3.0
    targets = one_hot(rng.integers(0, 4, size=2), 4)
    loss = softmax_cross_entropy(Tensor(logits), targets)
    assert float(loss.data) == pytest.approx(naive_cross_entropy(logits, targets), abs=1e-10)


def test_cross_entropy_is_nonnegative(rng):
    for _ in range(50):
        logits = rng.normal(size=(3, 5)) * 5.0
        targets = one_hot(rng.integers(0, 5, size=3), 5)
        assert float(softmax_cross_entropy(Tensor(logits), targets).data) >= 0.0


def test_cross_entropy_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax_cross_entropy(Tensor(np.array([[np.inf, 0.0]])), one_hot([0], 2))


def test_cross_entropy_rejects_bad_target_rows():
    for targets in ([[0.5, 0.4]], [[1.0, 0.0], [0.6, 0.6]], [[np.nan, 1.0]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError, match="sum to 1"):
            softmax_cross_entropy(Tensor(np.zeros((len(targets), 2))), np.array(targets))
    # np.allclose's tolerance against 1.0 still passes.
    softmax_cross_entropy(Tensor(np.zeros((1, 2))), np.array([[0.5, 0.5 + 9e-6]]))


def test_cross_entropy_gradient_matches_finite_difference(rng):
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    targets = one_hot([1, 0, 3], 4)
    loss = softmax_cross_entropy(logits, targets)
    loss.backward()
    h = 1e-6
    for index in range(logits.data.size):
        flat = logits.data.ravel()
        orig = flat[index]
        flat[index] = orig + h
        up = float(softmax_cross_entropy(Tensor(logits.data), targets).data)
        flat[index] = orig - h
        down = float(softmax_cross_entropy(Tensor(logits.data), targets).data)
        flat[index] = orig
        assert logits.grad.ravel()[index] == pytest.approx((up - down) / (2 * h), abs=1e-6)


class UniformMachine:
    """Stub machine emitting identical logits for every input row."""

    def __init__(self, width):
        self.head_width = width

    def forward(self, x):
        return Tensor(np.zeros((x.data.shape[0], self.head_width)))


def test_rotation_loss_uniform_logits_is_ln4(rng):
    image = random_image("img", rng)
    loss = rotation_loss(UniformMachine(4), rotated_batch(image), "four_way")
    assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-12)


def test_rotation_loss_binary_uniform_is_ln2(rng):
    image = random_image("img", rng)
    loss = rotation_loss(UniformMachine(2), rotated_batch(image), "binary")
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
    image = random_image("img", rng)
    loss = rotation_loss(BiasedMachine(4, margin=2.0), rotated_batch(image), "four_way")
    assert float(loss.data) < math.log(4.0)


def test_rotation_loss_matches_four_separate_passes(cnn_spec, rng):
    machine = build_machine(cnn_spec, 4, seed=21)
    image = random_image("img", rng, size=12)
    batch = rotated_batch(image)
    combined = float(rotation_loss(machine, batch, "four_way").data)
    separate = []
    for k in range(4):
        logits = machine.forward(Tensor(batch[k][None]))
        separate.append(float(softmax_cross_entropy(logits, one_hot([k], 4)).data))
    assert combined == pytest.approx(np.mean(separate), abs=1e-12)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("size", [1, 5, 12])
def test_rotated_batch_has_the_bytes_of_np_rot90(channels, size, rng):
    image = ImageTensor("img", rng.random((channels, size, size)))
    expected = np.stack([np.rot90(image.pixels, k, axes=(1, 2)) for k in range(4)])
    assert rotated_batch(image).tobytes() == expected.tobytes()


def test_rotation_loss_checks_head_width(rng):
    with pytest.raises(ConfigError, match="4-way head"):
        rotation_loss(UniformMachine(2), rotated_batch(random_image("img", rng)), "four_way")


def test_seen_loss_uniform_is_ln2(rng):
    image = random_image("img", rng)
    assert float(seen_loss(UniformMachine(2), image, "seen").data) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_seen_loss_confident_correct_approaches_zero(rng):
    class Confident:
        head_width = 2

        def forward(self, x):
            return Tensor(np.array([[50.0, -50.0]]))

    assert float(seen_loss(Confident(), random_image("img", rng), "seen").data) == pytest.approx(
        0.0, abs=1e-12
    )


def test_seen_loss_composes_cross_entropy(mlp_spec, rng):
    machine = build_machine(mlp_spec, 2, seed=8)
    image = random_image("img", rng, size=6)
    direct = softmax_cross_entropy(machine.forward(Tensor(image.pixels[None])), one_hot([1], 2))
    assert float(seen_loss(machine, image, "unseen").data) == pytest.approx(
        float(direct.data), abs=1e-12
    )


def test_seen_loss_rejects_unknown_label(rng):
    with pytest.raises(ValueError, match="seen"):
        seen_loss(UniformMachine(2), random_image("img", rng), "maybe")


def test_mse_loss_value_and_gradient(rng):
    pred = Tensor(np.array([0.2, 0.8]), requires_grad=True)
    loss = mse_loss(pred, np.array([0.0, 1.0]))
    assert float(loss.data) == pytest.approx((0.04 + 0.04) / 2, abs=1e-12)
    loss.backward()
    assert np.allclose(pred.grad, [0.2, -0.2])
