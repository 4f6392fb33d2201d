"""Loss functions for the observe and discriminate training stages.

Both stages train classification on class labels, one integer per row of
logits. The rotation loss averages cross-entropy over the four rotated
copies of one image; the seen/unseen loss is plain 2-way cross-entropy,
with class balance coming from equal-sized seen and unseen sets.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import tensor as T
from .tensor import Tensor

SEEN_CLASS = 0
UNSEEN_CLASS = 1

# Class of each quarter turn per pretext mode; in binary mode {0, 90} form
# one class and {180, 270} the other.
ROTATION_LABELS = {"four_way": (0, 1, 2, 3), "binary": (0, 0, 1, 1)}


def rotation_head_width(mode) -> int:
    """Head width a pretext mode needs: one logit per rotation class."""
    return max(ROTATION_LABELS[mode]) + 1


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Batch-mean cross-entropy of log-sum-exp-stabilized softmax logits against one class label per row."""
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {z.shape}")
    n = z.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"need one label per logits row, got shape {labels.shape} for {n} rows")
    if not np.isfinite(z).all():
        raise ValueError("non-finite logits")
    rows = np.arange(n)
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    sumexp = expz.sum(axis=1, keepdims=True)
    loss = -(shifted[rows, labels] - np.log(sumexp[:, 0])).mean()

    def backward(g):
        softmax = expz / sumexp
        softmax[rows, labels] -= 1.0
        T._accumulate(logits, g * softmax / n, owned=True)

    return T._node(np.asarray(loss), (logits,), backward)


def rotated_batch(image) -> np.ndarray:
    """Stack of the four quarter-turn rotations of one image, NCHW, written once each."""
    from ..data import rotate_pixels

    pixels = image.pixels
    batch = np.empty((4, *pixels.shape), dtype=pixels.dtype)
    for k in range(4):
        rotate_pixels(pixels, k, out=batch[k])
    return batch


def rotation_loss(machine, rotations, mode="four_way") -> Tensor:
    """Mean cross-entropy over an image's four rotated copies, `rotated_batch(image)`."""
    width = rotation_head_width(mode)
    if machine.head_width != width:
        raise ConfigError(f"{mode} rotation loss needs a {width}-way head, machine has {machine.head_width}")
    logits = machine.forward(Tensor(rotations))
    return softmax_cross_entropy(logits, ROTATION_LABELS[mode])


def seen_loss(machine, image, label: int) -> Tensor:
    """2-way cross-entropy of one image against its class, SEEN_CLASS or UNSEEN_CLASS."""
    if machine.head_width != 2:
        raise ConfigError(f"seen/unseen loss needs a 2-way head, machine has {machine.head_width}")
    logits = machine.forward(Tensor(image.pixels[None]))
    return softmax_cross_entropy(logits, (label,))


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.data.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.data.shape} != target shape {targets.shape}"
        )
    diff = T.sub(predictions, Tensor(targets))
    return T.mean(T.mul(diff, diff))
