"""Loss functions for the observe and discriminate training stages.

The rotation loss averages cross-entropy over the four rotated copies of
one image; the seen/unseen loss is plain 2-way cross-entropy, with class
balance coming from equal-sized seen and unseen sets.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import tensor as T
from .tensor import Tensor

SEEN_CLASS = 0
UNSEEN_CLASS = 1


def one_hot(indices, num_classes) -> np.ndarray:
    eye = np.eye(num_classes)
    return eye[np.asarray(indices, dtype=int)]


# Target rows of the rotation loss per pretext mode, one per quarter turn; in
# binary mode {0, 90} form one class and {180, 270} the other. The column
# count is the head width the mode needs.
ROTATION_TARGETS = {"four_way": one_hot((0, 1, 2, 3), 4), "binary": one_hot((0, 0, 1, 1), 2)}

# Target row of the seen/unseen loss per label.
SEEN_TARGETS = {"seen": one_hot([SEEN_CLASS], 2), "unseen": one_hot([UNSEEN_CLASS], 2)}


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Batch-mean cross-entropy of log-sum-exp-stabilized softmax logits.

    targets is a probability matrix the same shape as logits (rows sum
    to 1); one-hot rows are the common case.
    """
    z = logits.data
    targets = np.asarray(targets, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {z.shape}")
    if targets.shape != z.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite logits")
    # np.allclose(row_sums, 1.0, atol=1e-9) without its overhead; NaN fails too.
    if not np.abs(targets.sum(axis=1) - 1.0).max() <= 1e-9 + 1e-5:
        raise ValueError("target rows must sum to 1")
    n = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    expz = np.exp(shifted)
    sumexp = expz.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sumexp)
    loss = -(targets * log_probs).sum(axis=1).mean()

    def backward(g):
        softmax = expz / sumexp
        T._accumulate(logits, g * (softmax - targets) / n, owned=True)

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
    targets = ROTATION_TARGETS[mode]
    if machine.head_width != targets.shape[1]:
        raise ConfigError(
            f"{mode} rotation loss needs a {targets.shape[1]}-way head, machine has {machine.head_width}"
        )
    logits = machine.forward(Tensor(rotations))
    return softmax_cross_entropy(logits, targets)


def seen_loss(machine, image, label: str) -> Tensor:
    """2-way cross-entropy of one image against its seen/unseen label."""
    if machine.head_width != 2:
        raise ConfigError(f"seen/unseen loss needs a 2-way head, machine has {machine.head_width}")
    if label not in SEEN_TARGETS:
        raise ValueError(f"label must be 'seen' or 'unseen', got {label!r}")
    logits = machine.forward(Tensor(image.pixels[None]))
    return softmax_cross_entropy(logits, SEEN_TARGETS[label])


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.data.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.data.shape} != target shape {targets.shape}"
        )
    diff = T.sub(predictions, Tensor(targets))
    return T.mean(T.mul(diff, diff))
