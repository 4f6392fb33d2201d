"""Losses only: softmax cross-entropy on class labels, and mean squared error.

The memory game's classes and losses live in `memmeter.measurer`. `rotated_batch`
is a data transform of one image's pixels, kept here because the benchmark's tracer
patches it as `losses.rotated_batch`; it moves next to `data.rotate_pixels` with it.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Batch-mean cross-entropy of log-sum-exp-stabilized softmax logits against one class label per row."""
    z = logits.data
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


def rotated_batch(pixels: np.ndarray) -> np.ndarray:
    """Stack of the four quarter-turn rotations of one image's (C, H, W) pixels, NCHW, written once each."""
    from ..data import rotate_pixels

    batch = np.empty((4, *pixels.shape), dtype=pixels.dtype)
    for k in range(4):
        rotate_pixels(pixels, k, out=batch[k])
    return batch


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error against constant targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.data.shape != targets.shape:
        raise ValueError(
            f"prediction shape {predictions.data.shape} != target shape {targets.shape}"
        )
    diff = T.sub(predictions, Tensor(targets))
    return T.mean(T.mul(diff, diff))
