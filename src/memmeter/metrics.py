"""Calibration error and rank correlation primitives.

All functions are pure over their array inputs. `spearman` alone decides
when a rank correlation is undefined: over fewer than MIN_RANK_VALUES
values, or when either side has no rank variation, it returns None (the
undefined marker, rendered as "n/a" in reports).
"""

from __future__ import annotations

import math

import numpy as np

MIN_RANK_VALUES = 3  # below this a rank correlation is undefined


def rms_calibration_error(confidence, correct, ids) -> float:
    """RMS gap between confidence and accuracy over equal-count bins.

    confidence[i] is the top class probability of image ids[i] and
    correct[i] is 1.0 when that class was the true one, else 0.0. The
    images are sorted by (confidence, id) and split into
    b = min(ceil(sqrt(N)), N) bins, earlier bins taking the remainder.
    The error is sqrt(sum_k (|B_k|/N) * (mean_conf_k - mean_acc_k)^2).
    """
    n = len(ids)
    confidence = np.asarray(confidence, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    order = np.lexsort((np.asarray(ids), confidence))
    b = min(math.ceil(math.sqrt(n)), n)
    total = 0.0
    for conf, acc in zip(np.array_split(confidence[order], b), np.array_split(correct[order], b)):
        total += (len(conf) / n) * (float(conf.mean()) - float(acc.mean())) ** 2
    return math.sqrt(total)


def midranks(values) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    a = np.asarray(values, dtype=np.float64)
    # Ties share the mean of their positions, which end at cumsum(counts). Each NaN is a value
    # of its own; return_index makes np.unique's sort stable, so NaNs rank last in input order.
    _, _, inverse, counts = np.unique(a, return_index=True, return_inverse=True, return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def spearman(xs, ys) -> float | None:
    """Pearson correlation of midranks; None over fewer than MIN_RANK_VALUES values
    or when either side is constant. Vectors of different lengths raise ValueError."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"spearman needs equal-length vectors, got {xs.shape} and {ys.shape}")
    if len(xs) < MIN_RANK_VALUES:
        return None
    rx = midranks(xs)
    ry = midranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        return None
    rho = float((dx * dy).sum() / math.sqrt(sxx * syy))
    return max(-1.0, min(1.0, rho))
