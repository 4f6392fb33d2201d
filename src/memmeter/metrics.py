"""Calibration error and rank correlation primitives.

All functions are pure over immutable inputs. Spearman returns None (the
undefined marker, rendered as "n/a" in reports) when either side has no
rank variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PredictionRecord:
    image_id: str
    probs: np.ndarray
    true_class: int | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 1:
            raise ValueError(f"probs must be a vector, got shape {self.probs.shape}")
        if (self.probs < 0).any() or abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs of {self.image_id!r} must be nonnegative and sum to 1")

    @property
    def predicted_class(self) -> int:
        # argmax with lowest-index tie-break
        return int(np.argmax(self.probs))

    @property
    def confidence(self) -> float:
        return float(self.probs.max())


@dataclass
class CalibrationReport:
    rms_error: float
    bin_count: int
    bins: list  # (count, mean confidence, empirical accuracy) per bin


def rms_calibration_error(records, bin_count=None) -> CalibrationReport:
    """RMS gap between confidence and accuracy over equal-count bins.

    Records are sorted by (confidence, image_id) and split into
    b = min(ceil(sqrt(N)), N) bins, earlier bins taking the remainder;
    bin_count overrides b when given. The error is
    sqrt(sum_k (|B_k|/N) * (mean_conf_k - mean_acc_k)^2).
    """
    records = list(records)
    n = len(records)
    if n == 0:
        raise ValueError("rms_calibration_error needs at least one record")
    for rec in records:
        if rec.true_class is None:
            raise ValueError(f"record {rec.image_id!r} has no true_class")
    ordered = sorted(records, key=lambda r: (r.confidence, r.image_id))
    conf = np.array([r.confidence for r in ordered])
    correct = np.array([float(r.predicted_class == r.true_class) for r in ordered])
    b = bin_count if bin_count is not None else min(math.ceil(math.sqrt(n)), n)
    if not 1 <= b <= n:
        raise ValueError(f"bin_count {b} outside [1, {n}]")
    base, remainder = divmod(n, b)
    bins = []
    total = 0.0
    start = 0
    for k in range(b):
        size = base + (1 if k < remainder else 0)
        stop = start + size
        mean_conf = float(conf[start:stop].mean())
        mean_acc = float(correct[start:stop].mean())
        bins.append((size, mean_conf, mean_acc))
        total += (size / n) * (mean_conf - mean_acc) ** 2
        start = stop
    return CalibrationReport(rms_error=float(math.sqrt(total)), bin_count=b, bins=bins)


def midranks(values) -> np.ndarray:
    """1-based ranks with ties receiving the average of their positions."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(len(a))
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float | None:
    """Pearson correlation of midranks; None when either side is constant."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"spearman needs equal-length vectors, got {xs.shape} and {ys.shape}")
    if len(xs) < 3:
        raise ValueError("spearman needs at least 3 observations")
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
