"""Score analysis: decile grouping, attribute correlations, label rankings,
and cross-run consistency matrices.

All cross-table operations work on id intersections; images missing a
value are dropped and logged, never imputed. Results are plain data; the
CLI writes them through memmeter.report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .metrics import spearman

log = logging.getLogger(__name__)

GROUP_COUNT = 10


@dataclass(frozen=True)
class AnalyzeConfig:
    top_k: int = 5
    min_count: int = 5

    def __post_init__(self):
        if self.top_k < 1 or self.min_count < 1:
            raise ConfigError("top_k and min_count must be >= 1")


# Correlation-strength bands used only as report annotations.
STRENGTH_BANDS = {
    "moderate": 0.30,
    "weak": 0.15,
    "very_weak": 0.08,
}

# Correlation signs observed between scores and pixel attributes at full
# scale (tens of thousands of images). Reference only; never asserted.
FULL_SCALE_REFERENCE = {
    "value": -0.40,
    "contrast": -0.33,
    "hue": -0.15,
    "saturation": 0.16,
    "entropy": 0.10,
    "colorfulness": 0.04,
}


def group_by_decile(score_table, attribute_columns) -> list:
    """Split scored images into 10 nearly equal groups by ascending score.

    Ties are broken by image id; earlier groups absorb the remainder, so
    group sizes differ by at most one. Returns one record per group, low to
    high mean score, shaped like groups.json: index, size, mean_score and
    attribute_means (None for a column with no value in the group).
    """
    ids = sorted(score_table.scores, key=lambda i: (score_table.scores[i], i))
    if len(ids) < GROUP_COUNT:
        raise ValueError(f"decile grouping needs >= {GROUP_COUNT} images, got {len(ids)}")
    groups = []
    for index, chunk in enumerate(np.array_split(np.array(ids, dtype=object), GROUP_COUNT)):
        chunk = list(chunk)
        means = {}
        for name, column in attribute_columns.items():
            values = [column[i] for i in chunk if i in column]
            means[name] = float(np.mean(values)) if values else None
        groups.append(
            {
                "index": index + 1,
                "size": len(chunk),
                "mean_score": float(np.mean([score_table.scores[i] for i in chunk])),
                "attribute_means": means,
            }
        )
    return groups


def correlate(score_table, columns) -> dict:
    """Per-column Spearman correlation between scores and attribute values.

    Returns {column: {"rho": float or None, "n": shared ids}}.
    """
    results = {}
    any_overlap = False
    for name, column in columns.items():
        shared = sorted(set(score_table.scores) & set(column))
        dropped = len(score_table.scores) - len(shared)
        if dropped:
            log.info("column %s: dropped %d images without values", name, dropped)
        if len(shared) < 3:
            if shared:
                any_overlap = True
            results[name] = {"rho": None, "n": len(shared)}
            continue
        any_overlap = True
        rho = spearman(
            [score_table.scores[i] for i in shared], [column[i] for i in shared]
        )
        results[name] = {"rho": rho, "n": len(shared)}
    if columns and not any_overlap:
        raise ConfigError("no attribute column shares any ids with the score table")
    return results


def rank_labels(score_table, labels, min_count) -> list:
    """(label, mean score, count) per label, best first; sparse labels are excluded."""
    by_label = {}
    for image_id, label in labels.items():
        if image_id in score_table.scores:
            by_label.setdefault(label, []).append(score_table.scores[image_id])
    if not by_label:
        raise ConfigError("labels cover no scored images")
    entries = [
        (label, float(np.mean(values)), len(values))
        for label, values in by_label.items()
        if len(values) >= min_count
    ]
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def consistency_matrix(tables) -> np.ndarray:
    """Pairwise Spearman over (run_id, scores) tables' shared ids; diagonal is exactly 1.

    An undefined correlation (a constant score table) is NaN.
    """
    tables = list(tables)
    if len(tables) < 2:
        raise ValueError("consistency matrix needs at least two score tables")
    run_ids = [run_id for run_id, _ in tables]
    if len(set(run_ids)) != len(run_ids):
        raise ValueError("duplicate run identifiers")
    size = len(tables)
    matrix = np.eye(size)
    for i in range(size):
        for j in range(i + 1, size):
            shared = sorted(set(tables[i][1]) & set(tables[j][1]))
            if len(shared) < 3:
                raise ConfigError(
                    f"runs {run_ids[i]!r} and {run_ids[j]!r} share only {len(shared)} ids"
                )
            rho = spearman(
                [tables[i][1][s] for s in shared], [tables[j][1][s] for s in shared]
            )
            value = float("nan") if rho is None else rho
            matrix[i, j] = matrix[j, i] = value
    return matrix
