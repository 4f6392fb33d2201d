"""Score analysis: decile grouping, attribute correlations, label rankings,
and cross-run consistency matrices.

All cross-table operations work on id intersections; images missing a
value are dropped and logged, never imputed.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import spearman

log = logging.getLogger(__name__)

GROUP_COUNT = 10

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


@dataclass
class GroupStats:
    index: int
    size: int
    mean_score: float
    attribute_means: dict


@dataclass
class GroupSummary:
    groups: list  # GroupStats, ordered low to high mean score


@dataclass
class CorrelationReport:
    n: int
    columns: dict  # name -> {"rho": float | None, "n": int}


@dataclass
class LabelRanking:
    entries: list  # (label, mean score, count), best first
    min_count: int

    def top(self, k):
        return self.entries[:k]

    def bottom(self, k):
        return list(reversed(self.entries[-k:]))


@dataclass
class ConsistencyMatrix:
    run_ids: list
    matrix: np.ndarray


def group_by_decile(score_table, attribute_columns) -> GroupSummary:
    """Split scored images into 10 nearly equal groups by ascending score.

    Ties are broken by image id; earlier groups absorb the remainder, so
    group sizes differ by at most one.
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
            GroupStats(
                index=index + 1,
                size=len(chunk),
                mean_score=float(np.mean([score_table.scores[i] for i in chunk])),
                attribute_means=means,
            )
        )
    return GroupSummary(groups=groups)


def correlate(score_table, columns) -> CorrelationReport:
    """Per-column Spearman correlation between scores and attribute values."""
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
    return CorrelationReport(n=len(score_table.scores), columns=results)


def rank_labels(score_table, labels, k=5, min_count=5) -> LabelRanking:
    """Mean score per label, best first; sparse labels are excluded."""
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
    return LabelRanking(entries=entries, min_count=min_count)


def consistency_matrix(tables) -> ConsistencyMatrix:
    """Pairwise Spearman over shared ids; diagonal is exactly 1."""
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
    return ConsistencyMatrix(run_ids=run_ids, matrix=matrix)


# --- report output -------------------------------------------------------------

def _json_rho(rho):
    return "n/a" if rho is None or (isinstance(rho, float) and np.isnan(rho)) else rho


def write_correlation_json(report: CorrelationReport, path):
    payload = {
        "n": report.n,
        "columns": {
            name: {"rho": _json_rho(cell["rho"]), "n": cell["n"]}
            for name, cell in report.columns.items()
        },
        "strength_bands": STRENGTH_BANDS,
        "full_scale_reference": FULL_SCALE_REFERENCE,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_group_csv(summary: GroupSummary, path):
    """Long-format group plot data: group_index,mean_score,attribute,mean_value."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("group_index", "mean_score", "attribute", "mean_value"))
        for group in summary.groups:
            for name in sorted(group.attribute_means):
                value = group.attribute_means[name]
                writer.writerow(
                    (group.index, repr(group.mean_score), name, "n/a" if value is None else repr(value))
                )


def write_group_json(summary: GroupSummary, path):
    payload = [
        {
            "index": g.index,
            "size": g.size,
            "mean_score": g.mean_score,
            "attribute_means": {k: _json_rho(v) if v is None else v for k, v in g.attribute_means.items()},
        }
        for g in summary.groups
    ]
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_label_json(ranking: LabelRanking, k, path):
    payload = {
        "min_count": ranking.min_count,
        "top": [{"label": l, "mean_score": s, "count": c} for l, s, c in ranking.top(k)],
        "bottom": [{"label": l, "mean_score": s, "count": c} for l, s, c in ranking.bottom(k)],
        "all": [{"label": l, "mean_score": s, "count": c} for l, s, c in ranking.entries],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_matrix_csv(result: ConsistencyMatrix, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id"] + result.run_ids)
        for run_id, row in zip(result.run_ids, result.matrix):
            writer.writerow([run_id] + ["n/a" if np.isnan(v) else repr(float(v)) for v in row])
