"""Decile grouping, correlations, label rankings, consistency matrices, report files."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import memmeter
from memmeter.analysis import (
    consistency_matrix,
    correlate,
    group_by_decile,
    rank_labels,
)
from memmeter.errors import ConfigError
from memmeter.measurer import ScoreTable
from memmeter.metrics import spearman
from memmeter.report import write_csv, write_json
from memmeter.rng import make_rng


def table_for(scores):
    return ScoreTable(scores=scores, m_effective=10, machine="x", config_hash="h", base_seed=0)


# --- decile grouping --------------------------------------------------------------

def test_twenty_distinct_scores_make_groups_of_two():
    scores = {f"i{k:02d}": k / 20 for k in range(20)}
    groups = group_by_decile(table_for(scores), {})
    assert [g["size"] for g in groups] == [2] * 10
    means = [g["mean_score"] for g in groups]
    assert means == sorted(means)


def test_equal_scores_group_by_id_tie_break():
    scores = {f"i{k:02d}": 0.5 for k in range(10)}
    groups = group_by_decile(table_for(scores), {})
    assert [g["size"] for g in groups] == [1] * 10
    assert all(g["mean_score"] == 0.5 for g in groups)


def test_group_sizes_differ_by_at_most_one_and_partition():
    scores = {f"i{k:03d}": (k * 37 % 101) / 101 for k in range(47)}
    sizes = [g["size"] for g in group_by_decile(table_for(scores), {})]
    assert sum(sizes) == 47
    assert max(sizes) - min(sizes) <= 1


def test_groups_match_brute_force_sort_split_oracle():
    rng = make_rng("decile-oracle")
    scores = {f"i{k:03d}": float(rng.random()) for k in range(100)}
    attributes = {"attr": {f"i{k:03d}": float(rng.random()) for k in range(100)}}
    groups = group_by_decile(table_for(scores), attributes)

    ordered = sorted(scores, key=lambda i: (scores[i], i))
    expected_chunks = [list(chunk) for chunk in np.array_split(np.array(ordered, dtype=object), 10)]
    for group, chunk in zip(groups, expected_chunks):
        assert group["size"] == len(chunk)
        assert group["mean_score"] == pytest.approx(np.mean([scores[i] for i in chunk]), abs=1e-12)
        assert group["attribute_means"]["attr"] == pytest.approx(
            np.mean([attributes["attr"][i] for i in chunk]), abs=1e-12
        )


def test_grouping_is_input_order_invariant():
    rng = make_rng("decile-order")
    scores = {f"i{k:03d}": float(rng.random()) for k in range(30)}
    shuffled = dict(sorted(scores.items(), key=lambda kv: kv[1]))
    one = group_by_decile(table_for(scores), {})
    two = group_by_decile(table_for(shuffled), {})
    assert [g["mean_score"] for g in one] == [g["mean_score"] for g in two]


def test_fewer_than_ten_images_is_usage_error():
    with pytest.raises(ValueError, match=">= 10"):
        group_by_decile(table_for({f"i{k}": 0.1 for k in range(9)}), {})


# --- correlations ------------------------------------------------------------------

def test_scores_against_themselves_and_negation():
    rng = make_rng("corr-self")
    scores = {f"i{k:02d}": float(rng.random()) for k in range(25)}
    table = table_for(scores)
    report = correlate(table, {"same": dict(scores), "neg": {k: -v for k, v in scores.items()}})
    assert report["same"]["rho"] == 1.0
    assert report["neg"]["rho"] == -1.0


def test_correlate_drops_missing_ids_and_matches_direct_call():
    rng = make_rng("corr-drop")
    scores = {f"i{k:02d}": float(rng.random()) for k in range(30)}
    column = {k: float(rng.random()) for k in list(scores)[:20]}
    report = correlate(table_for(scores), {"col": column})
    shared = sorted(column)
    direct = spearman([scores[i] for i in shared], [column[i] for i in shared])
    assert report["col"] == {"rho": direct, "n": 20}


def test_correlate_disjoint_ids_is_usage_error():
    scores = {f"i{k}": 0.5 for k in range(5)}
    with pytest.raises(ConfigError, match="shares"):
        correlate(table_for(scores), {"col": {"other": 1.0}})


def test_correlate_constant_column_is_undefined():
    scores = {f"i{k:02d}": k / 10 for k in range(10)}
    report = correlate(table_for(scores), {"flat": {k: 1.0 for k in scores}})
    assert report["flat"]["rho"] is None


# --- label rankings -------------------------------------------------------------------

def test_two_label_ranking():
    scores = {"a1": 1.0, "a2": 1.0, "b1": 0.0, "b2": 0.0}
    labels = {"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
    ranking = rank_labels(table_for(scores), labels, min_count=2)
    assert ranking == [("A", 1.0, 2), ("B", 0.0, 2)]


def test_rank_labels_ties_break_by_label_string():
    scores = {"x1": 0.5, "y1": 0.5}
    ranking = rank_labels(table_for(scores), {"x1": "zeta", "y1": "alpha"}, min_count=1)
    assert [entry[0] for entry in ranking] == ["alpha", "zeta"]


def test_rank_labels_excludes_sparse_labels():
    scores = {"a1": 0.9, "b1": 0.1, "b2": 0.2}
    ranking = rank_labels(table_for(scores), {"a1": "A", "b1": "B", "b2": "B"}, min_count=2)
    assert [entry[0] for entry in ranking] == ["B"]


def test_rank_labels_matches_group_mean_oracle():
    rng = make_rng("labels-oracle")
    scores = {}
    labels = {}
    for k in range(60):
        image_id = f"i{k:02d}"
        scores[image_id] = float(rng.random())
        labels[image_id] = f"label{int(rng.integers(0, 4))}"
    ranking = rank_labels(table_for(scores), labels, min_count=1)
    expected = {}
    for image_id, label in labels.items():
        expected.setdefault(label, []).append(scores[image_id])
    for label, mean, count in ranking:
        assert count == len(expected[label])
        assert mean == pytest.approx(np.mean(expected[label]), abs=1e-12)


def test_rank_labels_without_coverage_is_usage_error():
    with pytest.raises(ConfigError, match="cover"):
        rank_labels(table_for({"a": 0.5}), {"other": "X"}, min_count=1)


# --- consistency matrices ----------------------------------------------------------------

def test_table_against_itself_is_one():
    rng = make_rng("consistency-self")
    scores = {f"i{k:02d}": float(rng.random()) for k in range(12)}
    result = consistency_matrix([("one", scores), ("two", dict(scores))])
    assert result[0, 0] == 1.0
    assert result[0, 1] == 1.0


def test_rank_reversal_gives_minus_one():
    scores = {f"i{k:02d}": k / 10 for k in range(10)}
    reversed_scores = {k: -v for k, v in scores.items()}
    result = consistency_matrix([("fwd", scores), ("rev", reversed_scores)])
    assert result[0, 1] == -1.0
    assert result[1, 0] == -1.0
    assert np.array_equal(result, result.T)


def test_three_tables_match_pairwise_calls():
    rng = make_rng("consistency-three")
    tables = []
    for name in ("a", "b", "c"):
        tables.append((name, {f"i{k:02d}": float(rng.random()) for k in range(15)}))
    result = consistency_matrix(tables)
    assert np.array_equal(result, result.T)
    assert np.all(np.diag(result) == 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            shared = sorted(set(tables[i][1]) & set(tables[j][1]))
            expected = spearman(
                [tables[i][1][s] for s in shared], [tables[j][1][s] for s in shared]
            )
            assert result[i, j] == expected


def test_consistency_requires_overlap_and_two_tables():
    with pytest.raises(ValueError, match="at least two"):
        consistency_matrix([("solo", {"a": 1.0})])
    with pytest.raises(ConfigError, match="share"):
        consistency_matrix([("one", {"a": 1.0, "b": 0.5, "c": 0.2}), ("two", {"x": 1.0, "y": 0.5, "z": 0.2})])


# --- writers ------------------------------------------------------------------------------

def test_report_writers_produce_valid_outputs(tmp_path):
    rng = make_rng("writers")
    scores = {f"i{k:02d}": float(rng.random()) for k in range(20)}
    table = table_for(scores)
    json_path = tmp_path / "correlations.json"
    write_json(json_path, correlate(table, {"flat": {k: 1.0 for k in scores}, "same": dict(scores)}))
    assert json.loads(json_path.read_text()) == {"flat": {"rho": "n/a", "n": 20}, "same": {"rho": 1.0, "n": 20}}

    groups = group_by_decile(table, {"same": dict(scores), "empty": {}})
    groups_path = tmp_path / "groups.json"
    write_json(groups_path, groups)
    assert all(g["attribute_means"]["empty"] == "n/a" for g in json.loads(groups_path.read_text()))

    run_ids = ["one", "two", "flat"]
    matrix = consistency_matrix(zip(run_ids, [scores, dict(scores), {k: 0.5 for k in scores}]))
    matrix_path = tmp_path / "consistency.csv"
    write_csv(matrix_path, ["run_id"] + run_ids, ([r] + row for r, row in zip(run_ids, matrix.tolist())))
    rows = matrix_path.read_text().splitlines()
    assert rows == ["run_id,one,two,flat", "one,1.0,1.0,n/a", "two,1.0,1.0,n/a", "flat,n/a,n/a,1.0"]

    # Floats read back bit for bit, NumPy's included; the manifest keeps null.
    write_csv(tmp_path / "cells.csv", ["a", "b", "c"], [[np.float64(0.1) + 0.2, None, 7]])
    assert (tmp_path / "cells.csv").read_bytes() == b"a,b,c\r\n0.30000000000000004,n/a,7\r\n"
    write_json(tmp_path / "manifest.json", {"unset": None}, keep_null=True)
    assert (tmp_path / "manifest.json").read_text() == '{\n  "unset": null\n}\n'


def test_only_report_module_handles_tables_and_na():
    # report.py reads and writes every table and owns the n/a rule; data.py
    # reads only the PPM manifest, whose errors are its own.
    csv_importers, na_holders = set(), set()
    for path in Path(memmeter.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
                csv_importers.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                csv_importers.add(path.name)
            if isinstance(node, ast.Constant) and node.value == "n/a":
                na_holders.add(path.name)
    assert csv_importers == {"report.py", "data.py"}
    assert na_holders == {"report.py"}
