"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import json

import numpy as np
import pytest

import synth
from memmeter import cli, measurer
from memmeter.measurer import SCORE_HEADER, ScoreTable, read_score_csv
from memmeter.metrics import spearman
from memmeter.rng import make_rng


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def ppm_dataset_dir(tmp_path_factory):
    dataset = synth.ramp_dataset(count=16, seed=5, size=6)
    return synth.write_ppm_dataset(dataset, tmp_path_factory.mktemp("data") / "ramps")


def measure_config(tmp_path, **overrides):
    config = {
        "n": 4,
        "m": 2,
        "epochs_a": 1,
        "epochs_b": 2,
        "accuracy_gate": 0.01,
        "base_seed": 5,
        "machine": {"kind": "mlp", "hidden": [8]},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# --- config keys ------------------------------------------------------------------

def test_measure_config_keys_and_defaults_are_pinned():
    assert cli.MEASURE_DEFAULTS == {
        "n": 500,
        "m": 100,
        "epochs_a": 60,
        "epochs_b": 10,
        "lr_a": 0.01,
        "lr_b": 0.01,
        "momentum": 0.9,
        "weight_decay": 1e-4,
        "accuracy_gate": 0.80,
        "pretext_mode": "four_way",
        "calibration_mode": "seen_only",
        "base_seed": 0,
        "machine": {"kind": "small_cnn"},
        "set_a": None,
        "workers": None,
        "init_checkpoint": None,
    }


def test_train_predictor_config_keys_and_defaults_are_pinned():
    assert cli.TRAIN_DEFAULTS == {
        "epochs": 50,
        "lr": 0.01,
        "batch_size": 16,
        "split_seed": None,
        "test_fraction": 0.2,
        "augment": True,
        "base_seed": 0,
        "machine": None,
    }


# --- flags ------------------------------------------------------------------------

def test_subcommand_flags_are_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: [s for action in p._actions for s in action.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }
    assert options == {
        "measure": ["--config", "--data", "--out", "--seed", "--workers"],
        "attributes": ["--data", "--out"],
        "analyze": ["--config", "--out", "--scores", "--attributes", "--merge-csv", "--labels"],
        "train-predictor": ["--config", "--data", "--out", "--seed", "--scores"],
        "predict": ["--data", "--out", "--model"],
        "sweep": ["--config", "--data", "--out", "--seed", "--workers"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("attributes", "--seed", "3"),
        ("attributes", "--config", "c.json"),
        ("predict", "--workers", "7"),
        ("analyze", "--seed", "3"),
        ("train-predictor", "--workers", "7"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv, "--out", str(tmp_path / "o"))
    assert excinfo.value.code == 2
    assert not (tmp_path / "o").exists()


# --- measure ----------------------------------------------------------------------

def test_measure_writes_expected_outputs(tmp_path, ppm_dataset_dir):
    config = measure_config(tmp_path)
    out = tmp_path / "run"
    code = run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out))
    assert code == 0
    scores = read_score_csv(out / "scores.csv")
    assert len(scores.scores) == 4
    for value in scores.scores.values():
        assert value == round(value * scores.m_effective) / scores.m_effective
    lines = (out / "episodes.jsonl").read_text().splitlines()
    assert len(lines) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "measure"
    assert manifest["config_hash"] == scores.config_hash


def test_measure_reruns_byte_identically(tmp_path, ppm_dataset_dir):
    config = measure_config(tmp_path)
    first, second = tmp_path / "one", tmp_path / "two"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(first)) == 0
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(second)) == 0
    assert (first / "scores.csv").read_bytes() == (second / "scores.csv").read_bytes()
    assert (first / "episodes.jsonl").read_bytes() == (second / "episodes.jsonl").read_bytes()


def test_measure_workers_do_not_change_outputs(tmp_path, ppm_dataset_dir):
    config = measure_config(tmp_path, m=3)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(serial), "--workers", "1") == 0
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(parallel), "--workers", "3") == 0
    assert (serial / "scores.csv").read_bytes() == (parallel / "scores.csv").read_bytes()


def test_measure_n_too_large_exits_3_without_outputs(tmp_path, ppm_dataset_dir, capsys):
    config = measure_config(tmp_path, n=10)
    out = tmp_path / "run"
    code = run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out))
    assert code == 3
    assert "data format error" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_measure_unknown_config_key_exits_2(tmp_path, ppm_dataset_dir, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"epochs": 3}))
    code = run_cli("measure", "--config", str(path), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_measure_unknown_machine_key_exits_2(tmp_path, ppm_dataset_dir, capsys):
    config = measure_config(tmp_path, machine={"kind": "mlp", "hiden": [8]})
    code = run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "hiden" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"n": "5"}, "n"),
        ({"n": 5.0}, "n"),
        ({"lr_a": "0.1"}, "lr_a"),
        ({"machine": {"kind": "small_cnn", "height": "8"}}, "height"),
        ({"machine": {"kind": "mlp", "hidden": 5}}, "hidden"),
        ({"workers": "2"}, "workers"),
    ],
    ids=lambda param: json.dumps(param) if isinstance(param, dict) else None,
)
def test_mistyped_config_value_exits_2(tmp_path, ppm_dataset_dir, overrides, key, capsys):
    config = measure_config(tmp_path, **overrides)
    code = run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: " in err and repr(key) in err


def test_measure_missing_data_exits_2(tmp_path):
    config = measure_config(tmp_path)
    code = run_cli("measure", "--config", str(config), "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o"))
    assert code == 2


def test_diverging_measure_is_not_reported_as_config_error(tmp_path, ppm_dataset_dir, capsys):
    # lr_b 1e8 drives stage (b)'s logits to infinity: an internal failure, not a bad config.
    config = measure_config(tmp_path, lr_b=1e8, machine={"kind": "small_cnn"})
    with pytest.raises(ValueError, match="non-finite logits"):
        run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"), "--workers", "1")
    assert "config error" not in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path, ppm_dataset_dir):
    config = measure_config(tmp_path)
    one, two = tmp_path / "a", tmp_path / "b"
    run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(one), "--seed", "99")
    run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(two))
    assert read_score_csv(one / "scores.csv").base_seed == 99
    assert read_score_csv(two / "scores.csv").base_seed == 5


# --- attributes -------------------------------------------------------------------

def test_attributes_single_image_dataset(tmp_path):
    rng = make_rng("one-image")
    dataset = synth.stack_dataset([synth.random_image("only", rng, size=4)])
    data_dir = synth.write_ppm_dataset(dataset, tmp_path / "data")
    out = tmp_path / "out"
    assert run_cli("attributes", "--data", str(data_dir), "--out", str(out)) == 0
    lines = (out / "attributes.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("only,")


def test_attributes_rerun_is_byte_identical(tmp_path, ppm_dataset_dir):
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_cli("attributes", "--data", str(ppm_dataset_dir), "--out", str(one)) == 0
    assert run_cli("attributes", "--data", str(ppm_dataset_dir), "--out", str(two)) == 0
    assert (one / "attributes.csv").read_bytes() == (two / "attributes.csv").read_bytes()


def test_attributes_on_cifar_binary_file(tmp_path):
    rng = make_rng("cifar-cli")
    records = []
    for k in range(3):
        records.append(bytes([k]) + bytes(rng.integers(0, 256, size=3072, dtype=np.uint8)))
    batch = tmp_path / "batch.bin"
    batch.write_bytes(b"".join(records))
    out = tmp_path / "out"
    assert run_cli("attributes", "--data", str(batch), "--out", str(out)) == 0
    lines = (out / "attributes.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("batch.bin#0,")


def test_log_level_env_var(tmp_path, ppm_dataset_dir, monkeypatch, caplog):
    import logging

    monkeypatch.setenv("MEMMETER_LOG", "INFO")
    config = measure_config(tmp_path)
    with caplog.at_level(logging.INFO):
        run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    # env var accepted without error; the command still succeeds
    assert (tmp_path / "o" / "scores.csv").exists()


# --- analyze ----------------------------------------------------------------------

@pytest.fixture()
def measured_run(tmp_path, ppm_dataset_dir):
    config = measure_config(tmp_path, n=5, m=3)
    out = tmp_path / "measured"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 0
    return out


def test_analyze_with_merged_column_matches_direct_spearman(tmp_path, ppm_dataset_dir, measured_run):
    scores = read_score_csv(measured_run / "scores.csv")
    rng = make_rng("merge-column")
    merged = {image_id: float(rng.random()) for image_id in scores.scores}
    merge_csv = tmp_path / "extra.csv"
    merge_csv.write_text(
        "image_id,human\n" + "\n".join(f"{k},{v!r}" for k, v in sorted(merged.items())) + "\n"
    )
    out = tmp_path / "analysis"
    code = run_cli(
        "analyze", "--scores", str(measured_run / "scores.csv"), "--merge-csv", str(merge_csv), "--out", str(out)
    )
    assert code == 0
    payload = json.loads((out / "correlations.json").read_text())
    ids = sorted(scores.scores)
    expected = spearman([scores.scores[i] for i in ids], [merged[i] for i in ids])
    reported = payload["columns"]["human"]["rho"]
    if expected is None:
        assert reported == "n/a"
    else:
        assert reported == pytest.approx(expected, abs=1e-12)


def test_analyze_attributes_pipeline_and_labels(tmp_path, ppm_dataset_dir, measured_run):
    attr_out = tmp_path / "attrs"
    assert run_cli("attributes", "--data", str(ppm_dataset_dir), "--out", str(attr_out)) == 0
    scores = read_score_csv(measured_run / "scores.csv")
    labels_csv = tmp_path / "labels.csv"
    labels_csv.write_text(
        "image_id,label\n" + "\n".join(f"{k},{'even' if int(k[-1]) % 2 == 0 else 'odd'}" for k in scores.scores) + "\n"
    )
    out = tmp_path / "analysis"
    config = tmp_path / "an.json"
    config.write_text(json.dumps({"min_count": 1, "top_k": 2}))
    code = run_cli(
        "analyze",
        "--config", str(config),
        "--scores", str(measured_run / "scores.csv"),
        "--attributes", str(attr_out / "attributes.csv"),
        "--labels", str(labels_csv),
        "--out", str(out),
    )
    assert code == 0
    assert (out / "correlations.json").exists()
    ranking = json.loads((out / "label_ranking.json").read_text())
    assert {entry["label"] for entry in ranking["all"]} <= {"even", "odd"}


def test_analyze_labels_row_with_one_field_exits_3(tmp_path, capsys):
    scores = write_score_rows(tmp_path / "scores.csv")
    labels = tmp_path / "labels.csv"
    labels.write_text("image_id,label\nramp000,cat\nimg02\n")
    code = run_cli("analyze", "--scores", str(scores), "--labels", str(labels), "--out", str(tmp_path / "a"))
    assert code == 3
    err = capsys.readouterr().err
    assert str(labels) in err and "line 3" in err


def test_analyze_labels_skip_empty_lines(tmp_path):
    scores = write_score_rows(tmp_path / "scores.csv")
    labels = tmp_path / "labels.csv"
    labels.write_text("image_id,label\n\nramp000,cat\n\n")
    config = tmp_path / "an.json"
    config.write_text('{"min_count": 1}')
    out = tmp_path / "a"
    assert run_cli("analyze", "--config", str(config), "--scores", str(scores), "--labels", str(labels), "--out", str(out)) == 0
    ranking = json.loads((out / "label_ranking.json").read_text())
    assert ranking["all"] == [{"count": 1, "label": "cat", "mean_score": 0.5}]


def test_analyze_merge_csv_without_image_id_column_exits_2(tmp_path, measured_run, capsys):
    merge_csv = tmp_path / "extra.csv"
    merge_csv.write_text("id,human\nramp000,0.5\n")
    code = run_cli(
        "analyze", "--scores", str(measured_run / "scores.csv"), "--merge-csv", str(merge_csv), "--out", str(tmp_path / "a")
    )
    assert code == 2
    assert "image_id column" in capsys.readouterr().err


def write_score_rows(path, **cells):
    row = {"image_id": "ramp000", "score": "0.5", "m_effective": "2", "machine": "m", "config_hash": "h", "base_seed": "0"}
    row.update(cells)
    path.write_text(",".join(SCORE_HEADER) + "\n" + ",".join(row[name] for name in SCORE_HEADER) + "\n")
    return path


def test_analyze_merge_csv_with_non_numeric_cell_exits_3(tmp_path, capsys):
    scores = write_score_rows(tmp_path / "scores.csv")
    merge_csv = tmp_path / "extra.csv"
    for cell in ("high", "nan", "inf", "-inf"):
        merge_csv.write_text(f"image_id,human\nramp000,{cell}\n")
        code = run_cli("analyze", "--scores", str(scores), "--merge-csv", str(merge_csv), "--out", str(tmp_path / "a"))
        assert code == 3
        err = capsys.readouterr().err
        assert str(merge_csv) in err and repr(cell) in err


@pytest.mark.parametrize(
    "cells", [{"score": "high"}, {"m_effective": "two"}, {"base_seed": "1.5"}, {"score": "nan"}, {"score": "inf"}]
)
def test_analyze_malformed_score_table_exits_3(tmp_path, cells, capsys):
    scores = write_score_rows(tmp_path / "scores.csv", **cells)
    assert run_cli("analyze", "--scores", str(scores), "--out", str(tmp_path / "a")) == 3
    assert str(scores) in capsys.readouterr().err


def test_analyze_requires_scores(tmp_path, capsys):
    assert run_cli("analyze", "--out", str(tmp_path / "o")) == 2
    assert "--scores" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("analyze", "--scores"),
        ("analyze", "--attributes"),
        ("analyze", "--merge-csv"),
        ("analyze", "--labels"),
        ("train-predictor", "--scores"),
    ],
)
def test_missing_table_file_exits_2(tmp_path, command, flag, capsys):
    missing = tmp_path / "nope.csv"
    argv = [command, flag, str(missing), "--out", str(tmp_path / "o")]
    if flag != "--scores":
        argv += ["--scores", str(write_score_rows(tmp_path / "scores.csv"))]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and str(missing) in err


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--attributes", "image_id,hue,saturation,value,contrast,colorfulness,entropy\nramp000,0.5\n"),
        ("--labels", "image_id,label\nramp000,cat\n\nramp001,dog,extra\n"),
        ("--scores", ",".join(SCORE_HEADER) + "\nramp000,0.5,2,m,h,0,extra\n"),
    ],
    ids=["short-attributes-row", "three-field-labels-row", "seven-field-score-row"],
)
def test_table_row_of_wrong_width_exits_3(tmp_path, flag, text, capsys):
    table = tmp_path / "table.csv"
    table.write_text(text)
    argv = ["analyze", flag, str(table), "--out", str(tmp_path / "a")]
    if flag != "--scores":
        argv += ["--scores", str(write_score_rows(tmp_path / "scores.csv"))]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    line = text.count("\n")
    assert str(table) in err and f"line {line} has" in err


@pytest.mark.parametrize("key", ["top_k", "min_count"])
def test_analyze_config_value_below_one_exits_2(tmp_path, key, capsys):
    config = tmp_path / "an.json"
    config.write_text(json.dumps({key: 0}))
    scores = write_score_rows(tmp_path / "scores.csv")
    assert run_cli("analyze", "--config", str(config), "--scores", str(scores), "--out", str(tmp_path / "a")) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


# Hand-written inputs of the pinned-output tests; no training is involved, so the
# bytes below depend on no BLAS. img00, img04 and img09 have no hue, so decile 1
# has no hue mean; "flat" is constant, so its rank correlation is undefined.
PINNED_SCORES = """\
image_id,score,m_effective,machine,config_hash,base_seed
img00,0.25,4,mlp[8|in3x6x6],c0ffee123456,7
img01,0.75,4,mlp[8|in3x6x6],c0ffee123456,7
img02,0.5,4,mlp[8|in3x6x6],c0ffee123456,7
img03,1.0,4,mlp[8|in3x6x6],c0ffee123456,7
img04,0.0,4,mlp[8|in3x6x6],c0ffee123456,7
img05,0.5,4,mlp[8|in3x6x6],c0ffee123456,7
img06,0.25,4,mlp[8|in3x6x6],c0ffee123456,7
img07,0.75,4,mlp[8|in3x6x6],c0ffee123456,7
img08,1.0,4,mlp[8|in3x6x6],c0ffee123456,7
img09,0.0,4,mlp[8|in3x6x6],c0ffee123456,7
img10,0.5,4,mlp[8|in3x6x6],c0ffee123456,7
img11,0.25,4,mlp[8|in3x6x6],c0ffee123456,7
"""
PINNED_ATTRIBUTES = """\
image_id,hue,value
img00,n/a,0.25
img01,120.5,0.5
img02,30.0,0.125
img03,300.25,0.75
img04,n/a,0.1
img05,45.0,0.2
img06,200.0,0.3
img07,10.0,0.9
img08,350.0,0.6
img09,n/a,0.05
img10,90.0,0.4
img11,180.0,0.35
"""
PINNED_MERGE = """\
image_id,flat,human
img00,1.0,2
img01,1.0,5
img02,1.0,3
img03,1.0,6
img04,1.0,1
img05,1.0,3.5
img06,1.0,2.5
img07,1.0,n/a
img08,1.0,7
img09,1.0,0.5
img10,1.0,4
img11,1.0,2
"""
PINNED_LABELS = """\
image_id,label
img00,cat
img01,dog
img02,bird
img03,cat
img04,dog
img05,bird
img06,cat
img07,dog
img08,dog
img09,cat
img10,cat
img99,cat
"""


PINNED_ANALYZE_OUTPUTS = {
    "correlations.json": """\
{
  "columns": {
    "flat": {
      "n": 12,
      "rho": "n/a"
    },
    "hue": {
      "n": 9,
      "rho": 0.2404518853004542
    },
    "human": {
      "n": 11,
      "rho": 0.9792364931869324
    },
    "value": {
      "n": 12,
      "rho": 0.8236877675803729
    }
  },
  "full_scale_reference": {
    "colorfulness": 0.04,
    "contrast": -0.33,
    "entropy": 0.1,
    "hue": -0.15,
    "saturation": 0.16,
    "value": -0.4
  },
  "n": 12,
  "strength_bands": {
    "moderate": 0.3,
    "very_weak": 0.08,
    "weak": 0.15
  }
}
""",
    "deciles.csv": """\
group_index,mean_score,attribute,mean_value
1,0.0,flat,1.0
1,0.0,hue,n/a
1,0.0,human,0.75
1,0.0,value,0.07500000000000001
2,0.25,flat,1.0
2,0.25,hue,200.0
2,0.25,human,2.25
2,0.25,value,0.275
3,0.25,flat,1.0
3,0.25,hue,180.0
3,0.25,human,2.0
3,0.25,value,0.35
4,0.5,flat,1.0
4,0.5,hue,30.0
4,0.5,human,3.0
4,0.5,value,0.125
5,0.5,flat,1.0
5,0.5,hue,45.0
5,0.5,human,3.5
5,0.5,value,0.2
6,0.5,flat,1.0
6,0.5,hue,90.0
6,0.5,human,4.0
6,0.5,value,0.4
7,0.75,flat,1.0
7,0.75,hue,120.5
7,0.75,human,5.0
7,0.75,value,0.5
8,0.75,flat,1.0
8,0.75,hue,10.0
8,0.75,human,n/a
8,0.75,value,0.9
9,1.0,flat,1.0
9,1.0,hue,300.25
9,1.0,human,6.0
9,1.0,value,0.75
10,1.0,flat,1.0
10,1.0,hue,350.0
10,1.0,human,7.0
10,1.0,value,0.6
""",
    "groups.json": """\
[
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": "n/a",
      "human": 0.75,
      "value": 0.07500000000000001
    },
    "index": 1,
    "mean_score": 0.0,
    "size": 2
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 200.0,
      "human": 2.25,
      "value": 0.275
    },
    "index": 2,
    "mean_score": 0.25,
    "size": 2
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 180.0,
      "human": 2.0,
      "value": 0.35
    },
    "index": 3,
    "mean_score": 0.25,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 30.0,
      "human": 3.0,
      "value": 0.125
    },
    "index": 4,
    "mean_score": 0.5,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 45.0,
      "human": 3.5,
      "value": 0.2
    },
    "index": 5,
    "mean_score": 0.5,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 90.0,
      "human": 4.0,
      "value": 0.4
    },
    "index": 6,
    "mean_score": 0.5,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 120.5,
      "human": 5.0,
      "value": 0.5
    },
    "index": 7,
    "mean_score": 0.75,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 10.0,
      "human": "n/a",
      "value": 0.9
    },
    "index": 8,
    "mean_score": 0.75,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 300.25,
      "human": 6.0,
      "value": 0.75
    },
    "index": 9,
    "mean_score": 1.0,
    "size": 1
  },
  {
    "attribute_means": {
      "flat": 1.0,
      "hue": 350.0,
      "human": 7.0,
      "value": 0.6
    },
    "index": 10,
    "mean_score": 1.0,
    "size": 1
  }
]
""",
    "label_ranking.json": """\
{
  "all": [
    {
      "count": 4,
      "label": "dog",
      "mean_score": 0.625
    },
    {
      "count": 5,
      "label": "cat",
      "mean_score": 0.4
    }
  ],
  "bottom": [
    {
      "count": 5,
      "label": "cat",
      "mean_score": 0.4
    },
    {
      "count": 4,
      "label": "dog",
      "mean_score": 0.625
    }
  ],
  "min_count": 3,
  "top": [
    {
      "count": 4,
      "label": "dog",
      "mean_score": 0.625
    },
    {
      "count": 5,
      "label": "cat",
      "mean_score": 0.4
    }
  ]
}
""",
    "manifest.json": """\
{
  "command": "analyze",
  "config": {
    "min_count": 3,
    "top_k": 2
  },
  "config_hash": "c0ffee123456",
  "dataset": {
    "dims": null,
    "images": null,
    "source": null
  },
  "version": "VERSION",
}
""".replace("VERSION", cli.__version__),
}
PINNED_SWEEP_OUTPUTS = {
    "consistency.csv": """\
run_id,base_seed=1,base_seed=2,base_seed=3
base_seed=1,1.0,n/a,-0.5
base_seed=2,n/a,1.0,n/a
base_seed=3,-0.5,n/a,1.0
""",
    "consistency.json": """\
{
  "matrix": [
    [
      1.0,
      "n/a",
      -0.5
    ],
    [
      "n/a",
      1.0,
      "n/a"
    ],
    [
      -0.5,
      "n/a",
      1.0
    ]
  ],
  "run_ids": [
    "base_seed=1",
    "base_seed=2",
    "base_seed=3"
  ],
  "runs": [
    {
      "config_hash": "hash1",
      "m_effective": 2,
      "run_id": "base_seed=1"
    },
    {
      "config_hash": "hash2",
      "m_effective": 2,
      "run_id": "base_seed=2"
    },
    {
      "config_hash": "hash3",
      "m_effective": 2,
      "run_id": "base_seed=3"
    }
  ]
}
""",
    "run_base_seed_1/scores.csv": """\
image_id,score,m_effective,machine,config_hash,base_seed
a,0.0,2,mlp[8|in3x6x6],hash1,1
b,0.5,2,mlp[8|in3x6x6],hash1,1
c,0.5,2,mlp[8|in3x6x6],hash1,1
d,1.0,2,mlp[8|in3x6x6],hash1,1
""",
}


def written_text(path):
    """A written file's text; the csv module ends each CSV row in \\r\\n, shown here as \\n."""
    text = path.read_bytes().decode()
    if path.suffix == ".csv":
        assert text.count("\n") == text.count("\r\n")
        text = text.replace("\r\n", "\n")
    return text


def test_analyze_report_files_are_pinned(tmp_path):
    for name, text in (("scores.csv", PINNED_SCORES), ("attributes.csv", PINNED_ATTRIBUTES),
                       ("extra.csv", PINNED_MERGE), ("labels.csv", PINNED_LABELS),
                       ("an.json", '{"top_k": 2, "min_count": 3}')):
        (tmp_path / name).write_text(text)
    out = tmp_path / "analysis"
    code = run_cli(
        "analyze", "--config", str(tmp_path / "an.json"), "--scores", str(tmp_path / "scores.csv"),
        "--attributes", str(tmp_path / "attributes.csv"), "--merge-csv", str(tmp_path / "extra.csv"),
        "--labels", str(tmp_path / "labels.csv"), "--out", str(out),
    )
    assert code == 0
    for name, expected in PINNED_ANALYZE_OUTPUTS.items():
        text = written_text(out / name)
        if name == "manifest.json":
            text = "".join(line for line in text.splitlines(keepends=True) if '"wall_time_s"' not in line)
        assert text == expected, name


def test_sweep_consistency_files_are_pinned(tmp_path, ppm_dataset_dir, monkeypatch):
    # Each sub-run's score table is hand-written; base_seed=2 scores every image
    # alike, so its correlation with either other run is undefined.
    tables = {
        1: {"a": 0.0, "b": 0.5, "c": 0.5, "d": 1.0},
        2: {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5},
        3: {"a": 1.0, "b": 0.5, "c": 0.0, "d": 0.5},
    }

    def fake_measure(dataset, set_a, config, workers=1):
        table = ScoreTable(tables[config.base_seed], 2, config.machine.descriptor(), f"hash{config.base_seed}", config.base_seed)
        return table, []

    monkeypatch.setattr(measurer, "measure", fake_measure)
    config = measure_config(tmp_path, knob="base_seed", values=[1, 2, 3])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 0
    for name, expected in PINNED_SWEEP_OUTPUTS.items():
        assert written_text(out / name) == expected, name


# --- train-predictor / predict ------------------------------------------------------

def test_train_and_predict_roundtrip(tmp_path):
    dataset, scores = synth.brightness_scored_images(count=30, seed=17, size=6)
    data_dir = synth.write_ppm_dataset(dataset, tmp_path / "data")
    from memmeter.measurer import ScoreTable, write_score_csv

    table = ScoreTable(scores=scores, m_effective=10, machine="fixture", config_hash="h", base_seed=0)
    scores_csv = tmp_path / "scores.csv"
    write_score_csv(table, scores_csv)

    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({"epochs": 2, "batch_size": 8, "test_fraction": 0.2, "augment": False}))
    train_out = tmp_path / "trained"
    code = run_cli(
        "train-predictor",
        "--config", str(train_config),
        "--scores", str(scores_csv),
        "--data", str(data_dir),
        "--out", str(train_out),
    )
    assert code == 0
    assert (train_out / "predictor.mmt1").exists()
    evaluation = json.loads((train_out / "eval.json").read_text())
    assert evaluation["test_images"] == 6
    history = (train_out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_mse"
    assert len(history) == 3

    predict_out = tmp_path / "pred"
    code = run_cli(
        "predict",
        "--model", str(train_out / "predictor.mmt1"),
        "--data", str(data_dir),
        "--out", str(predict_out),
    )
    assert code == 0
    lines = (predict_out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "image_id,predicted_score"
    assert len(lines) == 31
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 < v < 1.0 for v in values)


def test_predict_before_train_is_explicit_error(tmp_path, ppm_dataset_dir, capsys):
    code = run_cli(
        "predict", "--model", str(tmp_path / "missing.mmt1"), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json",
        "[1, 2]",
        '{"kind": "small_cnn", "widht": 8}',
        '{"kind": "bogus"}',
        '{"kind": "mlp", "hidden": []}',
        '{"kind": "mlp", "hidden": 5}',
    ],
)
def test_predict_with_malformed_sidecar_exits_3(tmp_path, ppm_dataset_dir, sidecar, capsys):
    model = tmp_path / "predictor.mmt1"
    model.write_bytes(b"")
    (tmp_path / "predictor.mmt1.json").write_text(sidecar)
    code = run_cli("predict", "--model", str(model), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 3
    assert "predictor.mmt1.json" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------------------

def test_sweep_two_seeds_gives_symmetric_unit_diagonal_matrix(tmp_path, ppm_dataset_dir):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "knob": "base_seed",
                "values": [1, 2],
                "n": 4,
                "m": 2,
                "epochs_a": 1,
                "epochs_b": 1,
                "accuracy_gate": 0.01,
                "machine": {"kind": "mlp", "hidden": [8]},
            }
        )
    )
    out = tmp_path / "sweep-out"
    code = run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "consistency.json").read_text())
    assert payload["run_ids"] == ["base_seed=1", "base_seed=2"]
    matrix = payload["matrix"]
    assert matrix[0][0] == 1.0 and matrix[1][1] == 1.0
    assert matrix[0][1] == matrix[1][0]
    rows = (out / "consistency.csv").read_text().splitlines()
    assert rows[0] == "run_id,base_seed=1,base_seed=2"
    assert (out / "run_base_seed_1" / "scores.csv").exists()


def test_sweep_epochs_b_knob(tmp_path, ppm_dataset_dir):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "knob": "epochs_b",
                "values": [1, 2],
                "n": 4,
                "m": 2,
                "epochs_a": 1,
                "accuracy_gate": 0.01,
                "machine": {"kind": "mlp", "hidden": [8]},
            }
        )
    )
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 0
    payload = json.loads((out / "consistency.json").read_text())
    for row in payload["matrix"]:
        for cell in row:
            assert cell == "n/a" or -1.0 <= cell <= 1.0


def test_sweep_run_equals_plain_measure(tmp_path, ppm_dataset_dir):
    # measure_config has epochs_b 2; both commands draw set A from its base_seed.
    sweep_out, measure_out = tmp_path / "sweep-out", tmp_path / "measure-out"
    config = measure_config(tmp_path, knob="epochs_b", values=[1, 2])
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(sweep_out)) == 0
    config = measure_config(tmp_path)
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(measure_out)) == 0
    for name in ("scores.csv", "episodes.jsonl"):
        assert (sweep_out / "run_epochs_b_2" / name).read_bytes() == (measure_out / name).read_bytes()


def test_sweep_single_value_is_usage_error(tmp_path, ppm_dataset_dir, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"knob": "base_seed", "values": [1]}))
    code = run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_sweep_unknown_knob_is_usage_error(tmp_path, ppm_dataset_dir):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"knob": "galaxy", "values": [1, 2]}))
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o")) == 2


def test_sweep_checks_every_value_before_the_first_run(tmp_path, ppm_dataset_dir, capsys):
    config = measure_config(tmp_path, knob="n", values=[4, "5"])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert "'n'" in capsys.readouterr().err
    assert not (out / "run_n_4" / "scores.csv").exists()


# --- misc -------------------------------------------------------------------------------

def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("frobnicate")
    assert excinfo.value.code == 2


def test_commands_do_not_mutate_input_dataset(tmp_path, ppm_dataset_dir):
    before = {p.name: p.read_bytes() for p in sorted(ppm_dataset_dir.iterdir())}
    config = measure_config(tmp_path)
    run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    after = {p.name: p.read_bytes() for p in sorted(ppm_dataset_dir.iterdir())}
    assert before == after
