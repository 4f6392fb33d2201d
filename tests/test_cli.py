"""Command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

import synth
from memmeter import cli
from memmeter.measurer import read_score_csv
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
        "workers": None,
    }


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


def test_measure_missing_data_exits_2(tmp_path):
    config = measure_config(tmp_path)
    code = run_cli("measure", "--config", str(config), "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o"))
    assert code == 2


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
    dataset = synth.Dataset([synth.random_image("only", rng, size=4)])
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


def test_analyze_requires_scores(tmp_path, capsys):
    assert run_cli("analyze", "--out", str(tmp_path / "o")) == 2
    assert "--scores" in capsys.readouterr().err


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
