"""Command-line interface: outputs, determinism, exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import logging
import math
import re
import shlex
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import synth
from memmeter import analysis, cli, measurer, predictor
from memmeter.data import Dataset, write_ppm
from memmeter.engine.checkpoint import save_params
from memmeter.engine.machine import MachineSpec, build_machine
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


@pytest.mark.parametrize("affinity,expected", [({3}, 1), ({0, 2, 5}, 3), (None, 8)])
def test_default_workers_count_the_cores_the_process_may_run_on(monkeypatch, affinity, expected):
    # None: a platform without sched_getaffinity, where os.cpu_count() decides.
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    args = argparse.Namespace(config=None, seed=None, workers=None)
    assert cli._load_config(args, {"workers": None})["workers"] == expected
    args.workers = 2
    assert cli._load_config(args, {"workers": None})["workers"] == 2


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


@pytest.mark.parametrize("name", ["missing.json", "a-directory"])
def test_config_path_that_is_not_a_file_exits_2_without_outputs(tmp_path, name, capsys):
    (tmp_path / "a-directory").mkdir()
    scores = write_score_rows(tmp_path / "scores.csv")
    config = tmp_path / name
    assert run_cli("analyze", "--config", str(config), "--scores", str(scores), "--out", str(tmp_path / "o")) == 2
    assert f"config error: config file not found: {config}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("measure", {"lr_a": math.nan}),
        ("measure", {"lr_b": math.inf}),
        ("measure", {"weight_decay": math.inf}),
        ("sweep", {"knob": "lr_a", "values": [0.01, math.nan]}),
        ("train-predictor", {"lr": math.nan}),
        ("train-predictor", {"lr": math.inf}),
    ],
    ids=lambda param: json.dumps(param) if isinstance(param, dict) else param,
)
def test_non_finite_config_number_exits_2_without_outputs(tmp_path, ppm_dataset_dir, command, overrides, capsys):
    # Python's json reads NaN and Infinity, so a config file can hold them.
    out = tmp_path / "o"
    assert run_cli(command, *_config_argv(tmp_path, ppm_dataset_dir, command, overrides), "--out", str(out)) == 2
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("measure", {"lr_a": 10**400}, "lr_a"),
        ("measure", {"weight_decay": -(10**400)}, "weight_decay"),
        ("sweep", {"knob": "lr_a", "values": [0.01, 10**400]}, "lr_a"),
        ("train-predictor", {"lr": 10**400}, "lr"),
    ],
    ids=["measure-lr_a", "measure-weight_decay", "sweep-lr_a", "train-predictor-lr"],
)
def test_float_key_given_an_int_too_large_for_a_float_exits_2_without_outputs(
    tmp_path, ppm_dataset_dir, command, overrides, key, capsys
):
    # json reads any integer exactly; float() of one past the float range raises OverflowError.
    out = tmp_path / "o"
    assert run_cli(command, *_config_argv(tmp_path, ppm_dataset_dir, command, overrides), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and f"{key!r} must be float" in err
    assert not out.exists()


def _config_argv(tmp_path, ppm_dataset_dir, command, overrides):
    """`command`'s --config and input flags, for a one-epoch config with `overrides`."""
    if command != "train-predictor":
        return ["--config", str(measure_config(tmp_path, **overrides)), "--data", str(ppm_dataset_dir)]
    dataset, scores = synth.brightness_scored_images(count=20, seed=17, size=6)
    data = synth.write_ppm_dataset(dataset, tmp_path / "data")
    measurer.write_score_csv(ScoreTable(scores, 10, "fixture", "h", 0), tmp_path / "scores.csv")
    config = tmp_path / "train.json"
    config.write_text(json.dumps(dict(overrides, epochs=1)))
    return ["--config", str(config), "--scores", str(tmp_path / "scores.csv"), "--data", str(data)]


def test_measure_missing_data_exits_2(tmp_path):
    config = measure_config(tmp_path)
    code = run_cli("measure", "--config", str(config), "--data", str(tmp_path / "void"), "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize(
    "hidden, code, message",
    [(None, 2, "init_checkpoint file not found"), ((16,), 3, "shape mismatch for fc0.weight")],
    ids=["missing", "mismatched"],
)
def test_measure_checks_init_checkpoint_before_measuring(tmp_path, ppm_dataset_dir, hidden, code, message, capsys):
    checkpoint = tmp_path / "start.mmt1"
    if hidden is not None:
        spec = MachineSpec(kind="mlp", hidden=hidden, in_channels=3, height=6, width=6)
        save_params(build_machine(spec, 4, 1).parameters(), checkpoint)
    config = measure_config(tmp_path, init_checkpoint=str(checkpoint))
    out = tmp_path / "run"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == code
    err = capsys.readouterr().err
    assert message in err and str(checkpoint) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,overrides",
    [("measure", {"init_checkpoint": ""}), ("sweep", {"knob": "init_checkpoint", "values": [None, ""]})],
)
def test_empty_init_checkpoint_exits_2_without_outputs(tmp_path, ppm_dataset_dir, command, overrides, capsys):
    # "" would measure as null does, under another config hash.
    config = measure_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert "init_checkpoint must name a checkpoint file or be null" in capsys.readouterr().err
    assert not out.exists()


def test_measure_runs_its_preflight_check_once(tmp_path, ppm_dataset_dir, monkeypatch):
    calls = []
    check = measurer.check_measurement
    monkeypatch.setattr(measurer, "check_measurement", lambda *args: calls.append(args) or check(*args))
    config = measure_config(tmp_path)
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "run")) == 0
    assert len(calls) == 1


def test_sweep_runs_each_preflight_check_once(tmp_path, ppm_dataset_dir, monkeypatch):
    calls = []
    check = measurer.check_measurement
    monkeypatch.setattr(measurer, "check_measurement", lambda *args: calls.append(args) or check(*args))
    config = measure_config(tmp_path, knob="base_seed", values=[1, 2])
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "sweep")) == 0
    assert [args[2].base_seed for args in calls] == [1, 2]


@pytest.mark.parametrize(
    "set_a, message",
    [
        (["ramp000", "ramp001", "ramp002"], "set_a holds 3 ids but n=4"),
        (["ramp000", "ramp001", "ramp999", "ramp003"], "unknown image id 'ramp999'"),
        (["ramp000", "ramp001", "ramp000", "ramp003"], "image id 'ramp000' twice"),
    ],
    ids=["count", "unknown", "repeated"],
)
def test_measure_with_bad_set_a_exits_2_without_outputs(tmp_path, ppm_dataset_dir, set_a, message, capsys):
    config = measure_config(tmp_path, set_a=set_a)
    out = tmp_path / "run"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_measure_on_non_square_images_exits_2_without_outputs(tmp_path, capsys):
    wide = Dataset([f"w{i:02d}" for i in range(12)], np.full((12, 3, 6, 8), 0.5))
    data = synth.write_ppm_dataset(wide, tmp_path / "wide")
    out = tmp_path / "run"
    assert run_cli("measure", "--config", str(measure_config(tmp_path)), "--data", str(data), "--out", str(out)) == 2
    assert "square images, dataset images are 6x8" in capsys.readouterr().err
    assert not out.exists()


MMT1_NAME_NOT_UTF8 = b"MMT1" + (3).to_bytes(4, "little") + b"fc\xff"
MMT1_SIZE_OVERFLOW = (
    b"MMT1" + (10).to_bytes(4, "little") + b"fc0.weight" + (3).to_bytes(4, "little")
    + b"".join(dim.to_bytes(4, "little") for dim in (2**31, 2**31, 4))
)
MMT1_NAME_TWICE = b"MMT1" + 2 * ((2).to_bytes(4, "little") + b"fc" + (0).to_bytes(4, "little") + bytes(8))
BAD_CHECKPOINTS = pytest.mark.parametrize(
    "blob, message",
    [(MMT1_NAME_NOT_UTF8, "name is not UTF-8 (byte offset 10)"),
     (MMT1_SIZE_OVERFLOW, "truncated checkpoint while reading values of fc0.weight (byte offset 34)"),
     (MMT1_NAME_TWICE, "parameter 'fc' appears twice (byte offset 26)")],
    ids=["name-not-utf8", "size-overflow", "name-twice"],
)


@BAD_CHECKPOINTS
def test_measure_with_malformed_init_checkpoint_exits_3_without_outputs(tmp_path, ppm_dataset_dir, blob, message, capsys):
    checkpoint = tmp_path / "start.mmt1"
    checkpoint.write_bytes(blob)
    config = measure_config(tmp_path, init_checkpoint=str(checkpoint))
    out = tmp_path / "run"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(checkpoint) in err and message in err
    assert not out.exists()


@BAD_CHECKPOINTS
def test_predict_with_malformed_model_exits_3(tmp_path, ppm_dataset_dir, blob, message, capsys):
    model = tmp_path / "predictor.mmt1"
    model.write_bytes(blob)
    (tmp_path / "predictor.mmt1.json").write_text('{"kind": "mlp", "hidden": [8], "in_channels": 3, "height": 6, "width": 6}')
    out = tmp_path / "o"
    assert run_cli("predict", "--model", str(model), "--data", str(ppm_dataset_dir), "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_diverging_measure_is_not_reported_as_config_error(tmp_path, ppm_dataset_dir, capsys):
    # lr_b 1e8 drives stage (b)'s logits to infinity: an internal failure, not a bad config.
    config = measure_config(tmp_path, lr_b=1e8, machine={"kind": "small_cnn"})
    with pytest.raises(ValueError, match="non-finite logits"):
        run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"), "--workers", "1")
    assert "config error" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_measure_with_every_episode_below_the_gate_exits_4_without_outputs(tmp_path, ppm_dataset_dir, capsys):
    # lr_a 0 keeps stage (a) at its random init, far below a 100% gate.
    config = measure_config(tmp_path, lr_a=0.0, accuracy_gate=1.0)
    out = tmp_path / "o"
    assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 4
    assert "all 2 episodes failed the 100% accuracy gate" in capsys.readouterr().err
    assert not out.exists()


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


# --- datasets ---------------------------------------------------------------------

@pytest.mark.parametrize("name", ["void", "images.txt", "empty"])
def test_data_path_of_no_dataset_format_exits_2_without_outputs(tmp_path, name, capsys):
    (tmp_path / "images.txt").write_text("not a dataset\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("")
    data, out = tmp_path / name, tmp_path / "o"
    assert run_cli("attributes", "--data", str(data), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and str(data) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, given, missing",
    [
        ("attributes", "--out", "--data"),
        ("measure", "--data", "--out"),
        ("predict", "--data --out", "--model"),
        ("train-predictor", "--data --out", "--scores"),
    ],
)
def test_missing_required_flag_is_usage_error(tmp_path, ppm_dataset_dir, command, given, missing, capsys):
    values = {"--data": str(ppm_dataset_dir), "--out": str(tmp_path / "o")}
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command, *itertools.chain.from_iterable((flag, values[flag]) for flag in given.split()))
    assert excinfo.value.code == 2
    assert f"required: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["manifest", "empty.bin", "bins"])
def test_data_without_images_exits_3_naming_the_path(tmp_path, name, capsys):
    (tmp_path / "manifest").mkdir()
    (tmp_path / "manifest" / "manifest.csv").write_text("id,filename\n")
    (tmp_path / "empty.bin").write_bytes(b"")
    (tmp_path / "bins").mkdir()
    (tmp_path / "bins" / "data_batch_1.bin").write_bytes(b"")
    named = tmp_path / name / "manifest.csv" if name == "manifest" else tmp_path / name
    out = tmp_path / "o"
    assert run_cli("attributes", "--data", str(tmp_path / name), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "data format error: " in err and str(named) in err
    assert not out.exists()


def test_ppm_sample_above_maxval_exits_3_naming_file_and_offset(tmp_path, ppm_dataset_dir, capsys):
    data = shutil.copytree(ppm_dataset_dir, tmp_path / "data")
    bad = data / "ramp003.ppm"
    bad.write_bytes(b"P6\n6 6\n100\n" + bytes([100] * 20 + [200] + [0] * 87))
    out = tmp_path / "o"
    assert run_cli("attributes", "--data", str(data), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "sample 200 above maxval 100 (byte offset 31)" in err
    assert not out.exists()


def test_ppm_images_of_different_sizes_exit_3_naming_the_file(tmp_path, capsys):
    rng = make_rng("mixed-sizes")
    data = tmp_path / "data"
    data.mkdir()
    write_ppm(synth.random_image("a", rng, size=4), data / "a.ppm")
    write_ppm(synth.random_image("b", rng, size=5), data / "b.ppm")
    out = tmp_path / "o"
    assert run_cli("attributes", "--data", str(data), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "data format error: " in err and str(data / "b.ppm") in err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [("ramp000,ramp001.ppm", "manifest row 18 repeats image id 'ramp000'"),
     ("extra,extra.ppm", "manifest row 18 names missing file 'extra.ppm'")],
    ids=["repeated-id", "missing-file"],
)
def test_bad_manifest_row_exits_3_naming_manifest_and_row(tmp_path, ppm_dataset_dir, row, message, capsys):
    data = shutil.copytree(ppm_dataset_dir, tmp_path / "data")
    manifest = data / "manifest.csv"
    manifest.write_text(manifest.read_text() + row + "\n")
    out = tmp_path / "o"
    assert run_cli("attributes", "--data", str(data), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(manifest) in err and message in err
    assert not out.exists()


def test_log_level_env_var(tmp_path, ppm_dataset_dir, monkeypatch):
    root = logging.getLogger()
    # basicConfig sets the level only on a root logger without handlers; pytest has given it some.
    monkeypatch.setattr(root, "handlers", [])
    before = root.level
    config = measure_config(tmp_path)
    # basic_format and _styles name attributes of the logging module that are not levels.
    for name, level in [("INFO", logging.INFO), ("basic_format", logging.WARNING),
                        ("_styles", logging.WARNING), ("no_such_level", logging.WARNING)]:
        monkeypatch.setenv("MEMMETER_LOG", name)
        root.handlers.clear()
        out = tmp_path / name
        try:
            code = run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out))
            set_level = root.level
        finally:
            root.setLevel(before)
        assert (name, code, set_level) == (name, 0, level)
        assert (out / "scores.csv").exists()


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


@pytest.mark.parametrize("labels_text", [None, "image_id,label\nimg99,cat\n"], ids=["missing", "no-scored-image"])
def test_analyze_with_unusable_labels_exits_2_without_outputs(tmp_path, labels_text, capsys):
    scores = write_score_rows(tmp_path / "scores.csv")
    labels = tmp_path / "labels.csv"
    if labels_text is not None:
        labels.write_text(labels_text)
    out = tmp_path / "a"
    assert run_cli("analyze", "--scores", str(scores), "--labels", str(labels), "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


def test_analyze_score_rows_of_two_runs_exit_3(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(",".join(SCORE_HEADER) + "\na,0.5,2,x,h1,0\nb,0.25,4,x,h2,0\n")
    assert run_cli("analyze", "--scores", str(scores), "--out", str(tmp_path / "a")) == 3
    err = capsys.readouterr().err
    assert str(scores) in err and "row of 'b' disagrees" in err
    assert not (tmp_path / "a").exists()


def test_analyze_requires_scores(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("analyze", "--out", str(tmp_path / "o"))
    assert excinfo.value.code == 2
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
def test_missing_table_file_exits_2(tmp_path, ppm_dataset_dir, command, flag, capsys):
    missing = tmp_path / "nope.csv"
    argv = [command, flag, str(missing), "--out", str(tmp_path / "o")]
    if flag != "--scores":
        argv += ["--scores", str(write_score_rows(tmp_path / "scores.csv"))]
    if command == "train-predictor":
        argv += ["--data", str(ppm_dataset_dir)]
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

@pytest.mark.parametrize(
    "command, flag, text, line, image_id",
    [
        ("analyze", "--scores", ",".join(SCORE_HEADER) + "\na,0.5,2,m,h,0\na,1.0,2,m,h,0\nb,0.0,2,m,h,0\n", 3, "a"),
        ("analyze", "--attributes", "image_id,hue,saturation,value,contrast,colorfulness,entropy\n"
                                    "ramp000,1,1,1,1,1,1\nramp000,2,2,2,2,2,2\n", 3, "ramp000"),
        ("analyze", "--merge-csv", "image_id,human\nramp000,0.5\n\nramp000,0.25\n", 4, "ramp000"),
        ("analyze", "--labels", "image_id,label\nramp000,cat\nramp000,dog\n", 3, "ramp000"),
        ("train-predictor", "--scores", ",".join(SCORE_HEADER) + "\na,0.5,2,m,h,0\na,1.0,2,m,h,0\n", 3, "a"),
    ],
    ids=["scores", "attributes", "merge-csv", "labels", "train-predictor-scores"],
)
def test_table_with_a_repeated_image_id_exits_3_without_outputs(
    tmp_path, ppm_dataset_dir, command, flag, text, line, image_id, capsys
):
    table = tmp_path / "table.csv"
    table.write_text(text)
    out = tmp_path / "o"
    argv = [command, flag, str(table), "--out", str(out)]
    if flag != "--scores":
        argv += ["--scores", str(write_score_rows(tmp_path / "scores.csv"))]
    if command == "train-predictor":
        argv += ["--data", str(ppm_dataset_dir)]
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert str(table) in err and f"line {line} repeats image id {image_id!r}" in err
    assert not out.exists()


NOT_UTF8 = b"\xff" + bytes(make_rng("not-utf8").integers(0, 256, 199, dtype=np.uint8))


@pytest.mark.parametrize(
    "command, bad_file, code",
    [("analyze", "scores.csv", 3), ("measure", "config.json", 2), ("measure", "manifest.csv", 3)],
)
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, ppm_dataset_dir, command, bad_file, code, capsys):
    data = shutil.copytree(ppm_dataset_dir, tmp_path / "data")
    paths = {
        "scores.csv": tmp_path / "scores.csv",
        "config.json": measure_config(tmp_path),
        "manifest.csv": data / "manifest.csv",
    }
    paths[bad_file].write_bytes(NOT_UTF8)
    if command == "analyze":
        argv = ["analyze", "--scores", str(paths["scores.csv"])]
    else:
        argv = ["measure", "--config", str(paths["config.json"]), "--data", str(data)]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == code
    err = capsys.readouterr().err
    assert str(paths[bad_file]) in err and "not UTF-8" in err and "byte offset 0" in err


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
    "run_0/scores.csv": """\
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

    def fake_measure(dataset, set_a, config, workers):
        table = ScoreTable(tables[config.base_seed], 2, config.machine.descriptor(), f"hash{config.base_seed}", config.base_seed)
        return table, []

    # sweep checks every sub-run first, then runs each through measure()'s checked half.
    monkeypatch.setattr(measurer, "_measure_checked", fake_measure)
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
    # The manifest records the machine as built for the dataset, as the architecture sidecar does.
    manifest = json.loads((train_out / "manifest.json").read_text())
    assert manifest["config"]["machine"] == json.loads((train_out / "predictor.mmt1.json").read_text())
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


def test_train_predictor_with_under_three_test_ids_exits_2_before_training(tmp_path, capsys):
    dataset, scores = synth.brightness_scored_images(count=12, seed=17, size=6)
    data_dir = synth.write_ppm_dataset(dataset, tmp_path / "data")
    scores_csv = tmp_path / "scores.csv"
    measurer.write_score_csv(ScoreTable(scores, 10, "fixture", "h", 0), scores_csv)
    out = tmp_path / "trained"
    code = run_cli("train-predictor", "--scores", str(scores_csv), "--data", str(data_dir), "--out", str(out))
    assert code == 2
    assert "test_fraction 0.2 leaves 2 of 12 ids for testing" in capsys.readouterr().err
    assert not (out / "predictor.mmt1").exists()


@pytest.mark.parametrize("machine", [{}, [], 0, False, ""], ids=json.dumps)
def test_train_predictor_with_empty_machine_exits_2_without_outputs(tmp_path, machine, capsys):
    # Only a missing or null machine key means "the default small_cnn", as in measure.
    dataset, scores = synth.brightness_scored_images(count=20, seed=17, size=6)
    data_dir = synth.write_ppm_dataset(dataset, tmp_path / "data")
    measurer.write_score_csv(ScoreTable(scores, 10, "fixture", "h", 0), tmp_path / "scores.csv")
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, "machine": machine}))
    out = tmp_path / "trained"
    argv = ["--config", str(config), "--scores", str(tmp_path / "scores.csv"), "--data", str(data_dir)]
    assert run_cli("train-predictor", *argv, "--out", str(out)) == 2
    assert 'machine config must be an object with a "kind" field' in capsys.readouterr().err
    assert not out.exists()


def test_predict_before_train_is_explicit_error(tmp_path, ppm_dataset_dir, capsys):
    code = run_cli(
        "predict", "--model", str(tmp_path / "missing.mmt1"), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_predict_on_images_the_model_does_not_fit_exits_2_without_outputs(tmp_path, ppm_dataset_dir, capsys):
    model = tmp_path / "predictor.mmt1"
    predictor.save_predictor(predictor.build_predictor(MachineSpec("small_cnn", 3, 8, 8), seed=0), model)
    out = tmp_path / "o"
    assert run_cli("predict", "--model", str(model), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json",
        "[1, 2]",
        '{"kind": "small_cnn", "widht": 8}',
        '{"kind": "bogus"}',
        '{"kind": "mlp", "hidden": []}',
        '{"kind": "mlp", "hidden": 5}',
        '{"kind": "mlp", "hidden": [8], "activation": "tanh"}',
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
    assert (out / "run_0" / "scores.csv").exists()


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
    # run_<i> holds what measure writes with the knob set to values[i]; both
    # commands draw set A from measure_config's base_seed.
    spec = MachineSpec(kind="mlp", hidden=(8,), in_channels=3, height=6, width=6)
    checkpoints = [str(tmp_path / f"start{seed}.mmt1") for seed in (1, 2)]
    for seed, path in zip((1, 2), checkpoints):
        save_params(build_machine(spec, 4, seed).parameters(), path)
    cases = [
        ("epochs_b", [1, 2], {}),
        ("machine", [{"kind": "linear"}, {"kind": "mlp", "hidden": [8]}], {"pretext_mode": "binary"}),
        ("init_checkpoint", checkpoints, {}),
    ]
    for knob, values, base in cases:
        sweep_out = tmp_path / f"sweep-{knob}"
        config = measure_config(tmp_path, knob=knob, values=values, **base)
        assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(sweep_out)) == 0
        swept = json.loads((sweep_out / "manifest.json").read_text())["config"]
        for i, value in enumerate(values):
            measure_out = tmp_path / f"measure-{knob}-{i}"
            config = measure_config(tmp_path, **base, **{knob: value})
            assert run_cli("measure", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(measure_out)) == 0
            for name in ("scores.csv", "episodes.jsonl"):
                assert (sweep_out / f"run_{i}" / name).read_bytes() == (measure_out / name).read_bytes(), (knob, i, name)
            # Both manifests record the machine as built for the dataset.
            machine = json.loads((measure_out / "manifest.json").read_text())["config"]["machine"]
            assert (swept["values"][i] if knob == "machine" else swept["machine"]) == machine, (knob, i)
    run_ids = json.loads((tmp_path / "sweep-machine" / "consistency.json").read_text())["run_ids"]
    assert run_ids == ["machine=linear[in3x6x6]", "machine=mlp[8|in3x6x6]"]


def test_sweep_over_fewer_than_three_shared_ids_writes_undefined_cells(tmp_path, ppm_dataset_dir):
    # At n=2 both runs score the same two images of set A, too few for a rank correlation.
    config = measure_config(tmp_path, n=2, knob="base_seed", values=[1, 2])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == "sweep"
    assert json.loads((out / "consistency.json").read_text())["matrix"] == [[1.0, "n/a"], ["n/a", 1.0]]
    rows = (out / "consistency.csv").read_text().splitlines()
    assert rows == ["run_id,base_seed=1,base_seed=2", "base_seed=1,1.0,n/a", "base_seed=2,n/a,1.0"]


def test_sweep_single_value_is_usage_error(tmp_path, ppm_dataset_dir, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"knob": "base_seed", "values": [1]}))
    code = run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "at least 2" in capsys.readouterr().err


def test_sweep_unknown_knob_is_usage_error(tmp_path, ppm_dataset_dir, capsys):
    # set_a and workers are measure keys but not EpisodeConfig fields; machine_kind was a knob once.
    config = tmp_path / "sweep.json"
    for knob in ("galaxy", "set_a", "workers", "machine_kind", ["n"]):
        config.write_text(json.dumps({"knob": knob, "values": [1, 2]}))
        assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(tmp_path / "o")) == 2
        assert "sweep knob must be one of" in capsys.readouterr().err


def test_sweep_values_that_make_one_run_are_usage_error(tmp_path, ppm_dataset_dir, capsys):
    # A linear machine has no fc layer, so fc_width changes neither its descriptor nor the config hash.
    cases = [
        ("machine", [{"kind": "linear"}, {"kind": "linear", "fc_width": 32}], {"pretext_mode": "binary"}),
        ("base_seed", [1, 2, 1], {}),
        ("accuracy_gate", [1, 1.0], {}),  # one protocol, however the float is written
        ("weight_decay", [0, 0.0], {}),
    ]
    for knob, values, base in cases:
        config = measure_config(tmp_path, knob=knob, values=values, **base)
        out = tmp_path / f"sweep-{knob}"
        assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
        assert "are one run" in capsys.readouterr().err
        assert not (out / "run_0" / "scores.csv").exists()


def test_sweep_checks_every_value_before_the_first_run(tmp_path, ppm_dataset_dir, capsys):
    config = measure_config(tmp_path, knob="n", values=[4, "5"])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert "'n'" in capsys.readouterr().err
    assert not (out / "run_0" / "scores.csv").exists()


def test_sweep_with_bad_set_a_exits_2_before_the_first_run(tmp_path, ppm_dataset_dir, capsys):
    config = measure_config(tmp_path, knob="base_seed", values=[1, 2], set_a=["ramp000", "ramp001", "ramp002", "ramp999"])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert "unknown image id 'ramp999'" in capsys.readouterr().err
    assert not (out / "run_0").exists()


def test_sweep_checks_every_init_checkpoint_before_the_first_run(tmp_path, ppm_dataset_dir, capsys):
    good, missing = tmp_path / "good.mmt1", tmp_path / "missing.mmt1"
    spec = MachineSpec(kind="mlp", hidden=(8,), in_channels=3, height=6, width=6)
    save_params(build_machine(spec, 4, 1).parameters(), good)
    config = measure_config(tmp_path, knob="init_checkpoint", values=[str(good), str(missing)])
    out = tmp_path / "sweep-out"
    assert run_cli("sweep", "--config", str(config), "--data", str(ppm_dataset_dir), "--out", str(out)) == 2
    assert str(missing) in capsys.readouterr().err
    assert not (out / "run_0" / "scores.csv").exists()


# --- every command ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def every_command(tmp_path_factory, ppm_dataset_dir):
    """Each command run once on the ramp pool, in pipeline order: {command: (exit code, stdout, manifest)}.

    The manifest is its text without the wall_time_s line; the output root, the data
    path and the version read OUT, DATA and VERSION in stdout and manifest alike."""
    work = tmp_path_factory.mktemp("commands")
    (work / "measure.json").write_text(json.dumps(
        {"n": 5, "m": 2, "epochs_a": 1, "epochs_b": 2, "accuracy_gate": 0.01, "base_seed": 5,
         "machine": {"kind": "mlp", "hidden": [8]}}))
    (work / "train.json").write_text(json.dumps({"epochs": 2, "batch_size": 4, "test_fraction": 0.6}))
    (work / "analyze.json").write_text(json.dumps({"top_k": 1}))
    (work / "sweep.json").write_text(json.dumps(
        {"n": 4, "m": 2, "epochs_a": 1, "epochs_b": 1, "accuracy_gate": 0.01,
         "machine": {"kind": "mlp", "hidden": [8]}, "knob": "base_seed", "values": [1, 2]}))
    data = str(ppm_dataset_dir)

    def placeholders(text):
        version = f'"version": "{cli.__version__}"'
        return text.replace(str(work), "OUT").replace(data, "DATA").replace(version, '"version": "VERSION"')

    argvs = {
        "measure": f"--config {work}/measure.json --data {data} --out {work}/measure --workers 1",
        "attributes": f"--data {data} --out {work}/attributes",
        "analyze": f"--config {work}/analyze.json --scores {work}/measure/scores.csv "
                   f"--attributes {work}/attributes/attributes.csv --out {work}/analyze",
        "train-predictor": f"--config {work}/train.json --scores {work}/measure/scores.csv --data {data} "
                           f"--out {work}/train-predictor --seed 3",
        "predict": f"--model {work}/train-predictor/predictor.mmt1 --data {data} --out {work}/predict",
        "sweep": f"--config {work}/sweep.json --data {data} --out {work}/sweep --workers 1",
    }
    runs = {}
    for command, argv in argvs.items():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run_cli(command, *argv.split())
        manifest = "".join(line for line in (work / command / "manifest.json").read_text().splitlines(keepends=True)
                           if '"wall_time_s"' not in line)
        runs[command] = (code, placeholders(stdout.getvalue()), placeholders(manifest))
    return runs


# What each command of `every_command` prints and records.
PINNED_RUNS = {
    "measure": (
        "measured 5 images over 2/2 episodes -> OUT/measure/scores.csv\n",
        """\
{
  "command": "measure",
  "config": {
    "accuracy_gate": 0.01,
    "base_seed": 5,
    "calibration_mode": "seen_only",
    "epochs_a": 1,
    "epochs_b": 2,
    "init_checkpoint": null,
    "lr_a": 0.01,
    "lr_b": 0.01,
    "m": 2,
    "machine": {
      "conv_channels": [
        16,
        32
      ],
      "fc_width": 64,
      "height": 6,
      "hidden": [
        8
      ],
      "in_channels": 3,
      "kind": "mlp",
      "width": 6
    },
    "momentum": 0.9,
    "n": 5,
    "pretext_mode": "four_way",
    "set_a": null,
    "weight_decay": 0.0001,
    "workers": 1
  },
  "config_hash": "9ac2cda0a3a8",
  "dataset": {
    "dims": [
      3,
      6,
      6
    ],
    "images": 16,
    "source": "DATA"
  },
  "version": "VERSION",
}
""",
    ),
    "attributes": (
        "wrote 16 attribute rows -> OUT/attributes/attributes.csv\n",
        """\
{
  "command": "attributes",
  "config": {},
  "config_hash": "",
  "dataset": {
    "dims": [
      3,
      6,
      6
    ],
    "images": 16,
    "source": "DATA"
  },
  "version": "VERSION",
}
""",
    ),
    "analyze": (
        "wrote OUT/analyze/correlations.json\n",
        """\
{
  "command": "analyze",
  "config": {
    "min_count": 5,
    "top_k": 1
  },
  "config_hash": "9ac2cda0a3a8",
  "dataset": {
    "dims": null,
    "images": null,
    "source": null
  },
  "version": "VERSION",
}
""",
    ),
    "train-predictor": (
        "trained predictor (2 train / 3 test) -> OUT/train-predictor/predictor.mmt1\n",
        """\
{
  "command": "train-predictor",
  "config": {
    "augment": true,
    "base_seed": 3,
    "batch_size": 4,
    "epochs": 2,
    "lr": 0.01,
    "machine": {
      "conv_channels": [
        16,
        32
      ],
      "fc_width": 64,
      "height": 6,
      "hidden": [],
      "in_channels": 3,
      "kind": "small_cnn",
      "width": 6
    },
    "split_seed": null,
    "test_fraction": 0.6
  },
  "config_hash": "9ac2cda0a3a8",
  "dataset": {
    "dims": [
      3,
      6,
      6
    ],
    "images": 16,
    "source": "DATA"
  },
  "version": "VERSION",
}
""",
    ),
    "predict": (
        "wrote 16 predictions -> OUT/predict/predictions.csv\n",
        """\
{
  "command": "predict",
  "config": {},
  "config_hash": "",
  "dataset": {
    "dims": [
      3,
      6,
      6
    ],
    "images": 16,
    "source": "DATA"
  },
  "version": "VERSION",
}
""",
    ),
    "sweep": (
        "swept base_seed over [1, 2] -> OUT/sweep/consistency.csv\n",
        """\
{
  "command": "sweep",
  "config": {
    "accuracy_gate": 0.01,
    "base_seed": 0,
    "calibration_mode": "seen_only",
    "epochs_a": 1,
    "epochs_b": 1,
    "init_checkpoint": null,
    "knob": "base_seed",
    "lr_a": 0.01,
    "lr_b": 0.01,
    "m": 2,
    "machine": {
      "conv_channels": [
        16,
        32
      ],
      "fc_width": 64,
      "height": 6,
      "hidden": [
        8
      ],
      "in_channels": 3,
      "kind": "mlp",
      "width": 6
    },
    "momentum": 0.9,
    "n": 4,
    "pretext_mode": "four_way",
    "set_a": null,
    "values": [
      1,
      2
    ],
    "weight_decay": 0.0001,
    "workers": 1
  },
  "config_hash": "",
  "dataset": {
    "dims": [
      3,
      6,
      6
    ],
    "images": 16,
    "source": "DATA"
  },
  "version": "VERSION",
}
""",
    ),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_prints_and_records_its_pinned_run(every_command, command):
    code, stdout, manifest = every_command[command]
    assert code == 0
    assert stdout == PINNED_RUNS[command][0]
    assert manifest == PINNED_RUNS[command][1]


@pytest.mark.parametrize(
    "command,argv",
    [
        ("measure", "--data MISSING"),
        ("attributes", "--data MISSING"),
        ("analyze", "--scores MISSING"),
        ("train-predictor", "--scores MISSING --data DATA"),
        ("predict", "--model MISSING --data DATA"),
        ("sweep", "--data MISSING"),
    ],
)
def test_a_failing_command_writes_no_manifest(tmp_path, ppm_dataset_dir, command, argv, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = argv.replace("MISSING", str(tmp_path / "missing")).replace("DATA", str(ppm_dataset_dir))
    assert run_cli(command, *argv.split(), "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# --- misc -------------------------------------------------------------------------------

# --- README ----------------------------------------------------------------------------

def readme_walkthrough():
    """The README walkthrough's Python block and the lines of its shell block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick walkthrough", 1)[1].split("\n## ", 1)[0]
    python = section.split("```python\n", 1)[1].split("```", 1)[0]
    shell = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return python, shell.replace("\\\n", " ").splitlines()


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    python, shell = readme_walkthrough()
    monkeypatch.chdir(tmp_path)
    exec(compile(python, "README.md", "exec"), {})
    lines = iter(shell)
    commands = []
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'JSON'", line)
        if heredoc:
            body = itertools.takewhile(lambda text: text != "JSON", lines)
            Path(heredoc[1]).write_text("\n".join(body) + "\n")
        elif line.strip():
            argv = shlex.split(line)
            assert argv[0] == "memmeter", line
            assert cli.main(argv[1:]) == 0, line
            commands.append(argv[1])
    assert commands == ["measure", "attributes", "analyze", "train-predictor", "predict", "sweep"]


def readme_section(heading):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split(f"\n### {heading}\n", 1)[1].split("\n#", 1)[0]


@pytest.mark.parametrize(
    "defaults,config_cls,sections",
    [
        (cli.MEASURE_DEFAULTS, measurer.EpisodeConfig, ["measure config"]),
        (cli.SWEEP_DEFAULTS, measurer.EpisodeConfig, ["sweep config", "measure config"]),
        (cli.TRAIN_DEFAULTS, predictor.RegressionConfig, ["train-predictor config"]),
        (cli.ANALYZE_DEFAULTS, analysis.AnalyzeConfig, ["analyze config"]),
    ],
    ids=["measure", "sweep", "train-predictor", "analyze"],
)
def test_every_config_key_is_named_in_its_readme_section(defaults, config_cls, sections):
    # A command's keys are its config dataclass's fields plus its CLI-only keys;
    # a sweep config is a measure config plus the keys its own section names.
    keys = {f.name for f in fields(config_cls)} | set(defaults)
    text = "".join(readme_section(heading) for heading in sections)
    assert sorted(key for key in keys if f"`{key}`" not in text) == []


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
