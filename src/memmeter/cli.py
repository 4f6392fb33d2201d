"""Batch command-line interface.

Subcommands: measure | attributes | analyze | train-predictor | predict |
sweep. Options come from a JSON config file (--config) with CLI flags
taking precedence over file fields, which take precedence over defaults.
Exit codes: 0 ok, 2 config error, 3 data format error, 4 measurement
failure. MEMMETER_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, attributes, measurer, predictor
from .data import Dataset, load_cifar_binary, load_ppm_dir
from .engine.machine import MachineSpec
from .errors import ConfigError, DataFormatError, MeasurementError
from .rng import derive_seed, make_rng

log = logging.getLogger(__name__)


def _defaults(config_cls, **cli_only):
    """A command's config keys: the dataclass's fields with their defaults, plus CLI-only keys."""
    defaults = {f.name: f.default for f in fields(config_cls) if f.default is not MISSING}
    defaults.update(cli_only)
    return defaults


def _from_cfg(config_cls, cfg, **overrides):
    """Build a config dataclass from the config keys named after its fields."""
    values = {f.name: cfg[f.name] for f in fields(config_cls)}
    values.update(overrides)
    return config_cls(**values)


# Keyword arguments are the CLI-only keys. workers None means all available cores
# (train-predictor accepts it for symmetry but is single-process); split_seed None
# means "use base_seed".
MEASURE_DEFAULTS = _defaults(measurer.EpisodeConfig, machine={"kind": "small_cnn"}, set_a=None, workers=None)
TRAIN_DEFAULTS = _defaults(
    predictor.RegressionConfig, split_seed=None, base_seed=MEASURE_DEFAULTS["base_seed"], machine=None, workers=None
)

ANALYZE_DEFAULTS = {"top_k": 5, "min_count": 5}

SWEEP_KNOBS = (
    "n",
    "m",
    "epochs_a",
    "epochs_b",
    "lr_a",
    "lr_b",
    "base_seed",
    "pretext_mode",
    "calibration_mode",
    "machine_kind",
)


def _setup_logging():
    level = os.environ.get("MEMMETER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_config(path, defaults):
    merged = dict(defaults)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {unknown}")
        merged.update(loaded)
    return merged


def _load_dataset(path) -> Dataset:
    if path is None:
        raise ConfigError("--data is required for this command")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data path does not exist: {path}")
    if path.is_file():
        if path.suffix == ".bin":
            return load_cifar_binary(path)
        raise ConfigError(f"unsupported dataset file {path} (expected a .bin batch)")
    if (path / "manifest.csv").exists() or list(path.glob("*.ppm")):
        return load_ppm_dir(path)
    if list(path.glob("*.bin")):
        return load_cifar_binary(path)
    raise ConfigError(f"directory {path} holds neither .ppm images nor .bin batches")


def _machine_spec(machine_cfg, dataset) -> MachineSpec:
    if not isinstance(machine_cfg, dict) or "kind" not in machine_cfg:
        raise ConfigError('machine config must be an object with a "kind" field')
    cfg = dict(machine_cfg)
    c, h, w = dataset.dims
    cfg.setdefault("in_channels", c)
    cfg.setdefault("height", h)
    cfg.setdefault("width", w)
    if (cfg["in_channels"], cfg["height"], cfg["width"]) != (c, h, w):
        raise ConfigError(
            f"machine input {cfg['in_channels']}x{cfg['height']}x{cfg['width']} "
            f"does not match dataset images {c}x{h}x{w}"
        )
    return MachineSpec(**cfg)


def _resolve_set_a(cfg, dataset, seed):
    """The explicit set_a, or the first n ids of a shuffle seeded by `seed`."""
    if cfg["set_a"] is not None:
        set_a = [str(i) for i in cfg["set_a"]]
        if len(set_a) != cfg["n"]:
            raise ConfigError(f"set_a holds {len(set_a)} ids but n={cfg['n']}")
        return set_a
    ids = dataset.ids
    perm = make_rng(derive_seed(seed, "set_a")).permutation(len(ids))
    return [ids[i] for i in perm[: cfg["n"]]]


def _write_manifest(out_dir, command, cfg, config_hash, dataset, elapsed):
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": config_hash,
        "version": __version__,
        "wall_time_s": round(elapsed, 3),
        "dataset": {
            "source": dataset.source if dataset else None,
            "images": len(dataset) if dataset else None,
            "dims": list(dataset.dims) if dataset else None,
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _out_dir(path):
    if path is None:
        raise ConfigError("--out is required for this command")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_common_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg["base_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        cfg["workers"] = args.workers
    if cfg.get("workers") is None:
        cfg["workers"] = os.cpu_count() or 1
    if cfg["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


# --- commands ------------------------------------------------------------------

def _measure_and_write(cfg, dataset, out, set_a_seed):
    """Measure one config into `out`/scores.csv and episodes.jsonl; set A is drawn with set_a_seed.

    The config and the dataset size are checked before the output directory is made.
    """
    config = _from_cfg(measurer.EpisodeConfig, cfg, machine=_machine_spec(cfg["machine"], dataset))
    if len(dataset) < config.required_images:
        raise DataFormatError(
            f"dataset holds {len(dataset)} images but n={config.n} needs {config.required_images}",
            path=dataset.source,
        )
    set_a = _resolve_set_a(cfg, dataset, set_a_seed)
    out = _out_dir(out)
    table, episodes = measurer.measure(dataset, set_a, config, workers=cfg["workers"])
    measurer.write_score_csv(table, out / "scores.csv")
    measurer.write_episode_jsonl(episodes, out / "episodes.jsonl")
    return config, table, out


def cmd_measure(args):
    started = time.monotonic()
    cfg = _apply_common_overrides(_load_config(args.config, MEASURE_DEFAULTS), args)
    dataset = _load_dataset(args.data)
    config, table, out = _measure_and_write(cfg, dataset, args.out, cfg["base_seed"])
    cfg["machine"] = asdict(config.machine)
    _write_manifest(out, "measure", cfg, table.config_hash, dataset, time.monotonic() - started)
    print(f"measured {len(table.scores)} images over {table.m_effective}/{config.m} episodes -> {out / 'scores.csv'}")
    return 0


def cmd_attributes(args):
    started = time.monotonic()
    dataset = _load_dataset(args.data)
    out = _out_dir(args.out)
    rows = {img.id: attributes.compute_attributes(img) for img in dataset}
    attributes.write_attribute_csv(rows, out / "attributes.csv")
    _write_manifest(out, "attributes", {}, "", dataset, time.monotonic() - started)
    print(f"wrote {len(rows)} attribute rows -> {out / 'attributes.csv'}")
    return 0


def cmd_analyze(args):
    started = time.monotonic()
    cfg = _load_config(args.config, ANALYZE_DEFAULTS)
    if args.scores is None:
        raise ConfigError("--scores is required for analyze")
    table = measurer.read_score_csv(args.scores)
    columns = {}
    if args.attributes:
        columns.update(attributes.read_attribute_csv(args.attributes))
    if args.merge_csv:
        merged = attributes.read_attribute_csv(args.merge_csv)
        overlap = set(columns) & set(merged)
        if overlap:
            raise ConfigError(f"merged columns collide with existing ones: {sorted(overlap)}")
        columns.update(merged)
    out = _out_dir(args.out)
    report = analysis.correlate(table, columns)
    analysis.write_correlation_json(report, out / "correlations.json")
    outputs = [out / "correlations.json"]
    if len(table.scores) >= analysis.GROUP_COUNT:
        summary = analysis.group_by_decile(table, columns)
        analysis.write_group_csv(summary, out / "deciles.csv")
        analysis.write_group_json(summary, out / "groups.json")
        outputs += [out / "deciles.csv", out / "groups.json"]
    else:
        log.warning("skipping decile grouping: only %d scored images", len(table.scores))
    if args.labels:
        labels = _read_labels(args.labels)
        ranking = analysis.rank_labels(table, labels, k=cfg["top_k"], min_count=cfg["min_count"])
        analysis.write_label_json(ranking, cfg["top_k"], out / "label_ranking.json")
        outputs.append(out / "label_ranking.json")
    _write_manifest(out, "analyze", cfg, table.config_hash, None, time.monotonic() - started)
    print("wrote " + ", ".join(str(p) for p in outputs))
    return 0


def _read_labels(path):
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "image_id" or len(header) < 2:
            raise ConfigError(f'{path}: expected a CSV with header "image_id,label"')
        return {row[0]: row[1] for row in reader}


def cmd_train_predictor(args):
    started = time.monotonic()
    cfg = _apply_common_overrides(_load_config(args.config, TRAIN_DEFAULTS), args)
    if args.scores is None:
        raise ConfigError("--scores is required for train-predictor")
    table = measurer.read_score_csv(args.scores)
    dataset = _load_dataset(args.data)
    split_seed = cfg["split_seed"] if cfg["split_seed"] is not None else cfg["base_seed"]
    reg_config = _from_cfg(predictor.RegressionConfig, cfg, split_seed=split_seed)
    spec = _machine_spec(cfg["machine"], dataset) if cfg["machine"] else None
    result = predictor.train_predictor(table, dataset, reg_config, spec=spec, seed=cfg["base_seed"])
    out = _out_dir(args.out)
    predictor.save_predictor(result.model, out / "predictor.mmt1")
    with (out / "history.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "train_mse"))
        for epoch, value in enumerate(result.history, start=1):
            writer.writerow((epoch, repr(value)))
    rho = predictor.evaluate_predictor(result.model, table, dataset, result.test_ids)
    (out / "eval.json").write_text(
        json.dumps(
            {
                "test_spearman": "n/a" if rho is None else rho,
                "train_images": len(result.train_ids),
                "test_images": len(result.test_ids),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    _write_manifest(out, "train-predictor", cfg, table.config_hash, dataset, time.monotonic() - started)
    print(f"trained predictor ({len(result.train_ids)} train / {len(result.test_ids)} test) -> {out / 'predictor.mmt1'}")
    return 0


def cmd_predict(args):
    started = time.monotonic()
    if args.model is None:
        raise ConfigError("--model is required for predict")
    model = predictor.load_predictor(args.model)
    dataset = _load_dataset(args.data)
    out = _out_dir(args.out)
    predictions = predictor.predict(model, dataset)
    with (out / "predictions.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("image_id", "predicted_score"))
        for image_id in sorted(predictions):
            writer.writerow((image_id, repr(predictions[image_id])))
    _write_manifest(out, "predict", {}, "", dataset, time.monotonic() - started)
    print(f"wrote {len(predictions)} predictions -> {out / 'predictions.csv'}")
    return 0


def cmd_sweep(args):
    started = time.monotonic()
    defaults = dict(MEASURE_DEFAULTS, knob=None, values=None)
    cfg = _apply_common_overrides(_load_config(args.config, defaults), args)
    knob, values = cfg.pop("knob"), cfg.pop("values")
    if knob not in SWEEP_KNOBS:
        raise ConfigError(f"sweep knob must be one of {SWEEP_KNOBS}, got {knob!r}")
    if not isinstance(values, list) or len(values) < 2:
        raise ConfigError("sweep needs a list of at least 2 knob values")
    if len(set(map(str, values))) != len(values):
        raise ConfigError("sweep knob values must be distinct")
    dataset = _load_dataset(args.data)
    out = _out_dir(args.out)
    tables = []
    run_payload = []
    for value in values:
        sub_cfg = dict(cfg)
        if knob == "machine_kind":
            sub_cfg["machine"] = dict(sub_cfg["machine"], kind=value)
        else:
            sub_cfg[knob] = value
        # Set A comes from the base config's seed so every sub-run scores the same images.
        _, table, _ = _measure_and_write(sub_cfg, dataset, out / f"run_{knob}_{value}", cfg["base_seed"])
        run_id = f"{knob}={value}"
        tables.append((run_id, table.scores))
        run_payload.append({"run_id": run_id, "config_hash": table.config_hash, "m_effective": table.m_effective})
    matrix = analysis.consistency_matrix(tables)
    analysis.write_matrix_csv(matrix, out / "consistency.csv")
    payload = {
        "runs": run_payload,
        "run_ids": matrix.run_ids,
        "matrix": [
            ["n/a" if np.isnan(v) else float(v) for v in row] for row in matrix.matrix
        ],
    }
    (out / "consistency.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _write_manifest(out, "sweep", dict(cfg, knob=knob, values=values), "", dataset, time.monotonic() - started)
    print(f"swept {knob} over {values} -> {out / 'consistency.csv'}")
    return 0


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memmeter",
        description="Measure, predict, and analyze image memorability of small trainable models.",
    )
    parser.add_argument("--version", action="version", version=f"memmeter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, data=True):
        p.add_argument("--config", help="JSON config file; flags override file fields")
        if data:
            p.add_argument("--data", help="dataset path (.bin file/dir or PPM directory)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override base_seed")
        p.add_argument("--workers", type=int, help="episode parallelism (default: all cores)")

    p = sub.add_parser("measure", help="run the measurement episodes and write a score table")
    common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("attributes", help="extract per-image attributes to CSV")
    common(p)
    p.set_defaults(func=cmd_attributes)

    p = sub.add_parser("analyze", help="correlations, decile groups, and label rankings")
    common(p, data=False)
    p.add_argument("--scores", help="score table CSV from measure")
    p.add_argument("--attributes", help="attribute CSV from the attributes command")
    p.add_argument("--merge-csv", help="extra per-image columns to correlate (CSV with image_id)")
    p.add_argument("--labels", help='label CSV with header "image_id,label"')
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train-predictor", help="fit the score regressor on a score table")
    common(p)
    p.add_argument("--scores", help="score table CSV from measure")
    p.set_defaults(func=cmd_train_predictor)

    p = sub.add_parser("predict", help="score images with a trained regressor")
    common(p)
    p.add_argument("--model", help="predictor checkpoint (.mmt1)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="measure across one varying knob and correlate runs")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except MeasurementError as exc:
        print(f"measurement failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
