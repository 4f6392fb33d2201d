"""Batch command-line interface.

Subcommands: measure | attributes | analyze | train-predictor | predict |
sweep. Options come from a JSON config file (--config) with CLI flags
taking precedence over file fields, which take precedence over defaults.
Exit codes: 0 ok, 2 config error, 3 data format error, 4 measurement
failure; any other exception (an internal error, or an episode whose
training diverged) ends the run with a traceback and exit 1.
MEMMETER_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__, analysis, attributes, measurer, predictor, report
from .data import Dataset, load_cifar_binary, load_ppm_dir
from .engine.machine import MachineSpec, parse_machine_spec
from .errors import ConfigError, DataFormatError, MeasurementError, check_types
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
    check_types(values, get_type_hints(config_cls), "config key")
    return config_cls(**values)


# Keyword arguments are the CLI-only keys. workers None means all available cores;
# split_seed None means "use base_seed".
MEASURE_DEFAULTS = _defaults(measurer.EpisodeConfig, machine={"kind": "small_cnn"}, set_a=None, workers=None)
TRAIN_DEFAULTS = _defaults(
    predictor.RegressionConfig, split_seed=None, base_seed=MEASURE_DEFAULTS["base_seed"], machine=None
)

ANALYZE_DEFAULTS = _defaults(analysis.AnalyzeConfig)

# Types of the config keys that no config dataclass declares (_from_cfg checks those);
# machine, knob and values are checked where they are read.
CLI_KEY_TYPES = {
    "set_a": list | None,
    "workers": int | None,
    "split_seed": int | None,
    "base_seed": int,
}

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
        check_types(loaded, CLI_KEY_TYPES, "config key")
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
    c, h, w = dataset.dims
    spec = parse_machine_spec(machine_cfg, in_channels=c, height=h, width=w)
    if (spec.in_channels, spec.height, spec.width) != (c, h, w):
        raise ConfigError(
            f"machine input {spec.in_channels}x{spec.height}x{spec.width} "
            f"does not match dataset images {c}x{h}x{w}"
        )
    return spec


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
    report.write_json(out_dir / "manifest.json", manifest, keep_null=True)


def _out_dir(path):
    if path is None:
        raise ConfigError("--out is required for this command")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_common_overrides(cfg, args):
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if "workers" in cfg:
        if args.workers is not None:
            cfg["workers"] = args.workers
        if cfg["workers"] is None:
            cfg["workers"] = os.cpu_count() or 1
        if cfg["workers"] < 1:
            raise ConfigError("workers must be >= 1")
    return cfg


# --- commands ------------------------------------------------------------------

def _episode_config(cfg, dataset, set_a_seed):
    """The checked EpisodeConfig of one measurement and its set A, drawn with set_a_seed."""
    config = _from_cfg(measurer.EpisodeConfig, cfg, machine=_machine_spec(cfg["machine"], dataset))
    if len(dataset) < config.required_images:
        raise DataFormatError(
            f"dataset holds {len(dataset)} images but n={config.n} needs {config.required_images}",
            path=dataset.source,
        )
    return config, _resolve_set_a(cfg, dataset, set_a_seed)


def _measure_and_write(config, set_a, dataset, out, workers):
    """Measure one checked config into `out`/scores.csv and episodes.jsonl."""
    out = _out_dir(out)
    table, episodes = measurer.measure(dataset, set_a, config, workers=workers)
    measurer.write_score_csv(table, out / "scores.csv")
    measurer.write_episode_jsonl(episodes, out / "episodes.jsonl")
    return table, out


def cmd_measure(args):
    started = time.monotonic()
    cfg = _apply_common_overrides(_load_config(args.config, MEASURE_DEFAULTS), args)
    dataset = _load_dataset(args.data)
    config, set_a = _episode_config(cfg, dataset, cfg["base_seed"])
    table, out = _measure_and_write(config, set_a, dataset, args.out, cfg["workers"])
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
    config = _from_cfg(analysis.AnalyzeConfig, cfg)
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
    correlations = {
        "n": len(table.scores),
        "columns": analysis.correlate(table, columns),
        "strength_bands": analysis.STRENGTH_BANDS,
        "full_scale_reference": analysis.FULL_SCALE_REFERENCE,
    }
    report.write_json(out / "correlations.json", correlations)
    outputs = [out / "correlations.json"]
    if len(table.scores) >= analysis.GROUP_COUNT:
        groups = analysis.group_by_decile(table, columns)
        rows = [(g["index"], g["mean_score"], name, mean)
                for g in groups for name, mean in sorted(g["attribute_means"].items())]
        report.write_csv(out / "deciles.csv", ("group_index", "mean_score", "attribute", "mean_value"), rows)
        report.write_json(out / "groups.json", groups)
        outputs += [out / "deciles.csv", out / "groups.json"]
    else:
        log.warning("skipping decile grouping: only %d scored images", len(table.scores))
    if args.labels:
        entries = analysis.rank_labels(table, _read_labels(args.labels), config.min_count)
        ranked = [{"label": label, "mean_score": mean, "count": count} for label, mean, count in entries]
        k = config.top_k
        ranking = {"min_count": config.min_count, "top": ranked[:k], "bottom": ranked[-k:][::-1], "all": ranked}
        report.write_json(out / "label_ranking.json", ranking)
        outputs.append(out / "label_ranking.json")
    _write_manifest(out, "analyze", cfg, table.config_hash, None, time.monotonic() - started)
    print("wrote " + ", ".join(str(p) for p in outputs))
    return 0


def _read_labels(path):
    """{image_id: label} from a CSV with header "image_id,label"; empty lines are skipped."""
    _, rows = report.read_csv(path, ("image_id", "label"))
    return {row[0]: row[1] for row in rows}


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
    report.write_csv(out / "history.csv", ("epoch", "train_mse"), enumerate(result.history, start=1))
    evaluation = {
        "test_spearman": predictor.evaluate_predictor(result.model, table, dataset, result.test_ids),
        "train_images": len(result.train_ids),
        "test_images": len(result.test_ids),
    }
    report.write_json(out / "eval.json", evaluation)
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
    report.write_csv(out / "predictions.csv", ("image_id", "predicted_score"), sorted(predictions.items()))
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
    runs = []
    for value in values:
        sub_cfg = dict(cfg)
        if knob == "machine_kind":
            sub_cfg["machine"] = dict(sub_cfg["machine"], kind=value)
        else:
            sub_cfg[knob] = value
        # Set A comes from the base config's seed so every sub-run scores the same images.
        runs.append((value, *_episode_config(sub_cfg, dataset, cfg["base_seed"])))
    # Every sub-run is checked above, so a bad value fails before the first run measures.
    out = _out_dir(args.out)
    tables = []
    run_payload = []
    for value, config, set_a in runs:
        table, _ = _measure_and_write(config, set_a, dataset, out / f"run_{knob}_{value}", cfg["workers"])
        run_id = f"{knob}={value}"
        tables.append((run_id, table.scores))
        run_payload.append({"run_id": run_id, "config_hash": table.config_hash, "m_effective": table.m_effective})
    run_ids = [run_id for run_id, _ in tables]
    matrix = analysis.consistency_matrix(tables).tolist()
    report.write_csv(out / "consistency.csv", ["run_id"] + run_ids, ([r] + row for r, row in zip(run_ids, matrix)))
    report.write_json(out / "consistency.json", {"runs": run_payload, "run_ids": run_ids, "matrix": matrix})
    _write_manifest(out, "sweep", dict(cfg, knob=knob, values=values), "", dataset, time.monotonic() - started)
    print(f"swept {knob} over {values} -> {out / 'consistency.csv'}")
    return 0


# --- entry point -----------------------------------------------------------------

# Every flag of the CLI; each subcommand takes the ones it reads.
FLAGS = {
    "--config": {"help": "JSON config file; flags override file fields"},
    "--data": {"help": "dataset path (.bin file/dir or PPM directory)"},
    "--out": {"help": "output directory"},
    "--seed": {"type": int, "help": "override base_seed"},
    "--workers": {"type": int, "help": "episode parallelism (default: all cores)"},
    "--scores": {"help": "score table CSV from measure"},
    "--attributes": {"help": "attribute CSV from the attributes command"},
    "--merge-csv": {"help": "extra per-image columns to correlate (CSV with image_id)"},
    "--labels": {"help": 'label CSV with header "image_id,label"'},
    "--model": {"help": "predictor checkpoint (.mmt1)"},
}

# name: (handler, help, the flags it reads)
COMMANDS = {
    "measure": (cmd_measure, "run the measurement episodes and write a score table",
                "--config --data --out --seed --workers"),
    "attributes": (cmd_attributes, "extract per-image attributes to CSV", "--data --out"),
    "analyze": (cmd_analyze, "correlations, decile groups, and label rankings",
                "--config --out --scores --attributes --merge-csv --labels"),
    "train-predictor": (cmd_train_predictor, "fit the score regressor on a score table",
                        "--config --data --out --seed --scores"),
    "predict": (cmd_predict, "score images with a trained regressor", "--data --out --model"),
    "sweep": (cmd_sweep, "measure across one varying knob and correlate runs",
              "--config --data --out --seed --workers"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memmeter",
        description="Measure, predict, and analyze image memorability of small trainable models.",
    )
    parser.add_argument("--version", action="version", version=f"memmeter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
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


if __name__ == "__main__":
    sys.exit(main())
