"""Batch command-line interface.

Subcommands: measure | attributes | analyze | train-predictor | predict |
sweep. Options come from a JSON config file (--config) with CLI flags
taking precedence over file fields, which take precedence over defaults;
_load_config builds every command's config that way.
main() is the one runner: it times the command's handler, maps its errors
to exit codes, and on success writes manifest.json and prints the summary
line the handler returns.
Exit codes: 0 ok, 2 config error, 3 data format error, 4 measurement
failure; any other exception (an internal error, or an episode whose
training diverged) ends the run with a traceback and exit 1.
MEMMETER_LOG names the log level; any other value means WARNING.

sweep measures once per entry of `values`, with the measure key named by
`knob` (any measure key but set_a and workers; a machine value is a whole
machine object) set to that entry, and writes the run of entry i
(0-based) to run_<i>/. Two entries that give the same config hash are one
run and exit 2 before anything is measured.
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
from .data import load_dataset
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


# Keyword arguments are the CLI-only keys. workers None means every core this process may run on.
MEASURE_DEFAULTS = _defaults(measurer.EpisodeConfig, machine={"kind": "small_cnn"}, set_a=None, workers=None)
SWEEP_DEFAULTS = dict(MEASURE_DEFAULTS, knob=None, values=None)
TRAIN_DEFAULTS = _defaults(predictor.RegressionConfig, base_seed=MEASURE_DEFAULTS["base_seed"], machine=None)

ANALYZE_DEFAULTS = _defaults(analysis.AnalyzeConfig)

# Types of the config keys that no config dataclass declares (_from_cfg checks those);
# machine, knob and values are checked where they are read.
CLI_KEY_TYPES = {
    "set_a": list | None,
    "workers": int | None,
    "base_seed": int,
}


def _setup_logging():
    # getLevelName maps a registered level name to its number and anything else to a string.
    level = logging.getLevelName(os.environ.get("MEMMETER_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)


def _usable_cores():
    """The cores this process may run on: its CPU affinity where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_config(args, defaults):
    """A command's config: its defaults, then the --config file, then --seed and --workers;
    workers None becomes every core this process may run on."""
    merged = dict(defaults)
    path = args.config
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text (byte offset {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {unknown}")
        check_types(loaded, CLI_KEY_TYPES, "config key")
        merged.update(loaded)
    if getattr(args, "seed", None) is not None:
        merged["base_seed"] = args.seed
    if "workers" in merged:
        if args.workers is not None:
            merged["workers"] = args.workers
        if merged["workers"] is None:
            merged["workers"] = _usable_cores()
        if merged["workers"] < 1:
            raise ConfigError("workers must be >= 1")
    return merged


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
        return [str(i) for i in cfg["set_a"]]
    perm = make_rng(derive_seed(seed, "set_a")).permutation(len(dataset))
    return [dataset.ids[i] for i in perm[: cfg["n"]]]


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
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- commands ------------------------------------------------------------------
# Each handler returns (out dir, config to record, config hash, dataset or None, summary line).

def _episode_config(cfg, dataset, set_a_seed):
    """The EpisodeConfig of one measurement and its set A, drawn with set_a_seed."""
    config = _from_cfg(measurer.EpisodeConfig, cfg, machine=_machine_spec(cfg["machine"], dataset))
    return config, _resolve_set_a(cfg, dataset, set_a_seed)


def _write_measurement(table, episodes, out):
    """Write a finished measurement to `out`/scores.csv and episodes.jsonl; a failed run creates no `out`."""
    out = _out_dir(out)
    measurer.write_score_csv(table, out / "scores.csv")
    measurer.write_episode_jsonl(episodes, out / "episodes.jsonl")
    return out


def cmd_measure(args):
    cfg = _load_config(args, MEASURE_DEFAULTS)
    dataset = load_dataset(args.data)
    config, set_a = _episode_config(cfg, dataset, cfg["base_seed"])
    table, episodes = measurer.measure(dataset, set_a, config, workers=cfg["workers"])
    out = _write_measurement(table, episodes, args.out)
    cfg["machine"] = asdict(config.machine)
    summary = f"measured {len(table.scores)} images over {table.m_effective}/{config.m} episodes -> {out / 'scores.csv'}"
    return out, cfg, table.config_hash, dataset, summary


def cmd_attributes(args):
    dataset = load_dataset(args.data)
    out = _out_dir(args.out)
    rows = {img.id: attributes.compute_attributes(img) for img in dataset}
    attributes.write_attribute_csv(rows, out / "attributes.csv")
    return out, {}, "", dataset, f"wrote {len(rows)} attribute rows -> {out / 'attributes.csv'}"


def cmd_analyze(args):
    cfg = _load_config(args, ANALYZE_DEFAULTS)
    config = _from_cfg(analysis.AnalyzeConfig, cfg)
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
    outputs = {
        "correlations.json": {
            "n": len(table.scores),
            "columns": analysis.correlate(table, columns),
            "strength_bands": analysis.STRENGTH_BANDS,
            "full_scale_reference": analysis.FULL_SCALE_REFERENCE,
        }
    }
    if len(table.scores) >= analysis.GROUP_COUNT:
        groups = analysis.group_by_decile(table, columns)
        rows = [(g["index"], g["mean_score"], name, mean)
                for g in groups for name, mean in sorted(g["attribute_means"].items())]
        outputs["deciles.csv"] = (("group_index", "mean_score", "attribute", "mean_value"), rows)
        outputs["groups.json"] = groups
    else:
        log.warning("skipping decile grouping: only %d scored images", len(table.scores))
    if args.labels:
        entries = analysis.rank_labels(table, _read_labels(args.labels), config.min_count)
        ranked = [{"label": label, "mean_score": mean, "count": count} for label, mean, count in entries]
        top, bottom = ranked[: config.top_k], ranked[-config.top_k :][::-1]
        outputs["label_ranking.json"] = {"min_count": config.min_count, "top": top, "bottom": bottom, "all": ranked}
    # Every result is computed before the output directory exists, so bad input leaves no files.
    out = _out_dir(args.out)
    for name, payload in outputs.items():
        if name.endswith(".csv"):
            report.write_csv(out / name, *payload)
        else:
            report.write_json(out / name, payload)
    return out, cfg, table.config_hash, None, "wrote " + ", ".join(str(out / name) for name in outputs)


def _read_labels(path):
    """{image_id: label} from a CSV with header "image_id,label"; empty lines are skipped."""
    _, rows = report.read_csv(path, ("image_id", "label"))
    return {row[0]: row[1] for row in rows}


def cmd_train_predictor(args):
    cfg = _load_config(args, TRAIN_DEFAULTS)
    table = measurer.read_score_csv(args.scores)
    dataset = load_dataset(args.data)
    reg_config = _from_cfg(predictor.RegressionConfig, cfg)
    spec = _machine_spec(cfg["machine"], dataset) if cfg["machine"] is not None else None
    result = predictor.train_predictor(table, dataset, reg_config, spec=spec, seed=cfg["base_seed"])
    cfg["machine"] = asdict(result.model.spec)  # as built for the dataset, as measure records its own
    out = _out_dir(args.out)
    predictor.save_predictor(result.model, out / "predictor.mmt1")
    report.write_csv(out / "history.csv", ("epoch", "train_mse"), enumerate(result.history, start=1))
    evaluation = {
        "test_spearman": predictor.evaluate_predictor(result.model, table, dataset, result.test_ids),
        "train_images": len(result.train_ids),
        "test_images": len(result.test_ids),
    }
    report.write_json(out / "eval.json", evaluation)
    summary = f"trained predictor ({len(result.train_ids)} train / {len(result.test_ids)} test) -> {out / 'predictor.mmt1'}"
    return out, cfg, table.config_hash, dataset, summary


def cmd_predict(args):
    model = predictor.load_predictor(args.model)
    dataset = load_dataset(args.data)
    predictions = predictor.predict(model, dataset)
    out = _out_dir(args.out)
    report.write_csv(out / "predictions.csv", ("image_id", "predicted_score"), sorted(predictions.items()))
    return out, {}, "", dataset, f"wrote {len(predictions)} predictions -> {out / 'predictions.csv'}"


def cmd_sweep(args):
    cfg = _load_config(args, SWEEP_DEFAULTS)
    knob, values = cfg.pop("knob"), cfg.pop("values")
    knobs = [f.name for f in fields(measurer.EpisodeConfig)]
    if knob not in knobs:
        raise ConfigError(f"sweep knob must be one of {knobs}, got {knob!r}")
    if not isinstance(values, list) or len(values) < 2:
        raise ConfigError("sweep needs a list of at least 2 knob values")
    dataset = load_dataset(args.data)
    # Set A comes from the base config's seed so every sub-run scores the same images.
    runs = [_episode_config(dict(cfg, **{knob: value}), dataset, cfg["base_seed"]) for value in values]
    # Every sub-run is checked here, so a bad or repeated value fails before the first run measures.
    for config, set_a in runs:
        measurer.check_measurement(dataset, set_a, config)
    digests = [measurer.config_digest(config, set_a) for config, set_a in runs]
    for i, digest in enumerate(digests):
        first = digests.index(digest)
        if first != i:
            raise ConfigError(f"sweep values {values[first]!r} and {values[i]!r} are one run (config hash {digest})")
    out = Path(args.out)  # created, with its parents, by the first run's _write_measurement
    tables = []
    run_payload = []
    for i, (config, set_a) in enumerate(runs):
        # Checked above; measure() would check it, and load its init_checkpoint, a second time.
        table, episodes = measurer._measure_checked(dataset, set_a, config, cfg["workers"])
        _write_measurement(table, episodes, out / f"run_{i}")
        label = config.machine.descriptor() if knob == "machine" else values[i]
        run_id = f"{knob}={label}"
        tables.append((run_id, table.scores))
        run_payload.append({"run_id": run_id, "config_hash": table.config_hash, "m_effective": table.m_effective})
    run_ids = [run_id for run_id, _ in tables]
    matrix = analysis.consistency_matrix(tables).tolist()
    report.write_csv(out / "consistency.csv", ["run_id"] + run_ids, ([r] + row for r, row in zip(run_ids, matrix)))
    report.write_json(out / "consistency.json", {"runs": run_payload, "run_ids": run_ids, "matrix": matrix})
    machines = [asdict(config.machine) for config, _ in runs]  # as built for the dataset, as measure records its one
    resolved = {"values": machines} if knob == "machine" else {"machine": machines[0]}
    summary = f"swept {knob} over {values} -> {out / 'consistency.csv'}"
    return out, {**cfg, "knob": knob, "values": values, **resolved}, "", dataset, summary


# --- entry point -----------------------------------------------------------------

# Every flag of the CLI; each subcommand takes the ones it reads.
FLAGS = {
    "--config": {"help": "JSON config file; flags override file fields"},
    "--data": {"required": True, "help": "dataset path (.bin file/dir or PPM directory)"},
    "--out": {"required": True, "help": "output directory"},
    "--seed": {"type": int, "help": "override base_seed"},
    "--workers": {"type": int, "help": "episode parallelism (default: every core this process may run on)"},
    "--scores": {"required": True, "help": "score table CSV from measure"},
    "--attributes": {"help": "attribute CSV from the attributes command"},
    "--merge-csv": {"help": "extra per-image columns to correlate (CSV with image_id)"},
    "--labels": {"help": 'label CSV with header "image_id,label"'},
    "--model": {"required": True, "help": "predictor checkpoint (.mmt1)"},
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
    """Run one command: on success write its manifest.json and print its summary line."""
    _setup_logging()
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        out, cfg, config_hash, dataset, summary = args.func(args)
        _write_manifest(out, args.command, cfg, config_hash, dataset, time.monotonic() - started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 3
    except MeasurementError as exc:
        print(f"measurement failure: {exc}", file=sys.stderr)
        return 4
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
