"""Workload definitions and their seeded input generators.

Every workload runs the whole memmeter pipeline a user runs from the
CLI -- measure, attributes plus analysis, train-predictor, predict -- so
that every end-to-end and per-layer metric exists on every workload. The
workloads differ in which stage carries the weight:

- measure-ramp12: tiny 12x12 PPM images and one worker, so the fixed
  per-step cost of the engine (op dispatch, graph walk, padding,
  rotations, the SGD loop) dominates. This is the reference workload.
- measure-cifar32: a CIFAR-10 .bin pool of thousands of 32x32 images,
  held-out calibration and one worker per core, so conv and max-pool
  kernels dominate the episodes and loading and shipping the dataset to
  workers dominate set-up and memory.
- regress-cifar32: a 32x32 .bin whose images all carry a generated score,
  so training, prediction and attribute extraction over the whole set
  carry the weight and the single small episode is a minor share.

The generators use numpy only: memmeter sees nothing but the files.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

SCORE_HEADER = ("image_id", "score", "m_effective", "machine", "config_hash", "base_seed")

# Sizes of the measured workloads. `scored` images get a generated score;
# train, predict and attributes run over them. `score_m` is the number of
# episodes the generated scores pretend to come from. Predict and
# attributes run `passes` times per repetition; the tiny 12x12 stages run
# several times, so that each of their pieces is timed often enough for
# its shortest time to settle. Stages are kept short, so that a run holds
# many repetitions, and each piece is timed at many moments.
WORKLOADS = {
    "measure-ramp12": dict(
        format="ppm", size=12, pool=100, n=32, m=4, epochs_a=8, epochs_b=2, calibration_mode="seen_only",
        workers=1, scored=100, train_epochs=10, passes=6, score_m=4,
    ),
    "measure-cifar32": dict(
        format="cifar", size=32, pool=2000, n=16, m=2, epochs_a=4, epochs_b=2, calibration_mode="held_out",
        workers="nproc", scored=256, train_epochs=2, passes=1, score_m=4,
    ),
    "regress-cifar32": dict(
        format="cifar", size=32, pool=640, n=8, m=1, epochs_a=4, epochs_b=2, calibration_mode="seen_only",
        workers=1, scored=640, train_epochs=1, passes=1, score_m=20,
    ),
}

# The same workloads shrunk so that the self-check finishes in seconds.
# At least 20 scored images leave one full training batch of 16.
SMOKE = {
    "measure-ramp12": dict(pool=20, n=4, m=1, epochs_a=3, epochs_b=1, scored=20, train_epochs=1),
    "measure-cifar32": dict(pool=40, n=5, m=2, epochs_a=3, epochs_b=1, scored=20, train_epochs=1),
    "regress-cifar32": dict(pool=24, n=4, m=1, epochs_a=3, epochs_b=1, scored=24, train_epochs=1),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def resolve(name: str, smoke: bool = False) -> dict:
    """The workload's parameters, with `workers` resolved to a count <= nproc."""
    spec = dict(WORKLOADS[name], name=name)
    if smoke:
        spec.update(SMOKE[name])
    cores = nproc()
    spec["workers"] = min(cores, spec["m"]) if spec["workers"] == "nproc" else min(spec["workers"], cores)
    return spec


def _images(rng, count, size):
    """uint8 (count, 3, size, size) images with a bright top edge.

    The vertical ramp makes the orientation learnable, so the 80% rotation
    gate passes on every seed; the tint, ramp strength and a coloured patch
    vary brightness, hue and contrast from image to image.
    """
    rows = np.linspace(1.0, 0.0, size)[None, None, :, None]
    strength = rng.uniform(0.55, 0.8, (count, 1, 1, 1))
    tint = rng.uniform(0.6, 1.0, (count, 3, 1, 1))
    pixels = 0.1 + strength * rows * tint + rng.normal(0.0, 0.04, (count, 3, size, size))
    side = max(2, size // 4)
    for i in range(count):
        y, x = rng.integers(size // 3, size - side + 1), rng.integers(0, size - side + 1)
        pixels[i, :, y : y + side, x : x + side] = rng.uniform(0.1, 0.6, (3, 1, 1))
    return np.floor(np.clip(pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def _write_ppm_dir(directory: Path, images, labels):
    directory.mkdir(parents=True)
    lines = ["id,filename,label"]
    for i, (pixels, label) in enumerate(zip(images, labels)):
        image_id = f"img{i:05d}"
        header = f"P6\n{pixels.shape[2]} {pixels.shape[1]}\n255\n".encode("ascii")
        (directory / f"{image_id}.ppm").write_bytes(header + pixels.transpose(1, 2, 0).tobytes())
        lines.append(f"{image_id},{image_id}.ppm,{label}")
    (directory / "manifest.csv").write_text("\n".join(lines) + "\n")
    return [f"img{i:05d}" for i in range(len(images))]


def _write_cifar_bin(path: Path, images, labels):
    records = np.concatenate([labels[:, None].astype(np.uint8), images.reshape(len(images), -1)], axis=1)
    path.write_bytes(records.tobytes())
    return [f"{path.name}#{i}" for i in range(len(images))]


def generate(spec: dict, seed: int, directory: Path) -> dict:
    """Write the workload's input files under `directory`; return the run plan.

    The plan names the files and carries every value both the benchmark's
    repetitions and the CLI reference run need, so the two see one config.
    """
    rng = np.random.Generator(np.random.PCG64([seed, sum(map(ord, spec["name"]))]))
    images = _images(rng, spec["pool"], spec["size"])
    labels = rng.integers(0, 10, spec["pool"])
    directory.mkdir(parents=True, exist_ok=True)
    if spec["format"] == "ppm":
        data = directory / "images"
        ids = _write_ppm_dir(data, images, labels)
    else:
        data = directory / "pool.bin"
        ids = _write_cifar_bin(data, images, labels)

    order = rng.permutation(len(ids))
    set_a = [ids[i] for i in order[: spec["n"]]]
    scored = [ids[i] for i in sorted(order[: spec["scored"]])]
    # Brighter images score higher, so the analysis and the regressor see signal.
    brightness = images.reshape(len(ids), -1).mean(axis=1) / 255.0
    score_m = spec["score_m"]
    scores_path = directory / "input_scores.csv"
    with scores_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for i in sorted(order[: spec["scored"]], key=lambda k: ids[k]):
            level = np.clip(brightness[i] + rng.normal(0.0, 0.1), 0.0, 1.0)
            writer.writerow([ids[i], repr(round(level * score_m) / score_m), score_m, "generated", "generated", seed])

    measure_config = {
        "n": spec["n"],
        "m": spec["m"],
        "epochs_a": spec["epochs_a"],
        "epochs_b": spec["epochs_b"],
        "calibration_mode": spec["calibration_mode"],
        "base_seed": seed,
        "machine": {"kind": "small_cnn"},
        "set_a": set_a,
    }
    config_path = directory / "measure_config.json"
    config_path.write_text(json.dumps(measure_config, indent=1))
    return {
        "workload": spec["name"],
        "format": spec["format"],
        "data": str(data),
        "scores": str(scores_path),
        "measure_config": measure_config,
        "measure_config_path": str(config_path),
        "workers": spec["workers"],
        "scored": scored,
        "train_epochs": spec["train_epochs"],
        "passes": spec["passes"],
        "seed": seed,
    }
