"""The three-stage memorability measurer and episode orchestration.

One episode: (a) train a fresh machine to predict rotations of the seen
sets A and B, gated on 80% top-1 accuracy; (b) swap in a 2-way head and
fine-tune it to separate B (seen) from a freshly sampled C (unseen),
one epoch at a time; (c) after every epoch, predict seen/unseen on the
held-aside set A and record the calibration error. The episode's verdicts
come from the epoch with the lowest calibration error. Scores are the
fraction of gate-passing episodes that called an image "seen".
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import multiprocessing
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .data import EpisodeSets, sample_episode_sets
from .engine import SGD, Tensor, build_machine, load_into_machine, rotation_loss, seen_loss
from .engine.losses import SEEN_CLASS, UNSEEN_CLASS, rotated_batch, rotation_targets
from .engine.machine import MachineSpec
from .errors import ConfigError, MeasurementError
from .metrics import PredictionRecord, rms_calibration_error
from .rng import derive_seed, make_rng

log = logging.getLogger(__name__)

CALIBRATION_MODES = ("seen_only", "held_out")


@dataclass(frozen=True)
class EpisodeConfig:
    machine: MachineSpec
    n: int = 500
    m: int = 100
    epochs_a: int = 60
    epochs_b: int = 10
    lr_a: float = 0.01
    lr_b: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    accuracy_gate: float = 0.80
    pretext_mode: str = "four_way"
    calibration_mode: str = "seen_only"
    base_seed: int = 0
    init_checkpoint: str | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be >= 1")
        if self.epochs_a < 1 or self.epochs_b < 1:
            raise ConfigError("epochs_a and epochs_b must be >= 1")
        if not 0.0 < self.accuracy_gate <= 1.0:
            raise ConfigError("accuracy_gate must be in (0, 1]")
        if self.lr_a < 0 or self.lr_b < 0:
            raise ConfigError("learning rates must be nonnegative")
        if not 0.0 <= self.momentum < 1.0 or self.weight_decay < 0:
            raise ConfigError("momentum must be in [0, 1) and weight_decay nonnegative")
        rotation_targets(self.pretext_mode)  # validates the mode name
        if self.calibration_mode not in CALIBRATION_MODES:
            raise ConfigError(
                f"unknown calibration mode {self.calibration_mode!r}, expected one of {CALIBRATION_MODES}"
            )

    @property
    def head_width_a(self) -> int:
        return 4 if self.pretext_mode == "four_way" else 2

    @property
    def calibration_reserve(self) -> int:
        return self.n // 5 if self.calibration_mode == "held_out" else 0

    @property
    def required_images(self) -> int:
        """Dataset size the protocol needs: sets A, B, C plus both calibration reserves."""
        return 3 * self.n + 2 * self.calibration_reserve


@dataclass
class EpisodeResult:
    episode_index: int
    seen_verdict: dict
    chosen_epoch: int
    calibration_trace: list
    stage_a_accuracy: float
    passed_gate: bool


@dataclass
class ScoreTable:
    scores: dict
    m_effective: int
    machine: str
    config_hash: str
    base_seed: int


def config_digest(config: EpisodeConfig, set_a) -> str:
    """Stable short digest of the measurement protocol and its inputs."""
    payload = asdict(config)
    payload["machine"] = config.machine.descriptor()
    payload["set_a"] = sorted(set_a)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# --- stages ------------------------------------------------------------------

def rotation_accuracy(machine, images, mode) -> float:
    """Top-1 accuracy over all four rotations of every image, no updates."""
    targets = np.asarray(rotation_targets(mode))
    correct = 0
    for image in images:
        logits = machine.forward(Tensor(rotated_batch(image))).data
        correct += int((logits.argmax(axis=1) == targets).sum())
    return correct / (4 * len(images))


def stage_a(machine, images, config: EpisodeConfig, shuffle_seed: int) -> float:
    """Observe: train rotation prediction over a seeded shuffle of the seen pool.

    Batch size is one image (its four rotated copies form one step); the
    cosine schedule spans all epochs_a * len(images) steps. Returns the
    final rotation accuracy over the same pool.
    """
    optimizer = SGD(
        machine.parameters(),
        lr=config.lr_a,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        total_steps=config.epochs_a * len(images),
    )
    rng = make_rng(shuffle_seed)
    for _ in range(config.epochs_a):
        for index in rng.permutation(len(images)):
            loss = rotation_loss(machine, images[index], config.pretext_mode)
            loss.backward()
            optimizer.step()
    return rotation_accuracy(machine, images, config.pretext_mode)


def stage_b_epoch(machine, seen_images, unseen_images, config: EpisodeConfig, optimizer, rng):
    """Discriminate: one seen-vs-unseen pass over a seeded shuffle of B and C."""
    if len(seen_images) != len(unseen_images):
        raise ConfigError(
            f"stage (b) needs balanced sets, got {len(seen_images)} seen vs {len(unseen_images)} unseen"
        )
    labeled = [(img, "seen") for img in seen_images] + [(img, "unseen") for img in unseen_images]
    for index in rng.permutation(len(labeled)):
        image, label = labeled[index]
        loss = seen_loss(machine, image, label)
        loss.backward()
        optimizer.step()


def _predict_records(machine, images, true_class):
    records = []
    for image in images:
        logits = machine.forward(Tensor(image.pixels[None])).data[0]
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
        records.append(PredictionRecord(image.id, probs, true_class=true_class))
    return records


def stage_c(machine, a_images, config: EpisodeConfig, calib_seen=(), calib_unseen=()):
    """Detect: verdicts over set A plus the episode's calibration error.

    No gradient updates. seen_only mode scores calibration on A itself
    (every record truly seen); held_out mode scores it on the reserved
    seen/unseen mix instead.
    """
    a_records = _predict_records(machine, a_images, true_class=SEEN_CLASS)
    verdicts = {
        rec.image_id: "seen" if rec.predicted_class == SEEN_CLASS else "unseen"
        for rec in a_records
    }
    if config.calibration_mode == "seen_only":
        report = rms_calibration_error(a_records)
    else:
        mixed = _predict_records(machine, calib_seen, true_class=SEEN_CLASS) + _predict_records(
            machine, calib_unseen, true_class=UNSEEN_CLASS
        )
        report = rms_calibration_error(mixed)
    return verdicts, report.rms_error


def select_epoch(calibration_trace) -> int:
    """1-based epoch with the lowest calibration error, earliest on ties."""
    if not calibration_trace:
        raise ValueError("empty calibration trace")
    return int(np.argmin(calibration_trace)) + 1


# --- episodes ----------------------------------------------------------------

def default_sampler(dataset, set_a, config: EpisodeConfig, episode_index: int) -> EpisodeSets:
    return sample_episode_sets(
        dataset,
        set_a,
        config.n,
        derive_seed(config.base_seed, "episode", episode_index),
        reserve=config.calibration_reserve,
    )


def run_episode(dataset, set_a, config: EpisodeConfig, episode_index: int, sampler=None) -> EpisodeResult:
    sets = (sampler or default_sampler)(dataset, set_a, config, episode_index)
    _check_sets(sets, config)
    a_images = [dataset.image(i) for i in sets.set_a]
    b_images = [dataset.image(i) for i in sets.set_b]
    c_images = [dataset.image(i) for i in sets.set_c]
    calib_seen = [dataset.image(i) for i in sets.calib_seen]
    calib_unseen = [dataset.image(i) for i in sets.calib_unseen]

    machine = build_machine(
        config.machine, config.head_width_a, derive_seed(config.base_seed, "init", episode_index)
    )
    if config.init_checkpoint:
        load_into_machine(machine, config.init_checkpoint)

    # Everything trained in stage (a) counts as seen, including any
    # held-out calibration reserve.
    accuracy = stage_a(
        machine,
        a_images + b_images + calib_seen,
        config,
        derive_seed(config.base_seed, "shuffle", episode_index, "a"),
    )
    if accuracy < config.accuracy_gate:
        log.warning(
            "episode %d discarded: stage (a) accuracy %.3f below gate %.2f",
            episode_index,
            accuracy,
            config.accuracy_gate,
        )
        return EpisodeResult(episode_index, {}, 0, [], accuracy, False)

    machine.replace_head(2, derive_seed(config.base_seed, "init", episode_index, "head"))
    optimizer = SGD(
        machine.parameters(),
        lr=config.lr_b,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        total_steps=config.epochs_b * (len(b_images) + len(c_images)),
    )
    shuffle_rng = make_rng(derive_seed(config.base_seed, "shuffle", episode_index, "b"))
    trace = []
    verdicts_by_epoch = []
    for _ in range(config.epochs_b):
        stage_b_epoch(machine, b_images, c_images, config, optimizer, shuffle_rng)
        verdicts, calibration = stage_c(machine, a_images, config, calib_seen, calib_unseen)
        trace.append(calibration)
        verdicts_by_epoch.append(verdicts)
    chosen = select_epoch(trace)
    return EpisodeResult(episode_index, verdicts_by_epoch[chosen - 1], chosen, trace, accuracy, True)


def _check_sets(sets: EpisodeSets, config: EpisodeConfig):
    groups = [sets.set_a, sets.set_b, sets.set_c, sets.calib_seen, sets.calib_unseen]
    if len(sets.set_a) != config.n or len(sets.set_b) != config.n or len(sets.set_c) != config.n:
        raise ConfigError("episode sets A, B, C must each hold n ids")
    flat = [i for group in groups for i in group]
    if len(set(flat)) != len(flat):
        raise ConfigError("episode sets must be pairwise disjoint")


def measure(dataset, set_a, config: EpisodeConfig, workers: int = 1, sampler=None):
    """Run m independent episodes and aggregate the score table.

    Episodes are embarrassingly parallel; each derives its own seeds from
    (base_seed, episode_index), so the result is identical for any worker
    count. Gate-failing episodes are excluded and m_effective reduced.
    """
    set_a = list(set_a)
    if len(dataset) < config.required_images:
        raise ConfigError(
            f"dataset holds {len(dataset)} images but the protocol needs {config.required_images} "
            f"(n={config.n}, calibration reserve {config.calibration_reserve})"
        )
    work = partial(run_episode, dataset, set_a, config, sampler=sampler)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(work, range(config.m), chunksize=1)
    else:
        results = [work(index) for index in range(config.m)]

    passing = [r for r in results if r.passed_gate]
    m_effective = len(passing)
    if m_effective == 0:
        raise MeasurementError(
            f"all {config.m} episodes failed the {config.accuracy_gate:.0%} accuracy gate"
        )
    counts = {image_id: 0 for image_id in set_a}
    for result in passing:
        for image_id, verdict in result.seen_verdict.items():
            if verdict == "seen":
                counts[image_id] += 1
    scores = {image_id: counts[image_id] / m_effective for image_id in set_a}
    table = ScoreTable(
        scores=scores,
        m_effective=m_effective,
        machine=config.machine.descriptor(),
        config_hash=config_digest(config, set_a),
        base_seed=config.base_seed,
    )
    return table, results


# --- persistence ---------------------------------------------------------------

SCORE_HEADER = ("image_id", "score", "m_effective", "machine", "config_hash", "base_seed")


def write_score_csv(table: ScoreTable, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for image_id in sorted(table.scores):
            writer.writerow(
                [
                    image_id,
                    repr(table.scores[image_id]),
                    table.m_effective,
                    table.machine,
                    table.config_hash,
                    table.base_seed,
                ]
            )


def read_score_csv(path) -> ScoreTable:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(SCORE_HEADER):
            raise ConfigError(f"{path} is not a score table (header {header})")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path} holds no scores")
    scores = {row[0]: float(row[1]) for row in rows}
    first = rows[0]
    return ScoreTable(
        scores=scores,
        m_effective=int(first[2]),
        machine=first[3],
        config_hash=first[4],
        base_seed=int(first[5]),
    )


def write_episode_jsonl(results, path):
    with Path(path).open("w") as fh:
        for result in results:
            fh.write(json.dumps(asdict(result), sort_keys=True) + "\n")
