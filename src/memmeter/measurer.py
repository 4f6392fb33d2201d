"""The three-stage memorability measurer and episode orchestration.

One episode: (a) train a fresh machine to predict rotations of the seen
sets A and B, gated on 80% top-1 accuracy; (b) swap in a 2-way head and
fine-tune it to separate B (seen) from a freshly sampled C (unseen),
one epoch at a time; (c) after every epoch, predict seen/unseen on the
held-aside set A and record the calibration error. The episode's verdicts
come from the epoch with the lowest calibration error. Scores are the
fraction of gate-passing episodes that called an image "seen".

This module defines the protocol's classes and head widths (ROTATION_LABELS
per pretext mode, SEEN_CLASS and UNSEEN_CLASS) and the two losses built on
them; the engine supplies only the generic cross-entropy. It alone lays out
an episode: `data.sample_episode_sets` draws ids from outside set A, and
`run_episode` says which draw is B, C or a calibration reserve, and converts
them once in the row order A, B, seen reserve, unseen reserve, C.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import report
from .data import sample_episode_sets
from .engine.checkpoint import load_into_machine
from .engine.losses import rotated_batch, softmax_cross_entropy
from .engine.machine import MachineSpec, build_machine
from .engine.optim import SGD
from .engine.tensor import Tensor, no_graph
from .errors import ConfigError, DataFormatError, MeasurementError
from .metrics import rms_calibration_error
from .rng import derive_seed, make_rng

log = logging.getLogger(__name__)

CALIBRATION_MODES = ("seen_only", "held_out")

SEEN_CLASS = 0
UNSEEN_CLASS = 1

# Class of each quarter turn per pretext mode; binary mode splits {0, 90} from {180, 270}.
ROTATION_LABELS = {"four_way": (0, 1, 2, 3), "binary": (0, 0, 1, 1)}


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
        if self.init_checkpoint == "":
            raise ConfigError("init_checkpoint must name a checkpoint file or be null, got ''")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be >= 1")
        if self.epochs_a < 1 or self.epochs_b < 1:
            raise ConfigError("epochs_a and epochs_b must be >= 1")
        if not 0.0 < self.accuracy_gate <= 1.0:
            raise ConfigError("accuracy_gate must be in (0, 1]")
        if not (0 <= self.lr_a < np.inf and 0 <= self.lr_b < np.inf):
            raise ConfigError("learning rates must be finite and nonnegative")
        if not (0.0 <= self.momentum < 1.0 and 0 <= self.weight_decay < np.inf):
            raise ConfigError("momentum must be in [0, 1) and weight_decay finite and nonnegative")
        if self.pretext_mode not in ROTATION_LABELS:
            raise ConfigError(
                f"unknown pretext mode {self.pretext_mode!r}, expected one of {tuple(ROTATION_LABELS)}"
            )
        if self.calibration_mode not in CALIBRATION_MODES:
            raise ConfigError(
                f"unknown calibration mode {self.calibration_mode!r}, expected one of {CALIBRATION_MODES}"
            )
        if self.calibration_mode == "held_out" and self.calibration_reserve == 0:
            raise ConfigError("held_out calibration reserves n // 5 images, so n must be at least 5")
        for name in ("lr_a", "lr_b", "momentum", "weight_decay", "accuracy_gate"):  # 0 and 0.0 hash alike
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def head_width_a(self) -> int:
        return max(ROTATION_LABELS[self.pretext_mode]) + 1

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
# Images come as rows of one (k, C, H, W) pixel array that run_episode converts
# once; ids come along only where a verdict or the calibration tie-break needs them.

def rotation_loss(machine, rotations, mode="four_way") -> Tensor:
    """Mean cross-entropy over an image's four rotated copies, `rotated_batch(pixels)`."""
    return softmax_cross_entropy(machine.forward(Tensor(rotations)), ROTATION_LABELS[mode])


def seen_loss(machine, pixels, label: int) -> Tensor:
    """2-way cross-entropy of one image's (C, H, W) pixels against its class, SEEN_CLASS or UNSEEN_CLASS."""
    return softmax_cross_entropy(machine.forward(Tensor(pixels[None])), (label,))


def rotation_accuracy(machine, pixels, mode) -> float:
    """Top-1 accuracy over all four rotations of every image, no updates."""
    labels = ROTATION_LABELS[mode]
    correct = 0
    with no_graph():
        for image in pixels:
            logits = machine.forward(Tensor(rotated_batch(image))).data
            correct += int((logits.argmax(axis=1) == labels).sum())
    return correct / (4 * len(pixels))


def stage_a(machine, pixels, config: EpisodeConfig, shuffle_seed: int) -> float:
    """Observe: train rotation prediction over a seeded shuffle of the seen pool's rows.

    Batch size is one image (its four rotated copies form one step); the
    cosine schedule spans all epochs_a * len(pixels) steps. Returns the
    final rotation accuracy over the same pool. Rotations are built per
    step, not held for the stage, which at n=500 on 32x32 images would
    cost about 100 MB per worker.
    """
    optimizer = SGD(
        machine.parameters(),
        lr=config.lr_a,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        total_steps=config.epochs_a * len(pixels),
    )
    rng = make_rng(shuffle_seed)
    for _ in range(config.epochs_a):
        for index in rng.permutation(len(pixels)):
            loss = rotation_loss(machine, rotated_batch(pixels[index]), config.pretext_mode)
            loss.backward()
            optimizer.step()
    return rotation_accuracy(machine, pixels, config.pretext_mode)


def stage_b_epoch(machine, seen_pixels, unseen_pixels, optimizer, rng):
    """Discriminate: one seen-vs-unseen pass over a seeded shuffle of the rows of B and C."""
    labeled = [(image, SEEN_CLASS) for image in seen_pixels] + [(image, UNSEEN_CLASS) for image in unseen_pixels]
    for index in rng.permutation(len(labeled)):
        image, label = labeled[index]
        loss = seen_loss(machine, image, label)
        loss.backward()
        optimizer.step()


def _probabilities(machine, pixels) -> np.ndarray:
    """(N, 2) softmax rows of the seen/unseen head, one image per forward pass."""
    with no_graph():
        logits = np.stack([machine.forward(Tensor(image[None])).data[0] for image in pixels])
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def stage_c(machine, a_ids, a_pixels, config: EpisodeConfig, calib_ids=(), calib_pixels=()):
    """Detect: verdicts over set A plus the episode's calibration error.

    No gradient updates. An image's verdict is the argmax class, so a tie
    counts as seen. seen_only mode scores calibration on A itself (every
    image truly seen); held_out mode scores it on the reserves instead,
    `calib_ids` and their pixels: the seen reserve, then the unseen one.
    """
    a_probs = _probabilities(machine, a_pixels)
    verdicts = {
        image_id: "seen" if call == SEEN_CLASS else "unseen" for image_id, call in zip(a_ids, a_probs.argmax(axis=1))
    }
    if config.calibration_mode == "seen_only":
        ids, probs, truth = a_ids, a_probs, np.full(len(a_ids), SEEN_CLASS)
    else:
        ids, probs = calib_ids, _probabilities(machine, calib_pixels)
        truth = np.repeat([SEEN_CLASS, UNSEEN_CLASS], config.calibration_reserve)
    correct = (probs.argmax(axis=1) == truth).astype(np.float64)
    error = rms_calibration_error(probs.max(axis=1), correct, ids)
    return verdicts, error


def select_epoch(calibration_trace) -> int:
    """1-based epoch with the lowest calibration error, earliest on ties."""
    return int(np.argmin(calibration_trace)) + 1


# --- episodes ----------------------------------------------------------------

def run_episode(dataset, set_a, config: EpisodeConfig, episode_index: int) -> EpisodeResult:
    """One episode on one conversion of its images, whose rows are A, B, the seen and unseen reserves, then C."""
    n, reserve = config.n, config.calibration_reserve
    episode_seed = derive_seed(config.base_seed, "episode", episode_index)
    drawn = sample_episode_sets(dataset, set_a, config.required_images - n, episode_seed)
    # The draw's first n ids are B, the next n C, and the rest the seen reserve, then the unseen one.
    ids = (*set_a, *drawn[:n], *drawn[2 * n :], *drawn[n : 2 * n])
    pixels = dataset.batch(ids)
    a, b, calib, c = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + 2 * reserve), slice(2 * n + 2 * reserve, None)
    seen = slice(0, 2 * n + reserve)  # A, B and the seen reserve

    machine = build_machine(
        config.machine, config.head_width_a, derive_seed(config.base_seed, "init", episode_index)
    )
    if config.init_checkpoint:
        load_into_machine(machine, config.init_checkpoint)

    # Everything trained in stage (a) counts as seen, including any
    # held-out calibration reserve.
    shuffle_seed = derive_seed(config.base_seed, "shuffle", episode_index, "a")
    accuracy = stage_a(machine, pixels[seen], config, shuffle_seed)
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
        total_steps=config.epochs_b * 2 * n,
    )
    shuffle_rng = make_rng(derive_seed(config.base_seed, "shuffle", episode_index, "b"))
    trace = []
    verdicts_by_epoch = []
    for _ in range(config.epochs_b):
        stage_b_epoch(machine, pixels[b], pixels[c], optimizer, shuffle_rng)
        verdicts, calibration = stage_c(machine, ids[a], pixels[a], config, ids[calib], pixels[calib])
        trace.append(calibration)
        verdicts_by_epoch.append(verdicts)
    chosen = select_epoch(trace)
    return EpisodeResult(episode_index, verdicts_by_epoch[chosen - 1], chosen, trace, accuracy, True)


_worker_args = ()  # (dataset, set_a, config), set once in each pool worker


def _init_worker(*args):
    global _worker_args
    _worker_args = args


def _worker_episode(episode_index):
    # run_episode is looked up per call: a forked worker runs a replacement set before the fork.
    return run_episode(*_worker_args, episode_index)


def check_measurement(dataset, set_a, config: EpisodeConfig):
    """Raise, before any episode runs, unless dataset size, init checkpoint, set A
    (n distinct dataset ids) and image shape (square, for quarter turns) fit `config`."""
    if len(dataset) < config.required_images:
        raise DataFormatError(
            f"dataset holds {len(dataset)} images but the protocol needs {config.required_images} "
            f"(n={config.n}, calibration reserve {config.calibration_reserve})",
            path=dataset.source,
        )
    if config.init_checkpoint:
        if not Path(config.init_checkpoint).is_file():
            raise ConfigError(f"init_checkpoint file not found: {config.init_checkpoint}")
        load_into_machine(build_machine(config.machine, config.head_width_a, 0), config.init_checkpoint)
    if len(set_a) != config.n:
        raise ConfigError(f"set_a holds {len(set_a)} ids but n={config.n}")
    seen = set()
    for image_id in set_a:
        if image_id not in dataset:
            raise ConfigError(f"set_a names unknown image id {image_id!r}")
        if image_id in seen:
            raise ConfigError(f"set_a names image id {image_id!r} twice")
        seen.add(image_id)
    _, height, width = dataset.dims
    if height != width:
        raise ConfigError(f"quarter-turn rotations need square images, dataset images are {height}x{width}")


def measure(dataset, set_a, config: EpisodeConfig, workers: int = 1):
    """Run m independent episodes and aggregate the score table.

    Episodes are embarrassingly parallel; each derives its own seeds from
    (base_seed, episode_index), so the result is identical for any worker
    count. At most m workers start, and each receives the dataset once, when
    it starts. Gate-failing episodes are excluded and m_effective reduced.
    """
    set_a = list(set_a)
    check_measurement(dataset, set_a, config)
    return _measure_checked(dataset, set_a, config, workers)


def _measure_checked(dataset, set_a, config: EpisodeConfig, workers):
    """measure() of a set A list that check_measurement has already accepted."""
    workers = min(workers, config.m)
    if workers > 1:
        with multiprocessing.Pool(workers, _init_worker, (dataset, set_a, config)) as pool:
            results = pool.map(_worker_episode, range(config.m), chunksize=1)
    else:
        results = [run_episode(dataset, set_a, config, index) for index in range(config.m)]

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
    rows = (
        (image_id, score, table.m_effective, table.machine, table.config_hash, table.base_seed)
        for image_id, score in sorted(table.scores.items())
    )
    report.write_csv(path, SCORE_HEADER, rows)


def read_score_csv(path) -> ScoreTable:
    """The score table of one run: every row must carry the same run columns."""
    header, rows = report.read_csv(path, SCORE_HEADER)
    if len(header) != len(SCORE_HEADER):
        raise ConfigError(f"{path} is not a score table (header {header})")
    if not rows:
        raise ConfigError(f"{path} holds no scores")
    scores = {row[0]: report.read_number(row[1], f"score of {row[0]}", path) for row in rows}
    first = rows[0]
    for row in rows:
        if row[2:] != first[2:]:
            raise DataFormatError(
                f"row of {row[0]!r} disagrees with the first row on {', '.join(SCORE_HEADER[2:])}",
                path=str(path),
            )
    try:
        m_effective, base_seed = int(first[2]), int(first[5])
    except ValueError as exc:
        raise DataFormatError(f"malformed score table row: {exc}", path=str(path)) from None
    return ScoreTable(
        scores=scores,
        m_effective=m_effective,
        machine=first[3],
        config_hash=first[4],
        base_seed=base_seed,
    )


def write_episode_jsonl(results, path):
    with Path(path).open("w") as fh:
        for result in results:
            fh.write(json.dumps(asdict(result), sort_keys=True) + "\n")
