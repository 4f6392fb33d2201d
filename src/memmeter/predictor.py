"""Pixel-based score regressor: a small-CNN `Machine` with a 1-wide sigmoid head.

Trains against measured scores with mean squared error. The training
settings of RegressionConfig (50 epochs, lr 0.01, batch 16 by default)
are exposed configuration, chosen for reliable desk-scale convergence;
momentum is fixed at the optimizer's 0.9 and the schedule is cosine.
The held-out evaluation is `metrics.spearman`, so the split keeps at least
`metrics.MIN_RANK_VALUES` test ids.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .engine import tensor as T
from .engine.checkpoint import load_into_machine, save_params
from .engine.losses import mse_loss
from .engine.machine import Machine, MachineSpec, build_machine, parse_machine_spec
from .engine.optim import SGD
from .engine.tensor import Tensor, no_graph
from .data import augment_for_regression
from .errors import ConfigError, DataFormatError
from .rng import derive_seed, make_rng

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RegressionConfig:
    epochs: int = 50
    lr: float = 0.01
    batch_size: int = 16
    split_seed: int | None = None  # None: train_predictor's seed
    test_fraction: float = 0.2
    augment: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.lr < np.inf:
            raise ConfigError("lr must be finite and nonnegative")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")


class PredictorModel(Machine):
    """A Machine with a 1-wide head whose outputs squash through a sigmoid.

    `PredictorModel(machine)` shares `machine`'s spec, backbone and head."""

    def __init__(self, machine):
        super().__init__(machine.spec, machine.backbone, machine.head)

    def forward_scores(self, batch: np.ndarray) -> Tensor:
        logits = self.forward(Tensor(batch))
        return T.sigmoid(T.reshape(logits, (batch.shape[0],)))

    def predict_batch(self, pixels: np.ndarray) -> np.ndarray:
        """Scores of a (k, C, H, W) array's images, one image per forward pass
        so that results never depend on batching."""
        with no_graph():
            return np.array([float(self.forward_scores(image[None]).data[0]) for image in pixels])


def build_predictor(spec: MachineSpec, seed: int) -> PredictorModel:
    return PredictorModel(build_machine(spec, 1, seed))


def split_ids(ids, config: RegressionConfig):
    """Disjoint, exhaustive train/test split of the scored ids, checked before any training."""
    ids = sorted(ids)
    n_test = int(round(len(ids) * config.test_fraction))
    if n_test < metrics.MIN_RANK_VALUES or n_test >= len(ids):
        raise ConfigError(
            f"test_fraction {config.test_fraction} leaves {n_test} of {len(ids)} ids for testing; "
            f"the split needs at least {metrics.MIN_RANK_VALUES} test ids and one training id"
        )
    order = make_rng(derive_seed(config.split_seed, "split")).permutation(len(ids))
    test_ids = [ids[i] for i in order[:n_test]]
    train_ids = [ids[i] for i in order[n_test:]]
    return train_ids, test_ids


@dataclass
class PredictorTrainResult:
    model: PredictorModel
    history: list  # mean train MSE per epoch
    train_ids: list
    test_ids: list


def train_predictor(score_table, dataset, config: RegressionConfig, spec=None, seed=0) -> PredictorTrainResult:
    """Fit the regressor to measured scores; seed-deterministic end to end."""
    missing = [i for i in score_table.scores if i not in dataset]
    if missing:
        raise ConfigError(f"{len(missing)} scored images absent from dataset, e.g. {missing[0]!r}")
    if spec is None:
        c, h, w = dataset.dims
        spec = MachineSpec(kind="small_cnn", in_channels=c, height=h, width=w)
    model = build_predictor(spec, derive_seed(seed, "predictor-init"))
    if config.split_seed is None:
        config = replace(config, split_seed=seed)
    train_ids, test_ids = split_ids(score_table.scores, config)

    batches_per_epoch = (len(train_ids) + config.batch_size - 1) // config.batch_size
    optimizer = SGD(
        model.parameters(),
        lr=config.lr,
        weight_decay=0.0,
        total_steps=config.epochs * batches_per_epoch,
    )
    shuffle_rng = make_rng(derive_seed(seed, "predictor-shuffle"))
    history = []
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_ids))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = [train_ids[i] for i in order[start : start + config.batch_size]]
            batch = dataset.batch(chunk)
            if config.augment:
                for pixels, image_id in zip(batch, chunk):
                    augment_for_regression(pixels, derive_seed(seed, "augment", epoch, image_id))
            targets = np.array([score_table.scores[i] for i in chunk])
            loss = mse_loss(model.forward_scores(batch), targets)
            loss.backward()
            optimizer.step()
            epoch_loss += float(loss.data) * len(chunk)
        history.append(epoch_loss / len(train_ids))
    return PredictorTrainResult(model=model, history=history, train_ids=train_ids, test_ids=test_ids)


def predict(model, images) -> dict:
    """Deterministic forward pass over images, no augmentation.

    Predicts one image at a time and keeps none of them, so a Dataset's
    images are converted one at a time.
    """
    return {image.id: float(model.predict_batch(image.pixels[None])[0]) for image in images}


def evaluate_predictor(model, score_table, dataset, test_ids):
    """Spearman correlation between predicted and measured scores; None where it is undefined."""
    test_ids = list(test_ids)
    predicted = predict(model, map(dataset.image, test_ids))
    rho = metrics.spearman(
        [predicted[i] for i in test_ids], [score_table.scores[i] for i in test_ids]
    )
    if rho is None:
        log.warning("predictor evaluation undefined: fewer than %d test ids, or constant predictions or scores",
                    metrics.MIN_RANK_VALUES)
    return rho


# --- persistence ---------------------------------------------------------------

def save_predictor(model: PredictorModel, path):
    """Write the parameter checkpoint plus an architecture sidecar JSON."""
    path = Path(path)
    save_params(model.parameters(), path)
    meta = json.dumps(asdict(model.spec), sort_keys=True, indent=2)
    path.with_suffix(path.suffix + ".json").write_text(meta)


def load_predictor(path) -> PredictorModel:
    path = Path(path)
    meta_path = path.with_suffix(path.suffix + ".json")
    if not path.exists():
        raise ConfigError(f"model checkpoint not found: {path}")
    if not meta_path.exists():
        raise DataFormatError("missing architecture sidecar", path=str(meta_path))
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise DataFormatError(f"architecture sidecar is not JSON: {exc}", path=str(meta_path)) from None
    if isinstance(meta, dict) and meta.get("activation") == "relu":
        del meta["activation"]  # written before MachineSpec dropped its one-value activation key
    try:
        spec = parse_machine_spec(meta)
    except ConfigError as exc:
        raise DataFormatError(f"bad architecture sidecar: {exc}", path=str(meta_path)) from None
    model = build_predictor(spec, seed=0)
    load_into_machine(model, path)
    return model
