"""Score regressor: training convergence, prediction contracts, evaluation."""

import json
import tracemalloc

import numpy as np
import pytest

import synth
from memmeter.data import Dataset, _sample_erase_rect, augment_for_regression, load_ppm_dir
from memmeter.engine.checkpoint import save_params
from memmeter.engine.losses import mse_loss
from memmeter.engine.machine import Machine, MachineSpec
from memmeter.engine.optim import SGD
from memmeter.errors import ConfigError
from memmeter.measurer import ScoreTable
from memmeter.metrics import spearman
from memmeter.predictor import (
    RegressionConfig,
    build_predictor,
    evaluate_predictor,
    load_predictor,
    predict,
    save_predictor,
    split_ids,
    train_predictor,
)
from memmeter.rng import derive_seed, make_rng


def table_for(scores):
    return ScoreTable(scores=scores, m_effective=10, machine="x", config_hash="h", base_seed=0)


@pytest.fixture(scope="module")
def scored_fixture():
    return synth.brightness_scored_images(count=80, seed=9, size=8)


def test_constant_score_table_converges(scored_fixture):
    dataset, scores = scored_fixture
    table = table_for({k: 0.7 for k in scores})
    config = RegressionConfig(epochs=40, lr=0.05, batch_size=8, split_seed=1, test_fraction=0.2, augment=False)
    result = train_predictor(table, dataset, config, seed=5)
    assert result.history[-1] < 1e-3
    predictions = predict(result.model, [dataset.image(i) for i in result.train_ids[:8]])
    assert all(abs(v - 0.7) < 0.1 for v in predictions.values())


def test_zero_lr_changes_nothing(scored_fixture):
    from memmeter.rng import derive_seed

    dataset, scores = scored_fixture
    table = table_for(scores)
    config = RegressionConfig(epochs=3, lr=0.0, batch_size=8, split_seed=1, test_fraction=0.2, augment=False)
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    result = train_predictor(table, dataset, config, spec=spec, seed=999)
    untouched = build_predictor(spec, derive_seed(999, "predictor-init"))
    for (_, trained), (_, fresh) in zip(result.model.parameters(), untouched.parameters()):
        assert np.array_equal(trained.data, fresh.data)
    assert len(set(result.history)) == 1  # history flat across epochs


def test_training_loss_non_increasing_with_small_lr(scored_fixture):
    dataset, scores = scored_fixture
    table = table_for({k: 0.6 for k in scores})
    config = RegressionConfig(epochs=10, lr=0.002, batch_size=80, split_seed=1, test_fraction=0.2, augment=False)
    result = train_predictor(table, dataset, config, seed=4)
    assert all(a >= b - 1e-12 for a, b in zip(result.history, result.history[1:]))


def test_training_is_seed_deterministic(scored_fixture):
    dataset, scores = scored_fixture
    table = table_for(scores)
    config = RegressionConfig(epochs=2, lr=0.01, batch_size=16, split_seed=3, test_fraction=0.25, augment=True)
    one = train_predictor(table, dataset, config, seed=11)
    two = train_predictor(table, dataset, config, seed=11)
    assert one.history == two.history
    for (_, a), (_, b) in zip(one.model.parameters(), two.model.parameters()):
        assert np.array_equal(a.data, b.data)


def test_missing_images_is_config_error(scored_fixture):
    dataset, scores = scored_fixture
    bad = dict(scores)
    bad["ghost"] = 0.5
    with pytest.raises(ConfigError, match="absent"):
        train_predictor(table_for(bad), dataset, RegressionConfig(augment=False), seed=0)



@pytest.mark.parametrize("lr", [np.nan, np.inf, -0.1])
def test_config_rejects_an_lr_that_is_not_finite_and_nonnegative(lr):
    with pytest.raises(ConfigError, match="lr must be finite and nonnegative"):
        RegressionConfig(lr=lr)


def test_config_without_split_seed_splits_with_the_training_seed(scored_fixture):
    dataset, scores = scored_fixture
    config = RegressionConfig(epochs=1, batch_size=80, augment=False)
    assert config.split_seed is None
    result = train_predictor(table_for(scores), dataset, config, seed=7)
    assert result.test_ids == split_ids(scores, RegressionConfig(split_seed=7))[1]


def test_split_is_disjoint_and_exhaustive(scored_fixture):
    _, scores = scored_fixture
    config = RegressionConfig(test_fraction=0.3, split_seed=7)
    train_ids, test_ids = split_ids(scores, config)
    assert not set(train_ids) & set(test_ids)
    assert sorted(train_ids + test_ids) == sorted(scores)
    assert len(test_ids) == round(len(scores) * 0.3)


def test_predict_outputs_in_open_unit_interval(scored_fixture):
    dataset, _ = scored_fixture
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=3)
    predictions = predict(model, dataset)
    assert all(0.0 < v < 1.0 for v in predictions.values())


def test_predict_is_deterministic_and_order_invariant(scored_fixture):
    dataset, _ = scored_fixture
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=3)
    images = list(dataset)
    forward = predict(model, images)
    again = predict(model, images)
    reversed_order = predict(model, images[::-1])
    assert forward == again
    assert forward == reversed_order


def test_batch_prediction_equals_per_image(scored_fixture):
    dataset, _ = scored_fixture
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=3)
    pixels = dataset.batch(dataset.ids[:10])
    batched = model.predict_batch(pixels)
    single = np.array([model.predict_batch(image[None])[0] for image in pixels])
    assert np.array_equal(batched, single)


class OracleModel:
    """Lookup stub satisfying the predict_batch protocol: each image's score, found by its pixels."""

    def __init__(self, dataset, scores, flip=False):
        self.mapping = {dataset.image(image_id).pixels.tobytes(): score for image_id, score in scores.items()}
        self.flip = flip

    def predict_batch(self, pixels):
        values = np.array([self.mapping[image.tobytes()] for image in pixels])
        return 1.0 - values if self.flip else values


def test_predict_over_a_pool_holds_one_converted_image_at_a_time():
    count, shape = 200, (3, 32, 32)
    rng = make_rng("predict-pool")
    dataset = Dataset([f"p{i:03d}" for i in range(count)], rng.integers(0, 256, (count, *shape), dtype=np.uint8),
                      scale=255.0)
    # An MLP's forward allocates far less than one image, so the peak is what predict keeps.
    model = build_predictor(MachineSpec(kind="mlp", in_channels=3, height=32, width=32, hidden=(8,)), seed=1)
    tracemalloc.start()
    try:
        predictions = predict(model, dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(predictions) == dataset.ids
    assert peak < 10 * 8 * int(np.prod(shape))


def oracle_pools(tmp_path, count=16, size=8):
    """A PPM pool with mixed maxvals, whose samples are channel-last, and a uint8 pool at scale 255."""
    rng = make_rng("oracle-pools")
    for index in range(count):
        maxval = (255, 100, 37, 1)[index % 4]
        raster = rng.integers(0, maxval + 1, (size, size, 3), dtype=np.uint8)
        (tmp_path / f"p{index:02d}.ppm").write_bytes(f"P6\n{size} {size}\n{maxval}\n".encode() + raster.tobytes())
    samples = rng.integers(0, 256, (count, 3, size, size), dtype=np.uint8)
    return load_ppm_dir(tmp_path), Dataset([f"u{i:02d}" for i in range(count)], samples, scale=255.0)


def reference_batch(dataset, chunk, seed, epoch, augment):
    """A training batch built image by image: image(), the flip or a copy, the erase, then np.stack."""
    images = []
    for image_id in chunk:
        pixels = dataset.image(image_id).pixels
        if augment:
            rng = make_rng(derive_seed(seed, "augment", epoch, image_id))
            pixels = pixels[:, :, ::-1].copy() if rng.random() < 0.5 else pixels.copy()
            if rng.random() < 0.5:
                channels, height, width = pixels.shape
                y0, y1, x0, x1 = _sample_erase_rect(rng, height, width)
                pixels[:, y0:y1, x0:x1] = rng.random((channels, y1 - y0, x1 - x0))
        images.append(pixels)
    return np.stack(images)


def reference_training(table, dataset, config, spec, seed):
    """train_predictor's schedule, fed reference_batch."""
    model = build_predictor(spec, derive_seed(seed, "predictor-init"))
    train_ids, _ = split_ids(table.scores, config)
    steps = config.epochs * -(-len(train_ids) // config.batch_size)
    optimizer = SGD(model.parameters(), lr=config.lr, weight_decay=0.0, total_steps=steps)
    shuffle_rng = make_rng(derive_seed(seed, "predictor-shuffle"))
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_ids))
        for start in range(0, len(order), config.batch_size):
            chunk = [train_ids[i] for i in order[start : start + config.batch_size]]
            batch = reference_batch(dataset, chunk, seed, epoch, config.augment)
            mse_loss(model.forward_scores(batch), np.array([table.scores[i] for i in chunk])).backward()
            optimizer.step()
    return model


def test_training_batches_match_the_per_image_construction(tmp_path):
    for dataset in oracle_pools(tmp_path):
        for seed in (0, 1, 7, 23):
            chunk = [dataset.ids[i] for i in make_rng("oracle-chunk", seed).permutation(len(dataset))[:5]]
            for epoch, augment in ((0, False), (0, True), (3, True)):
                batch = dataset.batch(chunk)
                if augment:
                    for pixels, image_id in zip(batch, chunk):
                        augment_for_regression(pixels, derive_seed(seed, "augment", epoch, image_id))
                assert batch.tobytes() == reference_batch(dataset, chunk, seed, epoch, augment).tobytes()


def test_training_on_batches_writes_the_reference_checkpoint(tmp_path):
    for dataset in oracle_pools(tmp_path):
        scores = dict(zip(dataset.ids, make_rng("oracle-scores").uniform(0.1, 0.9, len(dataset))))
        spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
        for augment in (False, True):
            config = RegressionConfig(epochs=2, batch_size=4, split_seed=3, augment=augment)
            save_predictor(train_predictor(table_for(scores), dataset, config, spec=spec, seed=11).model,
                           tmp_path / "predictor.mmt1")
            save_params(reference_training(table_for(scores), dataset, config, spec, seed=11).parameters(),
                        tmp_path / "reference.mmt1")
            assert (tmp_path / "predictor.mmt1").read_bytes() == (tmp_path / "reference.mmt1").read_bytes()


def test_evaluate_oracle_lookup_is_perfect(scored_fixture):
    dataset, scores = scored_fixture
    table = table_for(scores)
    test_ids = sorted(scores)[:20]
    assert evaluate_predictor(OracleModel(dataset, scores), table, dataset, test_ids) == 1.0
    assert evaluate_predictor(OracleModel(dataset, scores, flip=True), table, dataset, test_ids) == -1.0


def test_evaluate_needs_test_ids(scored_fixture, caplog):
    dataset, scores = scored_fixture
    model, table = OracleModel(dataset, scores), table_for(scores)
    for test_ids in ([], dataset.ids[:2]):
        caplog.clear()
        assert evaluate_predictor(model, table, dataset, test_ids) is None
        assert "undefined: fewer than 3 test ids" in caplog.text


def test_untrained_model_is_null_against_random_scores():
    dataset, _ = synth.brightness_scored_images(count=100, seed=21, size=8)
    rng = make_rng("null-scores")
    random_scores = {i: float(rng.random()) for i in dataset.ids}
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=77)
    predictions = predict(model, dataset)
    ids = sorted(random_scores)
    rho = spearman([predictions[i] for i in ids], [random_scores[i] for i in ids])
    assert abs(rho) < 0.3
    # permutation calibration: 0.3 sits beyond the null 99% quantile
    perm_rng = make_rng("null-perm")
    values = np.array([random_scores[i] for i in ids])
    pred_values = np.array([predictions[i] for i in ids])
    null_rhos = [abs(spearman(pred_values, perm_rng.permutation(values))) for _ in range(1000)]
    assert np.quantile(null_rhos, 0.99) < 0.3


def test_save_load_roundtrip(tmp_path, scored_fixture):
    dataset, scores = scored_fixture
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=13)
    path = tmp_path / "predictor.mmt1"
    save_predictor(model, path)
    loaded = load_predictor(path)
    assert isinstance(model, Machine) and isinstance(loaded, Machine)
    pixels = dataset.batch(dataset.ids[:5])
    assert model.predict_batch(pixels).tobytes() == loaded.predict_batch(pixels).tobytes()


def test_load_accepts_sidecar_with_relu_activation_key(tmp_path, scored_fixture):
    # Sidecars written while MachineSpec still had its one-value activation field carry "activation": "relu".
    dataset, _ = scored_fixture
    model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=13)
    path = tmp_path / "predictor.mmt1"
    save_predictor(model, path)
    sidecar = path.with_suffix(".mmt1.json")
    meta = json.loads(sidecar.read_text())
    assert "activation" not in meta
    sidecar.write_text(json.dumps(dict(meta, activation="relu"), sort_keys=True, indent=2))
    loaded = load_predictor(path)
    assert loaded.spec == model.spec
    pixels = dataset.batch(dataset.ids[:5])
    assert np.array_equal(model.predict_batch(pixels), loaded.predict_batch(pixels))


def test_load_missing_model_is_explicit(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_predictor(tmp_path / "nope.mmt1")
