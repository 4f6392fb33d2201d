"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria are pinned at their stated tolerances; the
synthetic fixtures are the desk-scale stand-ins for full-scale data.
"""

import itertools
import json
import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import synth
from memmeter import cli, measurer
from memmeter.analysis import consistency_matrix
from memmeter.attributes import colorfulness, compute_attributes, entropy, global_contrast, grayscale
from memmeter.data import rotate_pixels
from memmeter.engine import tensor as T
from memmeter.engine.losses import mse_loss, rotated_batch, softmax_cross_entropy
from memmeter.engine.machine import MachineSpec, build_machine
from memmeter.engine.tensor import Tensor
from memmeter.measurer import (
    SEEN_CLASS,
    EpisodeConfig,
    measure,
    read_score_csv,
    rotation_loss,
    seen_loss,
    select_epoch,
)
from memmeter.metrics import midranks, spearman
from memmeter.predictor import RegressionConfig, build_predictor, evaluate_predictor, predict, train_predictor
from memmeter.rng import make_rng


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"ACCEPTANCE {name}: FAIL\n")
        raise
    sys.__stdout__.write(f"ACCEPTANCE {name}: PASS\n")


# --- shared fixture runs -----------------------------------------------------------

MEASURE_CONFIG = {
    "n": 32,
    "m": 10,
    "epochs_a": 8,
    "epochs_b": 2,
    "base_seed": 2024,
    "machine": {"kind": "small_cnn"},
}


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Three cmd_measure runs on the ramp fixture: twice serial, once with 8 workers."""
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = synth.write_ppm_dataset(synth.ramp_dataset(count=96, seed=5, size=12), root / "data")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(MEASURE_CONFIG))
    outs = {}
    for name, workers in (("first", 1), ("second", 1), ("parallel", 8)):
        out = root / name
        code = cli.main(
            ["measure", "--config", str(config_path), "--data", str(data_dir), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outs[name] = out
    return outs


def test_determinism_of_cmd_measure(cli_runs):
    with criterion("determinism"):
        first = (cli_runs["first"] / "scores.csv").read_bytes()
        second = (cli_runs["second"] / "scores.csv").read_bytes()
        parallel = (cli_runs["parallel"] / "scores.csv").read_bytes()
        assert first == second, "rerun with identical config must be byte-identical"
        assert first == parallel, "worker count must not change the score table"
        assert (cli_runs["first"] / "episodes.jsonl").read_bytes() == (
            cli_runs["second"] / "episodes.jsonl"
        ).read_bytes()


def test_score_semantics(cli_runs):
    with criterion("score-semantics"):
        table = read_score_csv(cli_runs["first"] / "scores.csv")
        assert len(table.scores) == MEASURE_CONFIG["n"]
        assert table.m_effective == MEASURE_CONFIG["m"], "ramp fixture must pass every gate"
        for score in table.scores.values():
            assert 0.0 <= score <= 1.0
            assert score == round(score * table.m_effective) / table.m_effective


def test_gradient_correctness():
    with criterion("gradient-correctness"):
        started = time.monotonic()
        rng = np.random.default_rng(7)

        def check(loss_fn, tensors, coords):
            loss = loss_fn()
            loss.backward()
            grads = [(t, t.grad.copy()) for t in tensors]
            for tensor, grad in grads:
                take = min(tensor.data.size, max(1, coords // len(grads)))
                for index in rng.choice(tensor.data.size, size=take, replace=False):
                    flat = tensor.data.ravel()
                    orig = flat[index]
                    h = 1e-5
                    flat[index] = orig + h
                    up = float(loss_fn().data)
                    flat[index] = orig - h
                    down = float(loss_fn().data)
                    flat[index] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grad.ravel()[index]
                    assert abs(analytic - numeric) < 1e-4 * max(1.0, abs(numeric))

        # conv / pool / relu / flatten / linear / cross-entropy
        spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
        machine = build_machine(spec, 4, seed=1)
        x = rng.random((4, 3, 8, 8))
        labels = [0, 1, 2, 3]
        params = [t for _, t in machine.parameters()]
        check(lambda: softmax_cross_entropy(machine.forward(Tensor(x)), labels), params, 120)

        # sigmoid + mean squared error through the predictor head
        model = build_predictor(spec, seed=2)
        batch = rng.random((6, 3, 8, 8))
        y = rng.random(6)
        check(lambda: mse_loss(model.forward_scores(batch), y), [t for _, t in model.parameters()], 120)

        # rotation and seen/unseen losses over a machine
        pixels = synth.random_image("fd", np.random.default_rng(3), size=8).pixels
        rot_machine = build_machine(spec, 4, seed=4)
        rotations = rotated_batch(pixels)
        check(lambda: rotation_loss(rot_machine, rotations), [t for _, t in rot_machine.parameters()], 60)
        seen_machine = build_machine(spec, 2, seed=5)
        check(lambda: seen_loss(seen_machine, pixels, SEEN_CLASS), [t for _, t in seen_machine.parameters()], 60)

        # input gradients through every standalone op
        for op in (T.relu, T.sigmoid, lambda a: T.maxpool2(a, {})):
            arg = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            check(lambda a=arg, o=op: T.mean(T.mul(o(a), o(a))), [arg], 30)

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"finite-difference sweep took {elapsed:.1f}s"


def test_separable_fixture_sanity(monkeypatch):
    # Forked pool workers inherit the stand-in sampler.
    monkeypatch.setattr(measurer, "sample_episode_sets", synth.stratified_sampler)
    with criterion("separable-fixture"):
        started = time.monotonic()
        dataset = synth.separable_dataset(ramps=64, stripes=32, seed=1, size=12)
        set_a = [i for i in dataset.ids if i.startswith("ramp")][:32]
        spec = MachineSpec(kind="small_cnn", in_channels=3, height=12, width=12)
        config = EpisodeConfig(machine=spec, n=32, m=10, epochs_a=10, epochs_b=3, base_seed=11)
        table, episodes = measure(dataset, set_a, config, workers=4)
        passed = sum(e.passed_gate for e in episodes)
        assert passed >= 9, f"only {passed}/10 episodes passed the 80% rotation gate"
        mean_score = float(np.mean(list(table.scores.values())))
        assert mean_score >= 0.9, f"mean score over the seen set was {mean_score:.3f}"
        assert time.monotonic() - started < 600.0


def test_calibration_oracle():
    with criterion("calibration-oracle"):
        from test_metrics import calibrated_bins, calibration, oracle_calibration, random_predictions

        rng = make_rng("acceptance-calibration")
        for trial in range(1000):
            predictions = random_predictions(rng, f"t{trial}", int(rng.integers(1, 50)))
            assert abs(calibration(predictions) - oracle_calibration(predictions)) < 1e-12
        # perfectly calibrated constructions: mean confidence == accuracy in every bin
        for confidence, bin_size, correct_per_bin in ((1.0, 3, 3), (0.8, 5, 4), (0.5, 2, 1)):
            assert calibration(calibrated_bins(confidence, bin_size, correct_per_bin)) < 1e-12


def test_spearman_oracle():
    with criterion("spearman-oracle"):
        from test_metrics import oracle_spearman

        for length in (3, 4):
            for xs in itertools.product((0, 1, 2), repeat=length):
                for ys in itertools.product((0, 1, 2), repeat=length):
                    assert spearman(xs, ys) == oracle_spearman(xs, ys)
        rng = make_rng("acceptance-spearman-partner")
        for length in (5, 6, 7, 8):
            for xs in itertools.product((0, 1, 2), repeat=length):
                ys = tuple(int(v) for v in rng.integers(0, 3, size=length))
                assert spearman(xs, ys) == oracle_spearman(xs, ys)
        rng = make_rng("acceptance-spearman-reals")
        for _ in range(10_000):
            n = int(rng.integers(3, 30))
            xs, ys = rng.normal(size=n), rng.normal(size=n)
            assert abs(spearman(xs, ys) - oracle_spearman(xs, ys)) < 1e-12
        for _ in range(100):
            xs = rng.integers(0, 6, size=15).astype(float)
            assert np.array_equal(midranks(xs), midranks(np.exp(xs)))
            assert np.array_equal(midranks(xs), midranks(3.0 * xs + 2.0))


def test_rotation_group():
    with criterion("rotation-group"):
        rng = make_rng("acceptance-rotations")
        for index in range(100):
            pixels = synth.random_image(f"r{index}", rng, size=int(rng.integers(2, 12))).pixels
            r90 = pixels
            for _ in range(4):
                r90 = rotate_pixels(r90, 1)
            assert np.array_equal(r90, pixels)
            assert np.array_equal(rotate_pixels(rotate_pixels(pixels, 2), 2), pixels)
            assert np.array_equal(rotate_pixels(pixels, 0), pixels)


def test_attribute_oracles():
    with criterion("attribute-oracles"):
        constant = np.full((3, 6, 6), 0.37)
        assert entropy(grayscale(constant)) == 0.0
        assert colorfulness(constant) == 0.0
        assert global_contrast(grayscale(constant)) == 0.0

        levels = np.arange(256, dtype=np.float64) / 255.0
        uniform = np.tile(levels.reshape(1, 16, 16), (3, 1, 1))
        assert entropy(grayscale(uniform)) == 8.0

        from test_attributes import gcf_weight

        rng = make_rng("acceptance-attributes")
        for size in (4, 5, 7):
            image = synth.random_image(f"a{size}", rng, size=size)
            vec = compute_attributes(image)
            # scalar-loop oracles
            import colorsys

            sats, vals, vx, vy = [], [], 0.0, 0.0
            rgs, ybs = [], []
            gray = np.empty((size, size))
            for y in range(size):
                for x in range(size):
                    r, g, b = image.pixels[:, y, x]
                    h, s, v = colorsys.rgb_to_hsv(r, g, b)
                    sats.append(s)
                    vals.append(v)
                    if max(r, g, b) > min(r, g, b):
                        vx += math.cos(2 * math.pi * h)
                        vy += math.sin(2 * math.pi * h)
                    rgs.append(255.0 * (r - g))
                    ybs.append(255.0 * (0.5 * (r + g) - b))
                    gray[y, x] = 0.299 * r + 0.587 * g + 0.114 * b
            n = size * size
            assert abs(vec.saturation - np.mean(sats)) < 1e-9
            assert abs(vec.value - np.mean(vals)) < 1e-9
            expected_hue = math.degrees(math.atan2(vy / n, vx / n)) % 360.0
            assert abs(vec.hue - expected_hue) < 1e-9
            expected_colorfulness = math.sqrt(np.std(rgs) ** 2 + np.std(ybs) ** 2) + 0.3 * math.sqrt(
                np.mean(rgs) ** 2 + np.mean(ybs) ** 2
            )
            assert abs(vec.colorfulness - expected_colorfulness) < 1e-9

            counts = {}
            for value in gray.ravel():
                level = int(math.floor(value * 255.0 + 0.5))
                counts[level] = counts.get(level, 0) + 1
            expected_entropy = -sum((c / n) * math.log2(c / n) for c in counts.values())
            assert abs(vec.entropy - expected_entropy) < 1e-9

            def level_contrast(arr):
                lum = 100.0 * np.sqrt(arr)
                hh, ww = lum.shape
                per_pixel = []
                for yy in range(hh):
                    for xx in range(ww):
                        gaps = [
                            abs(lum[yy, xx] - lum[yy + dy, xx + dx])
                            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1))
                            if 0 <= yy + dy < hh and 0 <= xx + dx < ww
                        ]
                        per_pixel.append(sum(gaps) / len(gaps))
                return float(np.mean(per_pixel))

            def shrink(arr):
                hh, ww = arr.shape
                out = np.empty(((hh + 1) // 2, (ww + 1) // 2))
                for yy in range(out.shape[0]):
                    for xx in range(out.shape[1]):
                        out[yy, xx] = arr[2 * yy : 2 * yy + 2, 2 * xx : 2 * xx + 2].mean()
                return out

            expected_gcf = 0.0
            current = gray
            for level in range(1, 10):
                if min(current.shape) >= 2:
                    expected_gcf += gcf_weight(level) * level_contrast(current)
                current = shrink(current)
            assert abs(vec.contrast - expected_gcf) < 1e-9


def test_lowest_calibration_selection():
    with criterion("lowest-calibration-selection"):
        assert select_epoch([0.9, 0.8, 0.7, 0.6]) == 4  # monotone decreasing
        assert select_epoch([0.6, 0.7, 0.8, 0.9]) == 1  # monotone increasing
        assert select_epoch([0.5, 0.2, 0.4, 0.9]) == 2  # unimodal
        assert select_epoch([0.4, 0.3, 0.3, 0.3]) == 2  # tie -> earliest
        assert select_epoch([0.2, 0.2, 0.2]) == 1
        rng = make_rng("acceptance-selection")
        for _ in range(200):
            trace = [float(v) for v in rng.random(int(rng.integers(1, 12)))]
            chosen = select_epoch(trace)
            assert trace[chosen - 1] == min(trace)
            assert all(trace[k] > trace[chosen - 1] for k in range(chosen - 1))


def test_predictor_sanity():
    with criterion("predictor-sanity"):
        from memmeter.measurer import ScoreTable
        from test_predictor import OracleModel

        dataset, scores = synth.brightness_scored_images(count=200, seed=3, size=8)
        table = ScoreTable(scores=scores, m_effective=10, machine="fixture", config_hash="h", base_seed=0)
        config = RegressionConfig(
            epochs=200, lr=0.02, batch_size=16, split_seed=1, test_fraction=0.1, augment=False
        )
        result = train_predictor(table, dataset, config, seed=5)
        train_rho = evaluate_predictor(result.model, table, dataset, result.train_ids)
        assert train_rho >= 0.95, f"overfit train correlation was {train_rho:.3f}"

        test_ids = result.test_ids
        assert evaluate_predictor(OracleModel(dataset, scores), table, dataset, test_ids) == 1.0

        null_dataset, _ = synth.brightness_scored_images(count=100, seed=21, size=8)
        rng = make_rng("acceptance-null")
        random_scores = {i: float(rng.random()) for i in null_dataset.ids}
        model = build_predictor(MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8), seed=77)
        predictions = predict(model, null_dataset)
        ids = sorted(random_scores)
        rho = spearman([predictions[i] for i in ids], [random_scores[i] for i in ids])
        assert abs(rho) < 0.3
        perm_rng = make_rng("acceptance-null-perm")
        values = np.array([random_scores[i] for i in ids])
        pred_values = np.array([predictions[i] for i in ids])
        null_rhos = [abs(spearman(pred_values, perm_rng.permutation(values))) for _ in range(1000)]
        assert float(np.quantile(null_rhos, 0.99)) < 0.3


def test_sweep_consistency(tmp_path):
    with criterion("sweep-consistency"):
        data_dir = synth.write_ppm_dataset(synth.ramp_dataset(count=16, seed=5, size=6), tmp_path / "data")
        config_path = tmp_path / "sweep.json"
        config_path.write_text(
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
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config_path), "--data", str(data_dir), "--out", str(out)]) == 0
        payload = json.loads((out / "consistency.json").read_text())
        matrix = payload["matrix"]
        assert len(matrix) == 2 and len(matrix[0]) == 2
        assert matrix[0][0] == 1.0 and matrix[1][1] == 1.0
        assert matrix[0][1] == matrix[1][0]

        scores = {f"i{k:02d}": k / 10 for k in range(10)}
        reversal = consistency_matrix([("fwd", scores), ("rev", {k: -v for k, v in scores.items()})])
        assert reversal[0, 1] == -1.0
        assert reversal[1, 0] == -1.0
