"""Episode orchestration: stages, gating, epoch selection, aggregation."""

import multiprocessing

import numpy as np
import pytest

import synth
from memmeter import measurer
from memmeter.data import Dataset
from memmeter.engine import SGD, build_machine
from memmeter.engine.losses import rotated_batch
from memmeter.engine.machine import MachineSpec
from memmeter.errors import ConfigError, MeasurementError
from memmeter.measurer import (
    EpisodeConfig,
    EpisodeResult,
    ScoreTable,
    measure,
    read_score_csv,
    rotation_accuracy,
    run_episode,
    select_epoch,
    stage_a,
    stage_b_epoch,
    stage_c,
    write_episode_jsonl,
    write_score_csv,
)
from memmeter.rng import make_rng


def quick_config(machine, **overrides):
    defaults = dict(n=4, m=2, epochs_a=2, epochs_b=2, base_seed=3)
    defaults.update(overrides)
    return EpisodeConfig(machine=machine, **defaults)


@pytest.fixture
def small_dataset():
    rng = make_rng("measurer-tests")
    images = [synth.ramp_image(f"ramp{i:02d}", rng, size=6) for i in range(16)]
    return synth.stack_dataset(images, source="test")


@pytest.fixture
def small_spec():
    return MachineSpec(kind="mlp", in_channels=3, height=6, width=6, hidden=(8,))


# --- config validation ---------------------------------------------------------

def test_config_validation(small_spec):
    with pytest.raises(ConfigError):
        quick_config(small_spec, epochs_a=0)
    with pytest.raises(ConfigError):
        quick_config(small_spec, n=0)
    with pytest.raises(ConfigError):
        quick_config(small_spec, accuracy_gate=0.0)
    with pytest.raises(ConfigError):
        quick_config(small_spec, pretext_mode="five_way")
    with pytest.raises(ConfigError):
        quick_config(small_spec, calibration_mode="nope")
    with pytest.raises(ConfigError, match="at least 5"):
        quick_config(small_spec, calibration_mode="held_out", n=4)
    assert quick_config(small_spec, pretext_mode="binary").head_width_a == 2


# --- stage (a) -------------------------------------------------------------------

def test_stage_a_learns_separable_rotations():
    # top-half white, bottom-half black: rotation is trivially detectable
    rng = make_rng("half-and-half")
    images = []
    for i in range(8):
        pixels = np.zeros((3, 8, 8))
        pixels[:, :4, :] = 1.0
        noise = np.clip(pixels + rng.normal(0, 0.02, pixels.shape), 0, 1)
        images.append(synth.ImageTensor(f"hh{i}", noise))
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    config = quick_config(spec, n=2, epochs_a=25)
    machine = build_machine(spec, 4, seed=1)
    accuracy = stage_a(machine, images, config, shuffle_seed=5)
    assert accuracy == 1.0


def test_stage_a_same_seed_is_bitwise_identical(small_dataset, small_spec):
    config = quick_config(small_spec, epochs_a=3)
    images = [small_dataset.image(i) for i in small_dataset.ids[:6]]
    finals = []
    for _ in range(2):
        machine = build_machine(small_spec, 4, seed=42)
        stage_a(machine, images, config, shuffle_seed=7)
        finals.append([t.data.copy() for _, t in machine.parameters()])
    for left, right in zip(*finals):
        assert np.array_equal(left, right)


def test_stage_a_rotates_each_image_per_step(monkeypatch, small_dataset, small_spec):
    rotated = []

    def counting_rotated_batch(image):
        rotated.append(image.id)
        return rotated_batch(image)

    monkeypatch.setattr(measurer, "rotated_batch", counting_rotated_batch)
    config = quick_config(small_spec, n=3, m=1, epochs_a=3, accuracy_gate=0.01)
    images = [small_dataset.image(i) for i in small_dataset.ids[:6]]
    stage_a(build_machine(small_spec, 4, seed=1), images, config, shuffle_seed=2)
    # once per training step, then once more for the final accuracy
    assert sorted(rotated) == sorted([image.id for image in images] * (config.epochs_a + 1))


def test_rotation_accuracy_counts_all_four_rotations(small_dataset, small_spec):
    machine = build_machine(small_spec, 4, seed=1)
    images = [small_dataset.image(i) for i in small_dataset.ids[:3]]
    accuracy = rotation_accuracy(machine, images, "four_way")
    assert 0.0 <= accuracy <= 1.0
    assert (accuracy * 12) == int(accuracy * 12)  # 3 images x 4 rotations


# --- stage (b) -------------------------------------------------------------------

def test_stage_b_needs_balanced_sets(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = build_machine(small_spec, 2, seed=1)
    optimizer = SGD(machine.parameters(), lr=0.01, total_steps=100)
    images = [small_dataset.image(i) for i in small_dataset.ids]
    with pytest.raises(ConfigError, match="balanced"):
        stage_b_epoch(machine, images[:3], images[3:5], config, optimizer, make_rng(1))


def test_stage_b_zero_lr_leaves_parameters_unchanged(small_dataset, small_spec):
    config = quick_config(small_spec, lr_b=0.0)
    machine = build_machine(small_spec, 2, seed=1)
    before = [t.data.copy() for _, t in machine.parameters()]
    optimizer = SGD(machine.parameters(), lr=0.0, total_steps=100)
    images = [small_dataset.image(i) for i in small_dataset.ids]
    stage_b_epoch(machine, images[:4], images[4:8], config, optimizer, make_rng(1))
    for original, (_, tensor) in zip(before, machine.parameters()):
        assert np.array_equal(original, tensor.data)


def test_stage_b_learns_visually_disjoint_sets():
    dataset = synth.separable_dataset(ramps=8, stripes=8, size=8)
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    config = quick_config(spec, n=4, epochs_b=8, lr_b=0.02)
    machine = build_machine(spec, 2, seed=2)
    seen = [dataset.image(i) for i in dataset.ids[:4]]
    unseen = [dataset.image(i) for i in dataset.ids[8:12]]
    optimizer = SGD(machine.parameters(), lr=config.lr_b, total_steps=config.epochs_b * 8)
    rng = make_rng(9)
    for _ in range(config.epochs_b):
        stage_b_epoch(machine, seen, unseen, config, optimizer, rng)
    records = measurer._predict_records(machine, seen, true_class=0)
    records += measurer._predict_records(machine, unseen, true_class=1)
    assert all(rec.predicted_class == rec.true_class for rec in records)


def test_head_reinit_removes_stage_a_head(small_dataset, small_spec):
    machine = build_machine(small_spec, 4, seed=1)
    stage_a_head = machine.head
    machine.replace_head(2, seed=2)
    assert machine.head is not stage_a_head
    assert machine.head_width == 2
    assert all(t.data.shape[-1] != 4 for n, t in machine.parameters() if n.startswith("head."))


# --- stage (c) -------------------------------------------------------------------

class FixedLogitsMachine:
    """Forward returns the same logits row for every input image."""

    def __init__(self, spec, row):
        self.spec = spec
        self.head_width = len(row)
        self.row = np.asarray(row, dtype=float)

    def forward(self, x):
        from memmeter.engine import Tensor

        return Tensor(np.tile(self.row, (x.data.shape[0], 1)))


def test_stage_c_confident_seen_machine(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = FixedLogitsMachine(small_spec, [60.0, -60.0])
    images = [small_dataset.image(i) for i in small_dataset.ids[:4]]
    verdicts, calibration = stage_c(machine, images, config)
    assert all(v == "seen" for v in verdicts.values())
    assert calibration == pytest.approx(0.0, abs=1e-12)


def test_stage_c_uniform_machine_tie_breaks_to_seen(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = FixedLogitsMachine(small_spec, [0.0, 0.0])
    images = [small_dataset.image(i) for i in small_dataset.ids[:4]]
    verdicts, calibration = stage_c(machine, images, config)
    assert all(v == "seen" for v in verdicts.values())  # class 0 = seen on ties
    # all confidences 0.5, all "correct": |0.5 - 1.0| = 0.5 in every bin
    assert calibration == pytest.approx(0.5, abs=1e-12)


def test_stage_c_is_pure(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = build_machine(small_spec, 2, seed=4)
    images = [small_dataset.image(i) for i in small_dataset.ids[:4]]
    first = stage_c(machine, images, config)
    second = stage_c(machine, images, config)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_stage_c_held_out_uses_reserves(small_dataset, small_spec):
    config = quick_config(small_spec, calibration_mode="held_out", n=5)
    machine = FixedLogitsMachine(small_spec, [60.0, -60.0])
    a_images = [small_dataset.image(i) for i in small_dataset.ids[:4]]
    seen = [small_dataset.image(i) for i in small_dataset.ids[4:6]]
    unseen = [small_dataset.image(i) for i in small_dataset.ids[6:8]]
    _, calibration = stage_c(machine, a_images, config, seen, unseen)
    # machine says "seen" with conf 1 for everything: the unseen half is wrong
    assert calibration == pytest.approx(np.sqrt(0.5), abs=1e-9)


# --- epoch selection ----------------------------------------------------------------

def test_select_epoch_rules():
    assert select_epoch([0.4]) == 1
    assert select_epoch([0.5, 0.4, 0.3]) == 3  # strictly decreasing -> last
    assert select_epoch([0.3, 0.2, 0.2, 0.5]) == 2  # tie -> earliest
    assert select_epoch([0.2, 0.3, 0.1, 0.6]) == 3  # unimodal-ish -> argmin
    with pytest.raises(ValueError):
        select_epoch([])


def test_run_episode_single_epoch_chooses_epoch_one(small_dataset, small_spec):
    config = quick_config(small_spec, epochs_b=1, epochs_a=1, accuracy_gate=0.01)
    result = run_episode(small_dataset, small_dataset.ids[:4], config, episode_index=0)
    assert result.chosen_epoch == 1
    assert len(result.seen_verdict) == 4
    assert len(result.calibration_trace) == 1


def test_run_episode_verdicts_come_from_chosen_epoch(small_dataset, small_spec, monkeypatch):
    config = quick_config(small_spec, epochs_b=3, epochs_a=1, accuracy_gate=0.01)
    # inject a rigged trace by stubbing stage_c per call
    calls = {"count": 0}
    rigged = [0.5, 0.1, 0.4]

    def fake_stage_c(machine, a_images, cfg, calib_seen=(), calib_unseen=()):
        index = calls["count"]
        calls["count"] += 1
        return {img.id: ("seen" if index == 1 else "unseen") for img in a_images}, rigged[index]

    monkeypatch.setattr(measurer, "stage_c", fake_stage_c)
    result = run_episode(small_dataset, small_dataset.ids[:4], config, episode_index=0)
    assert result.chosen_epoch == 2
    assert all(v == "seen" for v in result.seen_verdict.values())
    assert result.calibration_trace == rigged


def test_gate_failure_skips_stages_b_and_c(small_dataset, small_spec, monkeypatch):
    config = quick_config(small_spec, accuracy_gate=1.0)
    monkeypatch.setattr(measurer, "stage_a", lambda *a, **k: 0.5)

    def forbidden(*args, **kwargs):
        raise AssertionError("stage (b) must not run after a gate failure")

    monkeypatch.setattr(measurer, "stage_b_epoch", forbidden)
    result = run_episode(small_dataset, small_dataset.ids[:4], config, episode_index=0)
    assert not result.passed_gate
    assert result.seen_verdict == {}
    assert result.chosen_epoch == 0


def test_set_a_never_enters_stage_b(small_dataset, small_spec, monkeypatch):
    config = quick_config(small_spec, epochs_a=1, accuracy_gate=0.01, m=2)
    set_a = set(small_dataset.ids[:4])
    trained = []
    original = measurer.stage_b_epoch

    def logging_stage_b(machine, seen, unseen, cfg, optimizer, rng):
        trained.extend(img.id for img in seen + unseen)
        return original(machine, seen, unseen, cfg, optimizer, rng)

    monkeypatch.setattr(measurer, "stage_b_epoch", logging_stage_b)
    measure(small_dataset, sorted(set_a), config, workers=1)
    assert trained and not (set(trained) & set_a)


# --- measure aggregation ----------------------------------------------------------------

def test_measure_m1_scores_are_binary(small_dataset, small_spec):
    config = quick_config(small_spec, m=1, epochs_a=1, accuracy_gate=0.01)
    table, episodes = measure(small_dataset, small_dataset.ids[:4], config)
    assert table.m_effective == 1
    assert set(table.scores.values()) <= {0.0, 1.0}
    assert len(episodes) == 1


def test_measure_stubbed_all_seen_gives_ones(small_dataset, small_spec, monkeypatch):
    config = quick_config(small_spec, m=3, epochs_a=1)
    monkeypatch.setattr(measurer, "stage_a", lambda *a, **k: 1.0)
    monkeypatch.setattr(
        measurer,
        "stage_c",
        lambda machine, a_images, cfg, calib_seen=(), calib_unseen=(): (
            {img.id: "seen" for img in a_images},
            0.0,
        ),
    )
    table, _ = measure(small_dataset, small_dataset.ids[:4], config)
    assert all(score == 1.0 for score in table.scores.values())
    assert table.m_effective == 3


def test_measure_scores_are_multiples_of_reciprocal_m_effective(small_dataset, small_spec):
    config = quick_config(small_spec, m=3, epochs_a=2, accuracy_gate=0.01)
    table, _ = measure(small_dataset, small_dataset.ids[:4], config)
    for score in table.scores.values():
        assert 0.0 <= score <= 1.0
        assert score == round(score * table.m_effective) / table.m_effective


def test_measure_serial_equals_concurrent(small_dataset, small_spec):
    config = quick_config(small_spec, m=4, epochs_a=1, accuracy_gate=0.01)
    serial, _ = measure(small_dataset, small_dataset.ids[:4], config, workers=1)
    concurrent, _ = measure(small_dataset, small_dataset.ids[:4], config, workers=3)
    assert serial == concurrent


def test_measure_ships_the_dataset_to_each_worker_at_most_once(small_dataset, small_spec, monkeypatch):
    pickled = []

    def counting_reduce_ex(self, protocol):
        pickled.append(protocol)
        return object.__reduce_ex__(self, protocol)

    monkeypatch.setattr(Dataset, "__reduce_ex__", counting_reduce_ex)
    config = quick_config(small_spec, m=4, accuracy_gate=0.01)
    measure(small_dataset, small_dataset.ids[:4], config, workers=2)
    # Forked workers inherit the dataset; other start methods pickle it once per worker.
    assert len(pickled) <= (0 if multiprocessing.get_start_method() == "fork" else 2)


def test_measure_starts_no_more_workers_than_episodes(small_dataset, small_spec, monkeypatch):
    started = []
    real_pool = multiprocessing.Pool

    def recording_pool(processes, *args):
        started.append(processes)
        return real_pool(processes, *args)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    for m in (2, 1):
        measure(small_dataset, small_dataset.ids[:4], quick_config(small_spec, m=m, accuracy_gate=0.01), workers=8)
    assert started == [2]


def test_measure_rejects_small_dataset(small_dataset, small_spec):
    config = quick_config(small_spec, n=6)
    with pytest.raises(ConfigError, match="needs 18"):
        measure(small_dataset, small_dataset.ids[:6], config)


def test_measure_all_gates_failing_is_measurement_error(small_dataset, small_spec, monkeypatch):
    config = quick_config(small_spec, m=2)
    monkeypatch.setattr(measurer, "stage_a", lambda *a, **k: 0.0)
    with pytest.raises(MeasurementError, match="gate"):
        measure(small_dataset, small_dataset.ids[:4], config)


def test_held_out_mode_reserves_extra_images(small_spec):
    rng = make_rng("held-out")
    images = [synth.ramp_image(f"r{i:02d}", rng, size=6) for i in range(18)]
    dataset = synth.stack_dataset(images)
    config = quick_config(small_spec, n=5, m=1, epochs_a=1, accuracy_gate=0.01, calibration_mode="held_out")
    assert config.calibration_reserve == 1
    table, episodes = measure(dataset, dataset.ids[:5], config)
    assert episodes[0].passed_gate
    assert len(table.scores) == 5


def test_binary_pretext_with_linear_machine(small_dataset):
    # conventional-machine path: 2-way rotation classes {0,90} vs {180,270}
    spec = MachineSpec(kind="linear", in_channels=3, height=6, width=6)
    config = quick_config(spec, m=2, epochs_a=2, accuracy_gate=0.01, pretext_mode="binary")
    table, episodes = measure(small_dataset, small_dataset.ids[:4], config)
    assert table.m_effective >= 1
    assert all(0.0 <= s <= 1.0 for s in table.scores.values())


def test_binary_pretext_head_width_enforced(small_dataset, small_spec):
    from memmeter.engine.losses import rotation_loss

    config = quick_config(small_spec, pretext_mode="binary")
    machine = build_machine(small_spec, 4, seed=1)  # wrong width for binary
    with pytest.raises(ConfigError, match="2-way head"):
        rotation_loss(machine, rotated_batch(small_dataset.image(small_dataset.ids[0])), config.pretext_mode)


def test_init_checkpoint_replaces_fresh_init(tmp_path, small_dataset, small_spec):
    from memmeter.engine import save_params

    donor = build_machine(small_spec, 4, seed=1234)
    checkpoint = tmp_path / "pretrained.mmt1"
    save_params(donor.parameters(), checkpoint)

    config = quick_config(small_spec, m=1, epochs_a=1, accuracy_gate=0.01)
    warm = quick_config(small_spec, m=1, epochs_a=1, accuracy_gate=0.01, init_checkpoint=str(checkpoint))
    cold_table, _ = measure(small_dataset, small_dataset.ids[:4], config)
    warm_one, _ = measure(small_dataset, small_dataset.ids[:4], warm)
    warm_two, _ = measure(small_dataset, small_dataset.ids[:4], warm)
    assert warm_one == warm_two  # checkpoint init is deterministic
    assert warm_one.config_hash != cold_table.config_hash


# --- persistence -----------------------------------------------------------------------

def test_score_csv_roundtrip(tmp_path):
    table = ScoreTable(
        scores={"b": 0.5, "a": 1.0},
        m_effective=2,
        machine="mlp[8|in3x6x6]",
        config_hash="abc123",
        base_seed=9,
    )
    path = tmp_path / "scores.csv"
    write_score_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "image_id,score,m_effective,machine,config_hash,base_seed"
    assert lines[1].startswith("a,")  # sorted by image id
    assert read_score_csv(path) == table


def test_episode_jsonl_is_one_record_per_line(tmp_path):
    results = [
        EpisodeResult(0, {"a": "seen"}, 1, [0.1], 1.0, True),
        EpisodeResult(1, {}, 0, [], 0.2, False),
    ]
    path = tmp_path / "episodes.jsonl"
    write_episode_jsonl(results, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    import json

    first = json.loads(lines[0])
    assert first["episode_index"] == 0
    assert first["seen_verdict"] == {"a": "seen"}
    assert json.loads(lines[1])["passed_gate"] is False
