"""Episode orchestration: stages, gating, epoch selection, aggregation."""

import hashlib
import multiprocessing

import numpy as np
import pytest

import synth
from memmeter import measurer
from memmeter.data import Dataset
from memmeter.engine import SGD, build_machine
from memmeter.engine.losses import rotated_batch
from memmeter.engine.machine import MachineSpec
from memmeter.errors import ConfigError, DataFormatError, MeasurementError
from memmeter.measurer import (
    SEEN_CLASS,
    UNSEEN_CLASS,
    EpisodeConfig,
    EpisodeResult,
    ScoreTable,
    check_measurement,
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


@pytest.mark.parametrize("key", ["lr_a", "lr_b", "weight_decay"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_config_rejects_rates_that_are_not_finite_and_nonnegative(small_spec, key, value):
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        quick_config(small_spec, **{key: value})


def test_config_digest_does_not_depend_on_how_a_float_is_written(small_spec):
    from typing import get_type_hints

    floats = [name for name, kind in get_type_hints(EpisodeConfig).items() if kind is float]
    assert floats
    for name in floats:
        whole = 1 if name == "accuracy_gate" else 0  # accuracy_gate must be in (0, 1]
        as_int, as_float = (quick_config(small_spec, **{name: value}) for value in (whole, float(whole)))
        assert type(getattr(as_int, name)) is float, name
        assert measurer.config_digest(as_int, ["a"]) == measurer.config_digest(as_float, ["a"]), name
        assert measurer.config_digest(as_int, ["a"]) != measurer.config_digest(quick_config(small_spec), ["a"]), name


# --- stage (a) -------------------------------------------------------------------

def test_stage_a_learns_separable_rotations():
    # top-half white, bottom-half black: rotation is trivially detectable
    rng = make_rng("half-and-half")
    images = []
    for i in range(8):
        pixels = np.zeros((3, 8, 8))
        pixels[:, :4, :] = 1.0
        images.append(np.clip(pixels + rng.normal(0, 0.02, pixels.shape), 0, 1))
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    config = quick_config(spec, n=2, epochs_a=25)
    machine = build_machine(spec, 4, seed=1)
    accuracy = stage_a(machine, np.stack(images), config, shuffle_seed=5)
    assert accuracy == 1.0


def test_stage_a_same_seed_is_bitwise_identical(small_dataset, small_spec):
    config = quick_config(small_spec, epochs_a=3)
    pixels = small_dataset.batch(small_dataset.ids[:6])
    finals = []
    for _ in range(2):
        machine = build_machine(small_spec, 4, seed=42)
        stage_a(machine, pixels, config, shuffle_seed=7)
        finals.append([t.data.copy() for _, t in machine.parameters()])
    for left, right in zip(*finals):
        assert np.array_equal(left, right)


def test_stage_a_rotates_each_image_per_step(monkeypatch, small_dataset, small_spec):
    rotated = []

    def counting_rotated_batch(image):
        rotated.append(image.tobytes())
        return rotated_batch(image)

    monkeypatch.setattr(measurer, "rotated_batch", counting_rotated_batch)
    config = quick_config(small_spec, n=3, m=1, epochs_a=3, accuracy_gate=0.01)
    pixels = small_dataset.batch(small_dataset.ids[:6])
    stage_a(build_machine(small_spec, 4, seed=1), pixels, config, shuffle_seed=2)
    # once per training step, then once more for the final accuracy
    assert sorted(rotated) == sorted([image.tobytes() for image in pixels] * (config.epochs_a + 1))


def test_rotation_accuracy_counts_all_four_rotations(small_dataset, small_spec):
    machine = build_machine(small_spec, 4, seed=1)
    accuracy = rotation_accuracy(machine, small_dataset.batch(small_dataset.ids[:3]), "four_way")
    assert 0.0 <= accuracy <= 1.0
    assert (accuracy * 12) == int(accuracy * 12)  # 3 images x 4 rotations


# --- stage (b) -------------------------------------------------------------------

def test_stage_b_zero_lr_leaves_parameters_unchanged(small_dataset, small_spec):
    machine = build_machine(small_spec, 2, seed=1)
    before = [t.data.copy() for _, t in machine.parameters()]
    optimizer = SGD(machine.parameters(), lr=0.0, total_steps=100)
    pixels = small_dataset.batch(small_dataset.ids)
    stage_b_epoch(machine, pixels[:4], pixels[4:8], optimizer, make_rng(1))
    for original, (_, tensor) in zip(before, machine.parameters()):
        assert np.array_equal(original, tensor.data)


def test_stage_b_learns_visually_disjoint_sets():
    dataset = synth.separable_dataset(ramps=8, stripes=8, size=8)
    spec = MachineSpec(kind="small_cnn", in_channels=3, height=8, width=8)
    config = quick_config(spec, n=4, epochs_b=8, lr_b=0.02)
    machine = build_machine(spec, 2, seed=2)
    seen = dataset.batch(dataset.ids[:4])
    unseen = dataset.batch(dataset.ids[8:12])
    optimizer = SGD(machine.parameters(), lr=config.lr_b, total_steps=config.epochs_b * 8)
    rng = make_rng(9)
    for _ in range(config.epochs_b):
        stage_b_epoch(machine, seen, unseen, optimizer, rng)
    assert (measurer._probabilities(machine, seen).argmax(axis=1) == SEEN_CLASS).all()
    assert (measurer._probabilities(machine, unseen).argmax(axis=1) == UNSEEN_CLASS).all()


def test_head_reinit_removes_stage_a_head(small_dataset, small_spec):
    machine = build_machine(small_spec, 4, seed=1)
    stage_a_head = machine.head
    machine.replace_head(2, seed=2)
    assert machine.head is not stage_a_head
    assert machine.head.out_features == 2
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
    ids = small_dataset.ids[:4]
    verdicts, calibration = stage_c(machine, ids, small_dataset.batch(ids), config)
    assert all(v == "seen" for v in verdicts.values())
    assert calibration == pytest.approx(0.0, abs=1e-12)


def test_stage_c_uniform_machine_tie_breaks_to_seen(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = FixedLogitsMachine(small_spec, [0.0, 0.0])
    ids = small_dataset.ids[:4]
    verdicts, calibration = stage_c(machine, ids, small_dataset.batch(ids), config)
    assert all(v == "seen" for v in verdicts.values())  # class 0 = seen on ties
    # all confidences 0.5, all "correct": |0.5 - 1.0| = 0.5 in every bin
    assert calibration == pytest.approx(0.5, abs=1e-12)


def test_stage_c_is_pure(small_dataset, small_spec):
    config = quick_config(small_spec)
    machine = build_machine(small_spec, 2, seed=4)
    ids = small_dataset.ids[:4]
    pixels = small_dataset.batch(ids)
    first = stage_c(machine, ids, pixels, config)
    second = stage_c(machine, ids, pixels, config)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_stage_c_held_out_uses_reserves(small_dataset, small_spec):
    config = quick_config(small_spec, calibration_mode="held_out", n=10)
    assert config.calibration_reserve == 2
    machine = FixedLogitsMachine(small_spec, [60.0, -60.0])
    a_ids, calib_ids = small_dataset.ids[:4], small_dataset.ids[4:8]
    _, calibration = stage_c(
        machine, a_ids, small_dataset.batch(a_ids), config, calib_ids, small_dataset.batch(calib_ids)
    )
    # machine says "seen" with conf 1 for everything: the unseen half, the last two, is wrong
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

    def fake_stage_c(machine, a_ids, a_pixels, cfg, calib_ids=(), calib_pixels=()):
        index = calls["count"]
        calls["count"] += 1
        return {image_id: ("seen" if index == 1 else "unseen") for image_id in a_ids}, rigged[index]

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


def episode_pool(count=36):
    """Pairwise-distinct 6x6 ramps, so a stage's rows can be traced back to their ids by content."""
    rng = make_rng("episode-pool")
    dataset = synth.stack_dataset([synth.ramp_image(f"e{i:02d}", rng, size=6) for i in range(count)])
    assert len({image.pixels.tobytes() for image in dataset}) == count
    return dataset


def test_set_a_never_enters_stage_b(small_spec, monkeypatch):
    dataset = episode_pool()
    set_a = dataset.ids[:10]
    a_rows = {dataset.image(i).pixels.tobytes() for i in set_a}
    trained = []
    original = measurer.stage_b_epoch

    def logging_stage_b(machine, seen, unseen, optimizer, rng):
        trained.extend(image.tobytes() for image in (*seen, *unseen))
        return original(machine, seen, unseen, optimizer, rng)

    monkeypatch.setattr(measurer, "stage_b_epoch", logging_stage_b)
    for mode in ("seen_only", "held_out"):
        trained.clear()
        config = quick_config(small_spec, n=10, epochs_a=1, accuracy_gate=0.01, calibration_mode=mode)
        measure(dataset, set_a, config, workers=1)
        assert len(trained) == 2 * config.n * config.epochs_b * config.m
        assert not (set(trained) & a_rows)


@pytest.mark.parametrize("calibration_mode", ["seen_only", "held_out"])
def test_run_episode_hands_each_stage_its_sets_from_one_conversion(small_spec, monkeypatch, calibration_mode):
    # run_episode converts A, B, the seen reserve, the unseen reserve and C in one batch and
    # slices it: a wrong offset would hand a stage another set's rows.
    dataset = episode_pool()
    config = quick_config(small_spec, n=10, m=1, epochs_b=2, calibration_mode=calibration_mode)
    calls = {}
    for name in ("sample_episode_sets", "stage_a", "stage_b_epoch", "stage_c"):
        def recording(*args, _name=name, _original=getattr(measurer, name), **kwargs):
            value = 1.0 if _name == "stage_a" else _original(*args, **kwargs)  # stage (a) passes untrained
            calls.setdefault(_name, []).append((args, value))
            return value

        monkeypatch.setattr(measurer, name, recording)
    batches = []
    real_batch = Dataset.batch
    monkeypatch.setattr(Dataset, "batch", lambda self, ids: batches.append(ids) or real_batch(self, ids))
    monkeypatch.setattr(Dataset, "image", None)  # the episode converts no image on its own
    run_episode(dataset, dataset.ids[:10], config, 0)
    monkeypatch.undo()

    def rows(ids):
        return dataset.batch(list(ids)).tobytes()

    # The draw's first n ids are B, the next n C, then the seen reserve and the unseen one.
    ((_, drawn),) = calls["sample_episode_sets"]
    n, reserve = config.n, config.calibration_reserve
    set_a, set_b, set_c = tuple(dataset.ids[:10]), drawn[:n], drawn[n : 2 * n]
    calib_seen, calib_unseen = drawn[2 * n : 2 * n + reserve], drawn[2 * n + reserve :]
    assert len(drawn) == 2 * n + 2 * reserve == len(set(drawn) - set(set_a))
    assert len(batches) == 1
    assert len(calib_seen) == len(calib_unseen) == reserve
    ((stage_a_args, _),) = calls["stage_a"]
    assert stage_a_args[1].tobytes() == rows(set_a + set_b + calib_seen)
    assert len(calls["stage_b_epoch"]) == len(calls["stage_c"]) == config.epochs_b
    for (_, seen_pixels, unseen_pixels, *_), _ in calls["stage_b_epoch"]:
        assert seen_pixels.tobytes() == rows(set_b)
        assert unseen_pixels.tobytes() == rows(set_c)
    for (_, a_ids, a_pixels, _, calib_ids, calib_pixels), _ in calls["stage_c"]:
        assert tuple(a_ids) == set_a and a_pixels.tobytes() == rows(set_a)
        assert tuple(calib_ids) == calib_seen + calib_unseen
        assert calib_pixels.tobytes() == rows(calib_ids)


def test_episode_rows_keep_their_pinned_ids(small_spec, monkeypatch):
    # The ids each episode converts, in row order, over 20 episodes in both calibration
    # modes; stage (a) fails the gate at once, so only the draw and the layout run.
    # Ids alone do not depend on the floating-point kernels.
    dataset = episode_pool()
    batches = []
    real_batch = Dataset.batch
    monkeypatch.setattr(Dataset, "batch", lambda self, ids: batches.append(tuple(ids)) or real_batch(self, ids))
    monkeypatch.setattr(measurer, "stage_a", lambda *args, **kwargs: 0.0)
    for mode in ("seen_only", "held_out"):
        config = quick_config(small_spec, n=10, calibration_mode=mode)
        for index in range(20):
            assert not run_episode(dataset, dataset.ids[:10], config, index).passed_gate
    assert len(batches) == 40 and {len(ids) for ids in batches} == {30, 34}
    digest = hashlib.sha256("\n".join(",".join(ids) for ids in batches).encode()).hexdigest()
    assert digest == "f42b424eeb3c08b749d202327bb80ca989cc160b87672ff9a86172de4271e03d"


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
        lambda machine, a_ids, a_pixels, cfg, calib_ids=(), calib_pixels=(): ({image_id: "seen" for image_id in a_ids}, 0.0),
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
    with pytest.raises(DataFormatError, match="^test: .*needs 18"):
        measure(small_dataset, small_dataset.ids[:6], config)


def test_check_measurement_rejects_small_dataset_first(small_dataset, small_spec):
    ids = small_dataset.ids[:11]
    eleven = Dataset(ids, np.stack([small_dataset.image(i).pixels for i in ids]), source="eleven")
    # set A is bad too, but the dataset size is checked before it
    with pytest.raises(DataFormatError, match="^eleven: dataset holds 11 images but the protocol needs 12"):
        check_measurement(eleven, ["nope"], quick_config(small_spec))


def test_measure_checks_set_a_before_any_episode(small_dataset, small_spec, monkeypatch):
    def forbidden(*args):
        raise AssertionError("no episode may run with a bad set A")

    monkeypatch.setattr(measurer, "run_episode", forbidden)
    set_a = ["ramp00", "ramp01", "ramp01", "ramp03"]
    with pytest.raises(ConfigError, match="'ramp01' twice"):
        measure(small_dataset, set_a, quick_config(small_spec, m=4), workers=2)


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
