"""Rotations, episode sampling, loaders, and regression augmentations."""

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest

from memmeter import data
from memmeter.attributes import grayscale
from memmeter.data import (
    Dataset,
    ImageTensor,
    _sample_erase_rect,
    augment_for_regression,
    load_cifar_binary,
    load_ppm_dir,
    read_ppm,
    rotate_pixels,
    sample_episode_sets,
    write_ppm,
)
from memmeter.engine.machine import MachineSpec
from memmeter.errors import ConfigError, DataFormatError
from memmeter.measurer import EpisodeConfig, measure
from memmeter.predictor import RegressionConfig, predict, train_predictor
from memmeter.rng import make_rng

from synth import ramp_dataset, random_image, stack_dataset


# --- rotations ---------------------------------------------------------------

def test_rotate_90_counterclockwise_hand_permutation():
    pixels = np.array([[[0.1, 0.2], [0.3, 0.4]]])
    # [[1,2],[3,4]] -> [[2,4],[1,3]] counterclockwise
    assert np.array_equal(rotate_pixels(pixels, 1), np.array([[[0.2, 0.4], [0.1, 0.3]]]))


def test_rotate_0_is_identity(rng):
    pixels = random_image("t", rng).pixels
    assert np.array_equal(rotate_pixels(pixels, 0), pixels)


def test_rotate_180_twice_is_identity(rng):
    pixels = random_image("t", rng).pixels
    assert np.array_equal(rotate_pixels(rotate_pixels(pixels, 2), 2), pixels)


def test_rotate_90_four_times_is_identity_bitwise(rng):
    pixels = random_image("t", rng, size=8).pixels
    out = pixels
    for _ in range(4):
        out = rotate_pixels(out, 1)
    assert np.array_equal(out, pixels)


def test_rotation_preserves_pixel_multiset(rng):
    pixels = random_image("t", rng).pixels
    for quarter_turns in range(4):
        assert np.array_equal(np.sort(rotate_pixels(pixels, quarter_turns).ravel()), np.sort(pixels.ravel()))


def test_rotate_non_square_matches_rot90(rng):
    pixels = rng.random((3, 4, 6))
    for quarter_turns in range(4):
        assert np.array_equal(rotate_pixels(pixels, quarter_turns), np.rot90(pixels, quarter_turns, axes=(1, 2)))


# --- episode sampling ----------------------------------------------------------

def make_dataset(count, rng, size=4):
    return stack_dataset([random_image(f"img{i:03d}", rng, size=size) for i in range(count)])


def test_forced_partition_when_dataset_is_exactly_3n(rng):
    dataset = make_dataset(12, rng)
    set_a = dataset.ids[:4]
    sets = sample_episode_sets(dataset, set_a, 4, episode_seed=5)
    assert sorted(sets.set_b + sets.set_c) == sorted(set(dataset.ids) - set(set_a))


def test_same_seed_gives_identical_sets(rng):
    dataset = make_dataset(20, rng)
    set_a = dataset.ids[:5]
    one = sample_episode_sets(dataset, set_a, 5, episode_seed=9)
    two = sample_episode_sets(dataset, set_a, 5, episode_seed=9)
    assert one == two
    three = sample_episode_sets(dataset, set_a, 5, episode_seed=10)
    assert three != one


def test_sets_are_disjoint_across_many_seeds(rng):
    dataset = make_dataset(30, rng)
    set_a = dataset.ids[:6]
    for seed in range(200):
        sets = sample_episode_sets(dataset, set_a, 6, episode_seed=seed, reserve=2)
        groups = [sets.set_a, sets.set_b, sets.set_c, sets.calib_seen, sets.calib_unseen]
        flat = [i for group in groups for i in group]
        assert len(set(flat)) == len(flat)
        assert len(sets.calib_seen) == len(sets.calib_unseen) == 2


def test_inclusion_frequency_is_uniform(rng):
    # 10^4 seeded draws with n=5 from 100 images: sets stay disjoint and
    # every non-A image's inclusion frequency in B stays within 3 sigma
    # of 5/95.
    dataset = make_dataset(100, rng, size=2)
    set_a = dataset.ids[:5]
    a_set = set(set_a)
    draws = 10_000
    counts = {image_id: 0 for image_id in dataset.ids[5:]}
    for seed in range(draws):
        sets = sample_episode_sets(dataset, set_a, 5, episode_seed=seed)
        assert not (set(sets.set_b) | set(sets.set_c)) & a_set
        assert not set(sets.set_b) & set(sets.set_c)
        for image_id in sets.set_b:
            counts[image_id] += 1
    p = 5 / 95
    sigma = np.sqrt(p * (1 - p) / draws)
    for image_id, count in counts.items():
        assert abs(count / draws - p) < 3 * sigma, f"{image_id}: {count / draws:.4f}"


# --- CIFAR loader ---------------------------------------------------------------

def cifar_blob(records):
    chunks = []
    for label, fill in records:
        chunks.append(bytes([label]) + bytes([fill]) * 3072)
    return b"".join(chunks)


def stacked_pixels(dataset):
    return np.stack([dataset.image(i).pixels for i in dataset.ids])


def test_cifar_record_arithmetic(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(cifar_blob([(3, 0), (7, 255), (1, 128)]))
    dataset = load_cifar_binary(path)
    assert len(dataset) == 3
    assert dataset.ids == ["batch.bin#0", "batch.bin#1", "batch.bin#2"]
    assert dataset.dims == (3, 32, 32)
    assert np.all(dataset.image("batch.bin#1").pixels == 1.0)
    assert np.all(dataset.image("batch.bin#0").pixels == 0.0)


def test_loaded_pixels_match_pinned_digests(tmp_path):
    # Digests of the pixel bytes that the per-image loaders produced: two CIFAR
    # batches of random records, and PPMs with maxval 255 and maxval 100.
    rng = make_rng("cifar-digest")
    for name, records in (("a.bin", 5), ("b.bin", 3)):
        (tmp_path / name).write_bytes(rng.integers(0, 256, (records, 3073), dtype=np.uint8).tobytes())
    cifar = load_cifar_binary(tmp_path)
    assert cifar.ids == [f"a.bin#{i}" for i in range(5)] + [f"b.bin#{i}" for i in range(3)]
    assert hashlib.sha256(stacked_pixels(cifar).tobytes()).hexdigest() == (
        "8d572d348c24cc2ea77bb785f1b50bad12ef466492045b93ded792053b6e591e"
    )
    rng = make_rng("ppm-digest")
    ppm_dir = tmp_path / "ppm"
    ppm_dir.mkdir()
    for name, maxval in (("full", 255), ("low", 100)):
        raster = rng.integers(0, maxval + 1, (12, 12, 3), dtype=np.uint8)
        (ppm_dir / f"{name}.ppm").write_bytes(f"P6\n12 12\n{maxval}\n".encode() + raster.tobytes())
    ppm = load_ppm_dir(ppm_dir)
    assert ppm.ids == ["full", "low"] and ppm.dims == (3, 12, 12)
    assert hashlib.sha256(stacked_pixels(ppm).tobytes()).hexdigest() == (
        "786163e92ab17a90ab11170b683007a1e5e5afeb09ae2ccc69606b9c5ea75672"
    )
    # Images keep read_ppm's memory order, which the BLAS-backed grayscale rounds by.
    for image in ppm:
        assert np.array_equal(grayscale(image.pixels), grayscale(read_ppm(ppm_dir / f"{image.id}.ppm")))


def ppm_of_every_sample(path, maxval):
    """A 1-row PPM whose pixel k has k in all three channels, for k = 0..maxval."""
    raster = np.repeat(np.arange(maxval + 1, dtype=np.uint8), 3)
    path.write_bytes(f"P6\n{maxval + 1} 1\n{maxval}\n".encode() + raster.tobytes())


def exact_fractions(maxval):
    return np.array([np.float64(k) / maxval for k in range(maxval + 1)])


@pytest.mark.parametrize("maxval", [255, 100, 1])
def test_every_sample_value_converts_to_its_exact_fraction(tmp_path, maxval):
    ppm_of_every_sample(tmp_path / "all.ppm", maxval)
    expected = exact_fractions(maxval).view(np.uint64)
    for pixels in (read_ppm(tmp_path / "all.ppm"), load_ppm_dir(tmp_path).image("all").pixels):
        assert pixels.dtype == np.float64
        for channel in pixels[:, 0]:
            assert np.array_equal(channel.view(np.uint64), expected)
    if maxval == 255:
        samples = np.resize(np.arange(256, dtype=np.uint8), 3072)
        (tmp_path / "all.bin").write_bytes(bytes([0]) + samples.tobytes())
        pixels = load_cifar_binary(tmp_path / "all.bin").image("all.bin#0").pixels
        assert np.array_equal(pixels.ravel().view(np.uint64), expected[samples])


def test_ppm_images_keep_read_ppms_strides(tmp_path, rng):
    for index in range(3):
        write_ppm(random_image(f"p{index}", rng, size=5), tmp_path / f"p{index}.ppm")
    dataset = load_ppm_dir(tmp_path)
    strides = read_ppm(tmp_path / "p0.ppm").strides
    assert strides[0] == 8  # channel-last
    assert [image.pixels.strides for image in dataset] == [strides] * 3
    assert dataset.image("p1").pixels.strides == strides


def test_loaded_datasets_hold_one_byte_per_sample(tmp_path, rng):
    (tmp_path / "a.bin").write_bytes(rng.integers(0, 256, 40 * 3073, dtype=np.uint8).tobytes())
    ppm_dir = tmp_path / "ppm"
    ppm_dir.mkdir()
    for index in range(40):
        write_ppm(random_image(f"p{index:02d}", rng, size=32), ppm_dir / f"p{index:02d}.ppm")
    for dataset in (load_cifar_binary(tmp_path / "a.bin"), load_ppm_dir(ppm_dir)):
        samples = len(dataset) * int(np.prod(dataset.dims))
        assert dataset.samples.dtype == np.uint8 and dataset.samples.nbytes == samples
        # What measure() ships to a pool worker.
        assert len(pickle.dumps(dataset)) <= 1.1 * samples
        copy = pickle.loads(pickle.dumps(dataset))
        assert np.array_equal(stacked_pixels(copy), stacked_pixels(dataset))


def test_cifar_truncated_record_reports_offset(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(cifar_blob([(0, 0), (1, 1)]) + b"\x00" * 10)
    with pytest.raises(DataFormatError, match=r"byte offset 6146"):
        load_cifar_binary(path)


def test_cifar_directory_loads_sorted_batches(tmp_path):
    (tmp_path / "b.bin").write_bytes(cifar_blob([(0, 1)]))
    (tmp_path / "a.bin").write_bytes(cifar_blob([(0, 2)]))
    dataset = load_cifar_binary(tmp_path)
    assert dataset.ids == ["a.bin#0", "b.bin#0"]


# --- PPM loader -----------------------------------------------------------------

def test_ppm_all_255_is_all_ones(tmp_path):
    path = tmp_path / "white.ppm"
    path.write_bytes(b"P6\n2 3\n255\n" + bytes([255] * 18))
    pixels = read_ppm(path)
    assert pixels.shape == (3, 3, 2)
    assert np.all(pixels == 1.0)


def test_ppm_hand_encoded_2x2_exact_values(tmp_path):
    path = tmp_path / "tiny.ppm"
    payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 51, 102, 153])
    path.write_bytes(b"P6\n2 2\n255\n" + payload)
    pixels = read_ppm(path)
    expected = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    expected = expected.reshape(2, 2, 3).transpose(2, 0, 1) / 255.0
    assert np.array_equal(pixels, expected)


def test_ppm_comments_and_maxval_scaling(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n1 1\n100\n" + bytes([50, 100, 0]))
    pixels = read_ppm(path)
    assert np.allclose(pixels.ravel(), [0.5, 1.0, 0.0])


def test_ppm_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(DataFormatError, match=r"byte offset 0"):
        read_ppm(path)


def test_ppm_truncated_payload(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    with pytest.raises(DataFormatError, match="truncated pixel data"):
        read_ppm(path)


@pytest.mark.parametrize(
    "header",
    [b"P6# made by hand\n2 1\n255\n", b"P6\n#a\n2 #b\n\n# c\n1\t#d\n255\n"],
    ids=["comment-after-magic", "comment-between-every-field"],
)
def test_ppm_header_comments_load(tmp_path, header):
    path = tmp_path / "c.ppm"
    path.write_bytes(header + bytes([255, 0, 51, 0, 255, 102]))
    assert np.array_equal(read_ppm(path)[:, 0, :], [[1.0, 0.0], [0.0, 1.0], [0.2, 0.4]])


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"P6\n2 x\n255\n" + bytes(6), "malformed header"),
        (b"P6\n1 1\n0\n" + bytes(3), r"maxval 0 outside \(0, 255\] \(byte offset 7\)"),
        (b"P6\n1 1\n256\n" + bytes(3), r"maxval 256 outside"),
        (b"P6\n0 1\n255\n", r"bad dimensions 0x1 \(byte offset 3\)"),
        (b"P6\n1 1\n255\n" + bytes(4), r"trailing bytes after pixel data \(byte offset 14\)"),
    ],
    ids=["non-numeric-height", "maxval-0", "maxval-256", "width-0", "trailing-bytes"],
)
def test_ppm_malformed_header_or_length_names_the_file(tmp_path, blob, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=message) as excinfo:
        read_ppm(path)
    assert str(path) in str(excinfo.value)


def test_ppm_write_then_load_roundtrips_bytes(tmp_path, rng):
    image = random_image("x", rng, size=5)
    first = tmp_path / "first.ppm"
    write_ppm(image, first)
    reloaded = ImageTensor("x", read_ppm(first))
    second = tmp_path / "second.ppm"
    write_ppm(reloaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("value, message", [(1.5, "outside"), (np.nan, "non-finite")])
def test_write_ppm_refuses_pixels_outside_unit_range(tmp_path, value, message):
    pixels = np.full((3, 2, 2), 0.5)
    pixels[1, 0, 1] = value
    image = ImageTensor("bad", pixels)
    with pytest.raises(ConfigError, match=message):
        write_ppm(image, tmp_path / "bad.ppm")
    assert not (tmp_path / "bad.ppm").exists()


def test_ppm_dir_with_manifest_and_labels(tmp_path, rng):
    for name in ("one", "two"):
        write_ppm(random_image(name, rng, size=3), tmp_path / f"{name}.ppm")
    (tmp_path / "manifest.csv").write_text(
        "id,filename,label\nfirst,one.ppm,cat\nsecond,two.ppm,dog\n"
    )
    dataset = load_ppm_dir(tmp_path)
    assert dataset.ids == ["first", "second"]


def test_ppm_dir_without_manifest_uses_stems(tmp_path, rng):
    for name in ("b", "a"):
        write_ppm(random_image(name, rng, size=3), tmp_path / f"{name}.ppm")
    dataset = load_ppm_dir(tmp_path)
    assert dataset.ids == ["a", "b"]


def test_manifest_requires_header(tmp_path, rng):
    write_ppm(random_image("a", rng, size=3), tmp_path / "a.ppm")
    (tmp_path / "manifest.csv").write_text("a,a.ppm\n")
    with pytest.raises(DataFormatError, match="header"):
        load_ppm_dir(tmp_path)


def test_inconsistent_dimensions_rejected(tmp_path, rng):
    write_ppm(random_image("a", rng, size=3), tmp_path / "a.ppm")
    write_ppm(random_image("b", rng, size=4), tmp_path / "b.ppm")
    with pytest.raises(DataFormatError, match="shape") as excinfo:
        load_ppm_dir(tmp_path)
    assert str(tmp_path / "b.ppm") in str(excinfo.value)


# --- dataset invariants ----------------------------------------------------------

def test_dataset_rejects_duplicates_and_empty(rng):
    image = random_image("dup", rng)
    with pytest.raises(ConfigError, match="duplicate"):
        stack_dataset([image, ImageTensor("dup", image.pixels)])
    with pytest.raises(ConfigError, match="duplicate"):
        Dataset(["dup", "dup"], rng.random((2, 3, 2, 2)))
    with pytest.raises(ConfigError, match="empty"):
        Dataset([], np.empty((0, 3, 2, 2)))


def test_image_pixels_must_be_in_unit_range():
    pixels = np.full((2, 1, 2, 2), 0.5)
    pixels[1, 0, 1, 0] = 1.5
    with pytest.raises(ConfigError, match="outside"):
        Dataset(["a", "b"], pixels)
    pixels[1, 0, 1, 0] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        Dataset(["a", "b"], pixels)


def test_samples_must_lie_within_their_images_scale():
    samples = np.full((2, 1, 2, 2), 100, dtype=np.uint8)
    dataset = Dataset(["a", "b"], samples, scale=[255, 100])
    assert dataset.image("b").pixels.max() == 1.0
    samples = samples.copy()
    samples[1, 0, 0, 1] = 101
    with pytest.raises(ConfigError, match=r"image 'b' has samples \[100, 101\] outside \[0, 100.0\]"):
        Dataset(["a", "b"], samples, scale=[255, 100])
    for scale in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigError, match="outside"):
            Dataset(["a", "b"], np.zeros((2, 1, 2, 2)), scale=[1.0, scale])


def test_dataset_images_are_read_only(rng):
    dataset = make_dataset(3, rng)
    before = stacked_pixels(dataset)
    for image in (dataset.image("img001"), *dataset):
        assert image.pixels.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            image.pixels[0, 0, 0] = 0.5
    batch = dataset.batch(["img002", "img001", "img002"])
    assert batch.dtype == np.float64 and batch.flags.writeable
    assert batch.tobytes() == before[[2, 1, 2]].tobytes()
    batch[...] = 0.5
    augment_for_regression(batch[1], 0)
    with pytest.raises(ValueError, match="read-only"):
        dataset.samples[1, 0, 0, 0] = 0.5
    assert np.array_equal(stacked_pixels(dataset), before)


def test_batch_keeps_the_samples_memory_order_and_stacked_image_bits(tmp_path):
    rng = make_rng("batch-order")
    for name, maxval in (("full", 255), ("low", 100), ("one", 1)):
        raster = rng.integers(0, maxval + 1, (5, 5, 3), dtype=np.uint8)
        (tmp_path / f"{name}.ppm").write_bytes(f"P6\n5 5\n{maxval}\n".encode() + raster.tobytes())
    dataset = load_ppm_dir(tmp_path)
    ids = ["one", "full", "low", "full"]
    batch = dataset.batch(ids)
    assert batch.tobytes() == np.stack([dataset.image(i).pixels for i in ids]).tobytes()
    assert batch.strides[1:] == dataset.image("low").pixels.strides  # channel-last, as read


def test_pixels_are_not_checked_again_after_the_dataset_is_built(monkeypatch):
    # Images and batches of a checked dataset, and the batches augmented in place, need no check.
    dataset = ramp_dataset(count=16, size=6)
    calls = []
    monkeypatch.setattr(data, "_check_samples", lambda *args: calls.append(args))
    spec = MachineSpec(kind="mlp", in_channels=3, height=6, width=6, hidden=(8,))
    config = EpisodeConfig(machine=spec, n=4, m=2, epochs_a=1, epochs_b=1, accuracy_gate=0.01)
    table, _ = measure(dataset, dataset.ids[:4], config, workers=1)
    scores = replace(table, scores=dict.fromkeys(dataset.ids, 0.5))
    model = train_predictor(scores, dataset, RegressionConfig(epochs=2, augment=True), spec=spec).model
    predict(model, dataset)
    assert calls == []


# --- augmentation ------------------------------------------------------------------

def find_seed(predicate, limit=500):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed found")


def augmented(pixels, seed):
    out = pixels.copy()
    augment_for_regression(out, seed)
    return out


def test_augment_identity_when_both_coins_miss(rng):
    pixels = random_image("a", rng).pixels

    def both_miss(seed):
        r = make_rng(seed)
        return r.random() >= 0.5 and r.random() >= 0.5

    seed = find_seed(both_miss)
    assert augmented(pixels, seed).tobytes() == pixels.tobytes()


def flip_only(seed):
    r = make_rng(seed)
    return r.random() < 0.5 and r.random() >= 0.5


def test_augment_flip_only_matches_hflip(rng):
    pixels = random_image("a", rng).pixels
    assert augmented(pixels, find_seed(flip_only)).tobytes() == pixels[:, :, ::-1].tobytes()
    # In place on a batch row: the flip overlaps its own source, and the other rows stay.
    batch = np.stack([pixels, pixels[::-1]])
    augment_for_regression(batch[0], find_seed(flip_only))
    assert batch[0].tobytes() == pixels[:, :, ::-1].tobytes()
    assert batch[1].tobytes() == pixels[::-1].tobytes()


def test_flip_of_flip_is_identity(rng):
    pixels = random_image("a", rng).pixels
    seed = find_seed(flip_only)
    assert augmented(augmented(pixels, seed), seed).tobytes() == pixels.tobytes()


def test_augment_is_seed_deterministic(rng):
    pixels = random_image("a", rng).pixels
    for seed in range(20):
        assert augmented(pixels, seed).tobytes() == augmented(pixels, seed).tobytes()


def test_erase_rect_always_inside_image():
    # 10^5 seeded draws across assorted image sizes
    rng = make_rng("erase-sweep")
    sizes = [(4, 4), (5, 9), (12, 12), (32, 32), (3, 17)]
    for _ in range(100_000):
        h, w = sizes[int(rng.integers(0, len(sizes)))]
        y0, y1, x0, x1 = _sample_erase_rect(rng, h, w)
        assert 0 <= y0 < y1 <= h
        assert 0 <= x0 < x1 <= w


def test_erase_area_fraction_in_declared_range():
    rng = make_rng("erase-area")
    for _ in range(2000):
        y0, y1, x0, x1 = _sample_erase_rect(rng, 32, 32)
        fraction = (y1 - y0) * (x1 - x0) / (32 * 32)
        # rounding can nudge the area slightly past the nominal 2-20% band
        assert 0.01 <= fraction <= 0.25
