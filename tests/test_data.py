"""Rotations, episode sampling, loaders, and regression augmentations."""

import hashlib

import numpy as np
import pytest

from memmeter.attributes import grayscale
from memmeter.data import (
    Dataset,
    ImageTensor,
    _sample_erase_rect,
    augment_for_regression,
    hflip_pixels,
    load_cifar_binary,
    load_ppm_dir,
    read_ppm,
    rotate_pixels,
    sample_episode_sets,
    write_ppm,
)
from memmeter.errors import ConfigError, DataFormatError
from memmeter.rng import make_rng

from synth import random_image, stack_dataset


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


def test_rotate_rejects_non_square_quarter_turns(rng):
    pixels = rng.random((3, 4, 6))
    with pytest.raises(ConfigError, match="square"):
        rotate_pixels(pixels, 1)
    assert rotate_pixels(pixels, 2).shape == (3, 4, 6)


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


def test_dataset_too_small_is_config_error(rng):
    dataset = make_dataset(11, rng)
    with pytest.raises(ConfigError, match="too small"):
        sample_episode_sets(dataset, dataset.ids[:4], 4, episode_seed=0)


# --- CIFAR loader ---------------------------------------------------------------

def cifar_blob(records):
    chunks = []
    for label, fill in records:
        chunks.append(bytes([label]) + bytes([fill]) * 3072)
    return b"".join(chunks)


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
    assert hashlib.sha256(cifar.pixels.tobytes()).hexdigest() == (
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
    assert hashlib.sha256(ppm.pixels.tobytes()).hexdigest() == (
        "786163e92ab17a90ab11170b683007a1e5e5afeb09ae2ccc69606b9c5ea75672"
    )
    # Rows keep read_ppm's memory order, which the BLAS-backed grayscale rounds by.
    for image in ppm:
        assert np.array_equal(grayscale(image.pixels), grayscale(read_ppm(ppm_dir / f"{image.id}.ppm")))


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


def test_ppm_write_then_load_roundtrips_bytes(tmp_path, rng):
    image = random_image("x", rng, size=5)
    first = tmp_path / "first.ppm"
    write_ppm(image, first)
    reloaded = ImageTensor("x", read_ppm(first))
    second = tmp_path / "second.ppm"
    write_ppm(reloaded, second)
    assert first.read_bytes() == second.read_bytes()


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
    with pytest.raises(ConfigError, match="shape"):
        load_ppm_dir(tmp_path)


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
    with pytest.raises(ConfigError, match="outside"):
        ImageTensor("bad", np.full((1, 2, 2), 1.5))
    pixels = np.full((2, 1, 2, 2), 0.5)
    pixels[1, 0, 1, 0] = 1.5
    with pytest.raises(ConfigError, match="outside"):
        Dataset(["a", "b"], pixels)
    pixels[1, 0, 1, 0] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        Dataset(["a", "b"], pixels)


def test_dataset_images_are_read_only_views(rng):
    dataset = make_dataset(3, rng)
    image = dataset.image("img001")
    assert np.shares_memory(image.pixels, dataset.pixels)
    with pytest.raises(ValueError, match="read-only"):
        image.pixels[0, 0, 0] = 0.5
    augmented = augment_for_regression(image, 0)
    augmented.pixels[0, 0, 0] = 0.5
    assert not np.shares_memory(augmented.pixels, dataset.pixels)


# --- augmentation ------------------------------------------------------------------

def find_seed(predicate, limit=500):
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no seed found")


def test_augment_identity_when_both_coins_miss(rng):
    image = random_image("a", rng)

    def both_miss(seed):
        r = make_rng(seed)
        return r.random() >= 0.5 and r.random() >= 0.5

    seed = find_seed(both_miss)
    out = augment_for_regression(image, seed)
    assert np.array_equal(out.pixels, image.pixels)
    assert out.pixels is not image.pixels  # caller never shares the buffer


def test_augment_flip_only_matches_hflip(rng):
    image = random_image("a", rng)

    def flip_only(seed):
        r = make_rng(seed)
        return r.random() < 0.5 and r.random() >= 0.5

    seed = find_seed(flip_only)
    out = augment_for_regression(image, seed)
    assert np.array_equal(out.pixels, hflip_pixels(image.pixels))


def test_flip_of_flip_is_identity(rng):
    image = random_image("a", rng)
    assert np.array_equal(hflip_pixels(hflip_pixels(image.pixels)), image.pixels)


def test_augment_is_seed_deterministic(rng):
    image = random_image("a", rng)
    one = augment_for_regression(image, 123)
    two = augment_for_regression(image, 123)
    assert np.array_equal(one.pixels, two.pixels)


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
