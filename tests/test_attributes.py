"""Attribute extraction against scalar-loop and hand-computed oracles."""

import colorsys
import math

import numpy as np
import pytest

from memmeter.attributes import (
    colorfulness,
    compute_attributes,
    entropy,
    global_contrast,
    hsv_stats,
    read_attribute_csv,
    write_attribute_csv,
)
from memmeter.data import ImageTensor, rotate_pixels

from synth import random_image


def solid(r, g, b, size=4):
    pixels = np.empty((3, size, size))
    pixels[0], pixels[1], pixels[2] = r, g, b
    return ImageTensor("solid", pixels)


# --- HSV -------------------------------------------------------------------------

def test_pure_red():
    hue, saturation, value = hsv_stats(solid(1.0, 0.0, 0.0))
    assert hue == 0.0
    assert saturation == 1.0
    assert value == 1.0


def test_uniform_gray_has_undefined_hue():
    hue, saturation, value = hsv_stats(solid(0.5, 0.5, 0.5))
    assert hue is None
    assert saturation == 0.0
    assert value == 0.5


def test_hsv_matches_colorsys_loop_oracle(rng):
    image = random_image("x", rng, size=4)
    hue, saturation, value = hsv_stats(image)

    sats, vals, vectors = [], [], []
    for y in range(image.height):
        for x in range(image.width):
            r, g, b = image.pixels[:, y, x]
            h, s, v = colorsys.rgb_to_hsv(r, g, b)
            sats.append(s)
            vals.append(v)
            if max(r, g, b) > min(r, g, b):
                vectors.append((math.cos(2 * math.pi * h), math.sin(2 * math.pi * h)))
            else:
                vectors.append((0.0, 0.0))
    assert saturation == pytest.approx(np.mean(sats), abs=1e-9)
    assert value == pytest.approx(np.mean(vals), abs=1e-9)
    mean_x = np.mean([v[0] for v in vectors])
    mean_y = np.mean([v[1] for v in vectors])
    expected_hue = math.degrees(math.atan2(mean_y, mean_x)) % 360.0
    assert hue == pytest.approx(expected_hue, abs=1e-9)


def test_hsv_needs_three_channels(rng):
    with pytest.raises(ValueError, match="3-channel"):
        hsv_stats(ImageTensor("g", rng.random((1, 4, 4))))


# --- contrast ----------------------------------------------------------------------

def gcf_weight(i):
    x = i / 9
    return (-0.406385 * x + 0.334573) * x + 0.0877526


def test_constant_image_has_zero_contrast():
    assert global_contrast(solid(0.3, 0.3, 0.3)) == 0.0


def test_single_pixel_has_zero_contrast():
    assert global_contrast(ImageTensor("p", np.full((1, 1, 1), 0.7))) == 0.0


def test_checkerboard_matches_two_level_hand_oracle():
    pixels = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    image = ImageTensor("cb", pixels)
    # level 1: luminance 100*sqrt({1,0}); every pixel has two neighbors,
    # each differing by 100, so the mean local contrast is 100.
    # level 2 collapses to 1x1 and contributes zero, as do levels 3..9.
    expected = gcf_weight(1) * 100.0
    assert global_contrast(image) == pytest.approx(expected, abs=1e-12)


def test_contrast_matches_scalar_loop_oracle(rng):
    image = random_image("x", rng, size=5)
    gray = 0.299 * image.pixels[0] + 0.587 * image.pixels[1] + 0.114 * image.pixels[2]

    def level_contrast(arr):
        lum = 100.0 * np.sqrt(arr)
        h, w = lum.shape
        totals = []
        for y in range(h):
            for x in range(w):
                gaps = []
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w:
                        gaps.append(abs(lum[y, x] - lum[ny, nx]))
                totals.append(sum(gaps) / len(gaps))
        return sum(totals) / len(totals)

    def shrink(arr):
        h, w = arr.shape
        out = np.empty(((h + 1) // 2, (w + 1) // 2))
        for y in range(out.shape[0]):
            for x in range(out.shape[1]):
                out[y, x] = arr[2 * y : 2 * y + 2, 2 * x : 2 * x + 2].mean()
        return out

    expected = 0.0
    current = gray
    for level in range(1, 10):
        if min(current.shape) >= 2:
            expected += gcf_weight(level) * level_contrast(current)
        current = shrink(current)
    assert global_contrast(image) == pytest.approx(expected, abs=1e-9)


# --- colorfulness ---------------------------------------------------------------------

def test_gray_images_have_zero_colorfulness(rng):
    gray = rng.random((4, 4))
    image = ImageTensor("g", np.stack([gray, gray, gray]))
    assert colorfulness(image) == 0.0


def test_half_red_half_green_matches_direct_formula():
    pixels = np.zeros((3, 2, 2))
    pixels[0, 0, :] = 1.0  # top row pure red
    pixels[1, 1, :] = 1.0  # bottom row pure green
    image = ImageTensor("rg", pixels)

    rg, yb = [], []
    for y in range(2):
        for x in range(2):
            r, g, b = pixels[:, y, x] * 255.0
            rg.append(r - g)
            yb.append(0.5 * (r + g) - b)
    rg, yb = np.array(rg), np.array(yb)
    expected = math.sqrt(rg.std() ** 2 + yb.std() ** 2) + 0.3 * math.sqrt(
        rg.mean() ** 2 + yb.mean() ** 2
    )
    assert colorfulness(image) == pytest.approx(expected, abs=1e-9)


def test_colorfulness_invariant_under_pixel_permutation(rng):
    image = random_image("x", rng, size=4)
    flat = image.pixels.reshape(3, -1)
    perm = rng.permutation(flat.shape[1])
    shuffled = ImageTensor("y", flat[:, perm].reshape(image.pixels.shape))
    assert colorfulness(shuffled) == pytest.approx(colorfulness(image), abs=1e-12)


# --- entropy ---------------------------------------------------------------------------

def test_constant_image_entropy_zero():
    assert entropy(solid(0.42, 0.42, 0.42)) == 0.0


def test_uniform_256_levels_has_entropy_exactly_8():
    levels = np.arange(256, dtype=np.float64) / 255.0
    image = ImageTensor("u", np.tile(levels.reshape(1, 16, 16), (3, 1, 1)))
    assert entropy(image) == 8.0


def test_entropy_matches_histogram_oracle(rng):
    image = random_image("x", rng, size=16)
    gray = 0.299 * image.pixels[0] + 0.587 * image.pixels[1] + 0.114 * image.pixels[2]
    counts = {}
    for value in gray.ravel():
        level = int(math.floor(value * 255.0 + 0.5))
        counts[level] = counts.get(level, 0) + 1
    total = gray.size
    expected = -sum((c / total) * math.log2(c / total) for c in counts.values())
    assert entropy(image) == pytest.approx(expected, abs=1e-12)


# --- shared properties --------------------------------------------------------------------

def test_attributes_invariant_under_180_rotation(rng):
    # Contrast needs an even block pyramid (8 -> 4 -> 2) for the partial
    # top-left-anchored superpixels to map onto themselves under rotation;
    # the pixel-statistic attributes are permutation-invariant at any size.
    image = random_image("x", rng, size=8)
    rotated = ImageTensor("x", rotate_pixels(image.pixels, 2))
    ours = compute_attributes(image)
    theirs = compute_attributes(rotated)
    assert ours.hue == pytest.approx(theirs.hue, abs=1e-9)
    assert ours.saturation == pytest.approx(theirs.saturation, abs=1e-12)
    assert ours.value == pytest.approx(theirs.value, abs=1e-12)
    assert ours.contrast == pytest.approx(theirs.contrast, abs=1e-9)
    assert ours.colorfulness == pytest.approx(theirs.colorfulness, abs=1e-12)
    assert ours.entropy == theirs.entropy


def test_permutation_invariance_except_contrast(rng):
    image = random_image("x", rng, size=6)
    flat = image.pixels.reshape(3, -1)
    perm = rng.permutation(flat.shape[1])
    shuffled = ImageTensor("y", flat[:, perm].reshape(image.pixels.shape))
    assert entropy(shuffled) == pytest.approx(entropy(image), abs=1e-12)
    _, s1, v1 = hsv_stats(image)
    _, s2, v2 = hsv_stats(shuffled)
    assert (s1, v1) == pytest.approx((s2, v2), abs=1e-12)
    # global contrast is spatial: no equality asserted


def test_value_complement_for_grayscale(rng):
    gray = rng.random((5, 5))
    image = ImageTensor("g", np.stack([gray] * 3))
    inverse = ImageTensor("gi", np.stack([1.0 - gray] * 3))
    _, _, value = hsv_stats(image)
    _, _, value_inv = hsv_stats(inverse)
    assert value == pytest.approx(1.0 - value_inv, abs=1e-12)


# --- CSV round trip --------------------------------------------------------------------------

def test_attribute_csv_roundtrip_with_undefined_hue(tmp_path, rng):
    rows = {
        "gray": compute_attributes(solid(0.5, 0.5, 0.5)),
        "rand": compute_attributes(random_image("rand", rng, size=4)),
    }
    path = tmp_path / "attributes.csv"
    write_attribute_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "image_id,hue,saturation,value,contrast,colorfulness,entropy"
    assert "n/a" in text
    columns = read_attribute_csv(path)
    assert "gray" not in columns["hue"]  # undefined hue dropped on read
    assert columns["value"]["gray"] == pytest.approx(0.5)
    assert columns["entropy"]["rand"] == pytest.approx(rows["rand"].entropy)
