"""Attribute extraction against scalar-loop and hand-computed oracles, and its pinned bytes."""

import colorsys
import hashlib
import math

import numpy as np
import pytest

from memmeter.attributes import (
    LUMA_WEIGHTS,
    colorfulness,
    compute_attributes,
    entropy,
    global_contrast,
    grayscale,
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
    hue, saturation, value = hsv_stats(solid(1.0, 0.0, 0.0).pixels)
    assert hue == 0.0
    assert saturation == 1.0
    assert value == 1.0


def test_uniform_gray_has_undefined_hue():
    hue, saturation, value = hsv_stats(solid(0.5, 0.5, 0.5).pixels)
    assert hue is None
    assert saturation == 0.0
    assert value == 0.5


def test_hsv_matches_colorsys_loop_oracle(rng):
    image = random_image("x", rng, size=4)
    hue, saturation, value = hsv_stats(image.pixels)

    sats, vals, vectors = [], [], []
    _, height, width = image.pixels.shape
    for y in range(height):
        for x in range(width):
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


# --- contrast ----------------------------------------------------------------------

def gcf_weight(i):
    x = i / 9
    return (-0.406385 * x + 0.334573) * x + 0.0877526


def test_constant_image_has_zero_contrast():
    assert global_contrast(grayscale(solid(0.3, 0.3, 0.3).pixels)) == 0.0


def test_single_pixel_has_zero_contrast():
    assert global_contrast(np.full((1, 1), 0.7)) == 0.0


def test_checkerboard_matches_two_level_hand_oracle():
    gray = np.array([[1.0, 0.0], [0.0, 1.0]])
    # level 1: luminance 100*sqrt({1,0}); every pixel has two neighbors,
    # each differing by 100, so the mean local contrast is 100.
    # level 2 collapses to 1x1 and contributes zero, as do levels 3..9.
    expected = gcf_weight(1) * 100.0
    assert global_contrast(gray) == pytest.approx(expected, abs=1e-12)


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
    assert global_contrast(grayscale(image.pixels)) == pytest.approx(expected, abs=1e-9)


def four_direction_global_contrast(gray):
    """The global contrast factor with each pixel's gaps taken one direction at a time."""
    from memmeter.attributes import _block_average

    linear = gray
    total = 0.0
    for level in range(1, 10):
        if min(linear.shape) >= 2:
            lum = 100.0 * np.sqrt(linear)
            h, w = lum.shape
            diff_sum = np.zeros((h, w))
            neighbor_count = np.zeros((h, w))
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ys = slice(max(dy, 0), h + min(dy, 0))
                xs = slice(max(dx, 0), w + min(dx, 0))
                ys_n = slice(max(-dy, 0), h + min(-dy, 0))
                xs_n = slice(max(-dx, 0), w + min(-dx, 0))
                diff_sum[ys, xs] += np.abs(lum[ys, xs] - lum[ys_n, xs_n])
                neighbor_count[ys, xs] += 1
            total += gcf_weight(level) * float((diff_sum / neighbor_count).mean())
        if level < 9:
            linear = _block_average(linear)
    return total


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9), (3, 5), (6, 6), (12, 12), (13, 9), (17, 31), (32, 32), (100, 3)]
)
def test_contrast_has_the_bytes_of_the_four_direction_formula(shape, rng):
    # A different summation order changes the last bit of about one image in seven.
    for k in range(20):
        gray = grayscale(rng.random((1 + 2 * (k % 2), *shape)))
        assert np.float64(global_contrast(gray)).tobytes() == np.float64(four_direction_global_contrast(gray)).tobytes()


# --- colorfulness ---------------------------------------------------------------------

def test_gray_images_have_zero_colorfulness(rng):
    gray = rng.random((4, 4))
    image = ImageTensor("g", np.stack([gray, gray, gray]))
    assert colorfulness(image.pixels) == 0.0


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
    assert colorfulness(pixels) == pytest.approx(expected, abs=1e-9)


def test_colorfulness_invariant_under_pixel_permutation(rng):
    image = random_image("x", rng, size=4)
    flat = image.pixels.reshape(3, -1)
    perm = rng.permutation(flat.shape[1])
    shuffled = ImageTensor("y", flat[:, perm].reshape(image.pixels.shape))
    assert colorfulness(shuffled.pixels) == pytest.approx(colorfulness(image.pixels), abs=1e-12)


# --- entropy ---------------------------------------------------------------------------

def test_constant_image_entropy_zero():
    assert entropy(grayscale(solid(0.42, 0.42, 0.42).pixels)) == 0.0


def test_uniform_256_levels_has_entropy_exactly_8():
    levels = np.arange(256, dtype=np.float64) / 255.0
    image = ImageTensor("u", np.tile(levels.reshape(1, 16, 16), (3, 1, 1)))
    assert entropy(grayscale(image.pixels)) == 8.0


def test_entropy_matches_histogram_oracle(rng):
    image = random_image("x", rng, size=16)
    gray = 0.299 * image.pixels[0] + 0.587 * image.pixels[1] + 0.114 * image.pixels[2]
    counts = {}
    for value in gray.ravel():
        level = int(math.floor(value * 255.0 + 0.5))
        counts[level] = counts.get(level, 0) + 1
    total = gray.size
    expected = -sum((c / total) * math.log2(c / total) for c in counts.values())
    assert entropy(grayscale(image.pixels)) == pytest.approx(expected, abs=1e-12)


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
    assert entropy(grayscale(shuffled.pixels)) == pytest.approx(entropy(grayscale(image.pixels)), abs=1e-12)
    _, s1, v1 = hsv_stats(image.pixels)
    _, s2, v2 = hsv_stats(shuffled.pixels)
    assert (s1, v1) == pytest.approx((s2, v2), abs=1e-12)
    # global contrast is spatial: no equality asserted


def test_value_complement_for_grayscale(rng):
    gray = rng.random((5, 5))
    image = ImageTensor("g", np.stack([gray] * 3))
    inverse = ImageTensor("gi", np.stack([1.0 - gray] * 3))
    _, _, value = hsv_stats(image.pixels)
    _, _, value_inv = hsv_stats(inverse.pixels)
    assert value == pytest.approx(1.0 - value_inv, abs=1e-12)


# --- pinned bytes ------------------------------------------------------------------------

PIN_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 7), (5, 5), (8, 8), (9, 16), (12, 12), (13, 11), (16, 16), (17, 31), (32, 32), (33, 20), (33, 33))


@pytest.mark.parametrize("order", ["chw", "hwc"])
def test_grayscale_has_the_bytes_of_tensordot(order, rng):
    # A channel-last (PPM-like) array rounds differently from a C-order copy, so
    # grayscale must make tensordot's own dot of the same operands.
    for h, w in PIN_SIZES:
        pixels = rng.random((3, h, w)) if order == "chw" else rng.random((h, w, 3)).transpose(2, 0, 1)
        assert grayscale(pixels).tobytes() == np.tensordot(LUMA_WEIGHTS, pixels, axes=1).tobytes()


def pinned_images():
    """Seeded (name, pixels) cases: every size in both memory orders, PPM-like channel-last
    and CIFAR-like C-order, with continuous, 8-bit and coarse samples (many ties between
    channels), an achromatic block, all-grey and all-black; then 1-channel planes."""
    rng = np.random.default_rng(2011)
    for h, w in PIN_SIZES:
        for order in ("hwc", "chw"):
            samples = {
                "continuous": rng.random((3, h, w)),
                "8bit": rng.integers(0, 256, (3, h, w)) / 255.0,
                "coarse": rng.integers(0, 4, (3, h, w)) / 3.0,
                "grey": np.full((3, h, w), 0.5),
                "black": np.zeros((3, h, w)),
            }
            achromatic = rng.integers(0, 256, (3, h, w)) / 255.0
            achromatic[1:, : (h + 1) // 2] = achromatic[0, : (h + 1) // 2]
            samples["achromatic"] = achromatic
            for kind, pixels in samples.items():
                if order == "hwc":
                    pixels = np.ascontiguousarray(pixels.transpose(1, 2, 0)).transpose(2, 0, 1)
                yield f"{kind}-{order}-{h}x{w}", pixels
        yield f"gray-{h}x{w}", rng.random((1, h, w))
        yield f"gray8bit-{h}x{w}", rng.integers(0, 256, (1, h, w)) / 255.0


def pinned_attributes(pixels):
    """{attribute: value} of one case: all six for RGB, contrast and entropy for one channel."""
    if len(pixels) == 3:
        return compute_attributes(ImageTensor("pin", pixels)).as_row()
    return {"contrast": global_contrast(pixels[0]), "entropy": entropy(pixels[0])}


# sha256 over each case's name and value bytes, per attribute (an undefined hue hashes as "None").
ATTRIBUTE_DIGESTS = {
    "hue": "b31300078cb7c7140bf97d274e893cc089b4a0481f5a715fc106d8c5bd810a16",
    "saturation": "95d452c650055223274fd9d5ecce13aecac52c0634d0a5272cf0b9bbe0ae5c90",
    "value": "d8792eeb60ca663cc29818d9e84b15548820bd34d321f13b8c5ef299341b1738",
    "contrast": "d2d76bae8d96cc8fd51936f0be1f2628bdc7939b4c61e380fc253d92b32079f3",
    "colorfulness": "71b8399e2f1d6e23014600c554c71b64c2a30d67554738f0b211cc648770f81a",
    "entropy": "dbbcd231c076c96065797659b6ccef689015378e026f99cb58b4ebd4d7f96fa3",
}


@pytest.fixture(scope="module")
def pinned_digests():
    digests = {name: hashlib.sha256() for name in ATTRIBUTE_DIGESTS}
    for case, pixels in pinned_images():
        for name, value in pinned_attributes(pixels).items():
            digests[name].update(case.encode())
            digests[name].update(b"None" if value is None else np.float64(value).tobytes())
    return {name: digest.hexdigest() for name, digest in digests.items()}


@pytest.mark.parametrize("name", sorted(ATTRIBUTE_DIGESTS))
def test_attribute_bytes_are_pinned(name, pinned_digests):
    # Every attribute float is a fixed sequence of rounded numpy operations; a rewrite
    # that reorders one of them moves these digests, and attributes.csv with them.
    assert pinned_digests[name] == ATTRIBUTE_DIGESTS[name]


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
