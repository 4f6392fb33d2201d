"""Per-image attribute extraction: HSV means, contrast, colorfulness, entropy.

Grayscale conversion uses Rec.601 luma (0.299/0.587/0.114) throughout.
All attributes are computed on native-resolution pixels.

`compute_attributes` is the one entry that takes an ImageTensor. It
computes the gray plane once and hands it to `global_contrast` and
`entropy`; `hsv_stats` and `colorfulness` take the (3, H, W) pixels.

A 32x32 image's statistics are a few dozen numpy calls on small arrays,
so the pass costs what those calls dispatch, and each statistic makes only
the calls its arithmetic needs. Every rounded operation stays the same
operation on the same operands, so an attribute keeps its bytes:
- a mean is `np.add.reduce(a, axis=None) / a.size`, which is what
  `ndarray.mean` computes, without its Python wrapper;
- hue starts from `np.select`'s default branch and copies the other two
  onto it in `np.select`'s order;
- contrast keeps one plan per level shape, like `_block_plan`: a function
  over buffers and views built once. A level's gaps go into zero-bordered
  gap buffers, so each pixel's gap sum is whole-array adds in one fixed
  order, and a missing neighbor adds the border's +0.0, which is exact.
  Every caller in a process writes the same buffers, so two threads must
  not compute contrast at once; the program computes attributes in one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import report

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])
_LUMA_ROW = LUMA_WEIGHTS.reshape(1, 3)

# Per-resolution weights of the global contrast factor, i = 1..9.
GCF_LEVELS = 9


def _gcf_weight(i: int) -> float:
    x = i / GCF_LEVELS
    return (-0.406385 * x + 0.334573) * x + 0.0877526


GCF_WEIGHTS = tuple(_gcf_weight(i) for i in range(1, GCF_LEVELS + 1))


@dataclass
class AttributeVector:
    hue: float | None  # mean hue angle in degrees, None when undefined
    saturation: float
    value: float
    contrast: float
    colorfulness: float
    entropy: float

    def as_row(self):
        return asdict(self)


ATTRIBUTE_NAMES = tuple(f.name for f in fields(AttributeVector))


def grayscale(pixels: np.ndarray) -> np.ndarray:
    """The (H, W) luma plane of (C, H, W) pixels: the one channel, or Rec.601 of three."""
    if pixels.shape[0] == 1:
        return pixels[0]
    # np.tensordot(LUMA_WEIGHTS, pixels, axes=1), without its Python wrapper: the same dot
    # of the same (1, 3) and (3, H*W) operands, so a channel-last image keeps its rounding.
    return np.dot(_LUMA_ROW, pixels.reshape(3, -1)).reshape(pixels.shape[1:])


def _mean(a: np.ndarray) -> float:
    # What ndarray.mean computes, without its Python wrapper.
    return float(np.add.reduce(a, axis=None) / a.size)


def hsv_stats(pixels: np.ndarray) -> tuple:
    """Mean hue (circular, degrees), saturation, and value of (3, H, W) RGB pixels.

    Achromatic pixels carry no hue; when every pixel is achromatic (or
    hues cancel) the mean hue is undefined and returned as None.
    """
    r, g, b = pixels
    mx = np.maximum(np.maximum(r, g), b)
    delta = mx - np.minimum(np.minimum(r, g), b)
    chromatic = delta > 0
    safe = np.where(chromatic, delta, 1.0)
    # np.select's order: the default branch, then each branch where its condition
    # holds, last condition first, so red wins a tie with green.
    hue = (r - g) / safe + 4.0
    np.copyto(hue, (b - r) / safe + 2.0, where=mx == g)
    red_max = (g - b) / safe
    # np.mod(red_max, 6.0) where red is the maximum: there red_max is in [-1, 1], where
    # numpy's floor modulo is the value itself, or the value + 6.0 below zero.
    np.add(red_max, 6.0, out=red_max, where=red_max < 0.0)
    np.copyto(hue, red_max, where=mx == r)
    hue *= 60.0
    radians = np.deg2rad(hue, out=hue)
    resultant_x = _mean(np.where(chromatic, np.cos(radians), 0.0))
    resultant_y = _mean(np.where(chromatic, np.sin(radians, out=radians), 0.0))
    if np.hypot(resultant_x, resultant_y) < 1e-9:
        mean_hue = None
    else:
        mean_hue = float(np.rad2deg(np.arctan2(resultant_y, resultant_x)) % 360.0)
    saturation = np.divide(delta, mx, out=np.zeros_like(mx), where=mx > 0)
    return mean_hue, _mean(saturation), _mean(mx)


@lru_cache(maxsize=64)
def _block_plan(shape):
    """`_block_average`'s block starts along each axis and pixel count per block."""
    h, w = shape
    rows = np.arange(0, h, 2)
    cols = np.arange(0, w, 2)
    counts = np.minimum(2, h - rows)[:, None] * np.minimum(2, w - cols)[None, :]
    for array in (rows, cols, counts):
        array.flags.writeable = False  # the cache hands the same arrays to every call
    return rows, cols, counts


def _block_average(arr: np.ndarray) -> np.ndarray:
    """Halve resolution by averaging 2x2 blocks; odd edges keep partial blocks."""
    rows, cols, counts = _block_plan(arr.shape)
    sums = np.add.reduceat(np.add.reduceat(arr, rows, axis=0), cols, axis=1)
    return sums / counts


@lru_cache(maxsize=64)
def _level_plan(shape):
    """Mean local contrast at one level shape: the average over pixels of the mean
    absolute luminance gap to their 4-neighbors.

    Returned as a function of the level's linear gray plane, over buffers and views
    built once per shape: lum, the diff sum, the neighbor count, and vertical and
    horizontal gap buffers one row (column) longer than lum, whose zero border
    rows (columns) are never written. Every call overwrites the rest.
    """
    h, w = shape
    lum, diff_sum = np.empty(shape), np.empty(shape)
    count = np.full(shape, 4.0)
    for edge in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1]):
        count[edge] -= 1.0
    vertical, horizontal = np.zeros((h + 1, w)), np.zeros((h, w + 1))
    below, above, vertical_gaps = lum[1:], lum[:-1], vertical[1:-1]
    right, left, horizontal_gaps = lum[:, 1:], lum[:, :-1], horizontal[:, 1:-1]
    up, down, from_left, from_right = vertical[:-1], vertical[1:], horizontal[:, :-1], horizontal[:, 1:]

    def mean_local_contrast(linear):
        np.multiply(np.sqrt(linear, out=lum), 100.0, out=lum)
        np.abs(np.subtract(below, above, out=vertical_gaps), out=vertical_gaps)
        np.abs(np.subtract(right, left, out=horizontal_gaps), out=horizontal_gaps)
        # Each pixel adds its gaps up, down, left, right, in that order, which fixes the
        # rounding; a missing neighbor's gap is the border's +0.0, which adds exactly.
        np.add(np.add(np.add(up, down, out=diff_sum), from_left, out=diff_sum), from_right, out=diff_sum)
        return _mean(np.divide(diff_sum, count, out=diff_sum))

    return mean_local_contrast


def global_contrast(gray: np.ndarray) -> float:
    """Multi-resolution global contrast factor of an (H, W) linear gray plane.

    Luminance is 100*sqrt(linear gray); local contrast is averaged over
    9 superpixel levels obtained by factor-2 block averaging of the
    linear image, weighted per level. Levels smaller than 2x2 contribute 0.
    """
    if min(gray.shape) < 2:
        return 0.0
    linear = gray
    total = 0.0
    for weight in GCF_WEIGHTS:
        total += weight * _level_plan(linear.shape)(linear)
        if min(linear.shape) < 3:
            break  # the next level, half this one rounded up, is under 2x2, and so is every later one
        linear = _block_average(linear)
    return total


def colorfulness(pixels: np.ndarray) -> float:
    """Opponent-channel colorfulness of (3, H, W) RGB pixels, on the 0-255 scale."""
    r, g, b = pixels * 255.0
    rg = r - g
    yb = 0.5 * (r + g) - b
    std_term = np.sqrt(rg.std() ** 2 + yb.std() ** 2)
    mean_term = np.sqrt(_mean(rg) ** 2 + _mean(yb) ** 2)
    return float(std_term + 0.3 * mean_term)


def entropy(gray: np.ndarray) -> float:
    """Shannon entropy (bits) of the 256-bin 8-bit histogram of an (H, W) gray plane."""
    levels = np.floor(gray * 255.0 + 0.5).astype(np.int64)  # round half up
    counts = np.bincount(levels.ravel(), minlength=256)
    probs = counts[counts > 0] / levels.size
    return float(-np.add.reduce(probs * np.log2(probs)))


def compute_attributes(image) -> AttributeVector:
    """All six attributes of an ImageTensor, from one gray plane."""
    gray = grayscale(image.pixels)
    hue, saturation, value = hsv_stats(image.pixels)
    return AttributeVector(
        hue=hue,
        saturation=saturation,
        value=value,
        contrast=global_contrast(gray),
        colorfulness=colorfulness(image.pixels),
        entropy=entropy(gray),
    )


# --- attribute table I/O -----------------------------------------------------

def write_attribute_csv(rows, path):
    """Write {image_id: AttributeVector} sorted by id."""
    values = attrgetter(*ATTRIBUTE_NAMES)
    report.write_csv(path, ("image_id",) + ATTRIBUTE_NAMES, ((i, *values(rows[i])) for i in sorted(rows)))


def read_attribute_csv(path):
    """Read an attribute CSV back as {column: {image_id: float}}; n/a cells are skipped."""
    header, rows = report.read_csv(path, ("image_id",))
    columns = {name: {} for name in header[1:]}
    for row in rows:
        for name, cell in zip(header[1:], row[1:]):
            if cell != report.NA:
                columns[name][row[0]] = report.read_number(cell, f"{name} of {row[0]}", path)
    return columns
