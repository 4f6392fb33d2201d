"""Per-image attribute extraction: HSV means, contrast, colorfulness, entropy.

Grayscale conversion uses Rec.601 luma (0.299/0.587/0.114) throughout.
All attributes are computed on native-resolution pixels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from operator import attrgetter

import numpy as np

from . import report

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

# Per-resolution weights of the global contrast factor, i = 1..9.
GCF_LEVELS = 9


def _gcf_weight(i: int) -> float:
    x = i / GCF_LEVELS
    return (-0.406385 * x + 0.334573) * x + 0.0877526


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
    if pixels.shape[0] == 1:
        return pixels[0]
    if pixels.shape[0] == 3:
        return np.tensordot(LUMA_WEIGHTS, pixels, axes=1)
    raise ValueError(f"grayscale needs 1 or 3 channels, got {pixels.shape[0]}")


def hsv_stats(image) -> tuple:
    """Mean hue (circular, degrees), saturation, and value of an RGB image.

    Achromatic pixels carry no hue; when every pixel is achromatic (or
    hues cancel) the mean hue is undefined and returned as None.
    """
    if image.channels != 3:
        raise ValueError(f"hsv_stats needs a 3-channel image, got {image.channels}")
    r, g, b = image.pixels
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    delta = mx - mn
    chromatic = delta > 0
    safe = np.where(chromatic, delta, 1.0)
    hue = np.select(
        [mx == r, mx == g],
        [np.mod((g - b) / safe, 6.0), (b - r) / safe + 2.0],
        default=(r - g) / safe + 4.0,
    ) * 60.0
    radians = np.deg2rad(hue)
    resultant_x = float(np.where(chromatic, np.cos(radians), 0.0).mean())
    resultant_y = float(np.where(chromatic, np.sin(radians), 0.0).mean())
    if np.hypot(resultant_x, resultant_y) < 1e-9:
        mean_hue = None
    else:
        mean_hue = float(np.rad2deg(np.arctan2(resultant_y, resultant_x)) % 360.0)
    saturation = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    return mean_hue, float(saturation.mean()), float(mx.mean())


def _block_average(arr: np.ndarray) -> np.ndarray:
    """Halve resolution by averaging 2x2 blocks; odd edges keep partial blocks."""
    h, w = arr.shape
    rows = np.arange(0, h, 2)
    cols = np.arange(0, w, 2)
    sums = np.add.reduceat(np.add.reduceat(arr, rows, axis=0), cols, axis=1)
    counts = np.minimum(2, h - rows)[:, None] * np.minimum(2, w - cols)[None, :]
    return sums / counts


def _mean_local_contrast(linear: np.ndarray) -> float:
    """Average over pixels of the mean absolute luminance gap to 4-neighbors."""
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
    return float((diff_sum / neighbor_count).mean())


def global_contrast(image) -> float:
    """Multi-resolution global contrast factor.

    Luminance is 100*sqrt(linear gray); local contrast is averaged over
    9 superpixel levels obtained by factor-2 block averaging of the
    linear image, weighted per level. Levels smaller than 2x2 contribute 0.
    """
    linear = grayscale(image.pixels)
    total = 0.0
    for level in range(1, GCF_LEVELS + 1):
        if min(linear.shape) >= 2:
            total += _gcf_weight(level) * _mean_local_contrast(linear)
        if level < GCF_LEVELS:
            linear = _block_average(linear)
    return total


def colorfulness(image) -> float:
    """Opponent-channel colorfulness on the 0-255 scale."""
    if image.channels != 3:
        raise ValueError(f"colorfulness needs a 3-channel image, got {image.channels}")
    r, g, b = image.pixels * 255.0
    rg = r - g
    yb = 0.5 * (r + g) - b
    std_term = np.sqrt(rg.std() ** 2 + yb.std() ** 2)
    mean_term = np.sqrt(rg.mean() ** 2 + yb.mean() ** 2)
    return float(std_term + 0.3 * mean_term)


def entropy(image) -> float:
    """Shannon entropy (bits) of the 256-bin 8-bit grayscale histogram."""
    gray = grayscale(image.pixels)
    levels = np.floor(gray * 255.0 + 0.5).astype(np.int64)  # round half up
    counts = np.bincount(levels.ravel(), minlength=256)
    probs = counts[counts > 0] / levels.size
    return float(-(probs * np.log2(probs)).sum())


def compute_attributes(image) -> AttributeVector:
    hue, saturation, value = hsv_stats(image)
    return AttributeVector(
        hue=hue,
        saturation=saturation,
        value=value,
        contrast=global_contrast(image),
        colorfulness=colorfulness(image),
        entropy=entropy(image),
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
