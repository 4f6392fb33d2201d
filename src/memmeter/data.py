"""Image ingestion, rotation transforms, episode sampling, augmentations.

Images are channel-major float64 arrays with values in [0, 1]. Rotations
are exact counterclockwise pixel permutations. Supported on-disk formats:
CIFAR-10 binary batches (1 label byte + 3072 pixel bytes per record) and
binary PPM (P6, maxval <= 255), optionally with a manifest CSV
"id,filename[,label]" attaching labels.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .rng import make_rng

log = logging.getLogger(__name__)

CIFAR_RECORD_BYTES = 3073
CIFAR_SHAPE = (3, 32, 32)


@dataclass
class ImageTensor:
    id: str
    pixels: np.ndarray  # (channels, height, width), values in [0, 1]

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ConfigError(f"image {self.id!r}: pixels must be (C, H, W), got ndim {self.pixels.ndim}")
        if not np.isfinite(self.pixels).all():
            raise ConfigError(f"image {self.id!r}: non-finite pixel values")
        lo, hi = self.pixels.min(), self.pixels.max()
        if lo < 0.0 or hi > 1.0:
            raise ConfigError(f"image {self.id!r}: pixel range [{lo}, {hi}] outside [0, 1]")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


class Dataset:
    """Immutable ordered collection of uniformly shaped images."""

    def __init__(self, images, labels=None, source=""):
        images = list(images)
        if not images:
            raise ConfigError("dataset is empty")
        dims = images[0].pixels.shape
        for img in images:
            if img.pixels.shape != dims:
                raise ConfigError(
                    f"image {img.id!r} has shape {img.pixels.shape}, dataset uses {dims}"
                )
        self.images = images
        self._by_id = {img.id: img for img in images}
        if len(self._by_id) != len(images):
            raise ConfigError("duplicate image ids in dataset")
        self.labels = dict(labels) if labels else {}
        self.source = source

    def __len__(self):
        return len(self.images)

    def __iter__(self):
        return iter(self.images)

    @property
    def ids(self):
        return [img.id for img in self.images]

    @property
    def dims(self):
        return self.images[0].pixels.shape

    def image(self, image_id: str) -> ImageTensor:
        try:
            return self._by_id[image_id]
        except KeyError:
            raise ConfigError(f"unknown image id {image_id!r}") from None


# --- rotations -------------------------------------------------------------

def rotate_pixels(pixels: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Rotate (C, H, W) pixels counterclockwise by 90deg * quarter_turns."""
    k = quarter_turns % 4
    if k == 0:
        return pixels.copy()
    if k in (1, 3) and pixels.shape[1] != pixels.shape[2]:
        raise ConfigError(
            f"90/270 degree rotation needs square images, got {pixels.shape[1]}x{pixels.shape[2]}"
        )
    return np.ascontiguousarray(np.rot90(pixels, k, axes=(1, 2)))


def rotate(image: ImageTensor, degrees: int) -> ImageTensor:
    if degrees % 90 != 0:
        raise ConfigError(f"rotation must be a multiple of 90 degrees, got {degrees}")
    return ImageTensor(image.id, rotate_pixels(image.pixels, degrees // 90))


def hflip_pixels(pixels: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(pixels[:, :, ::-1])


# --- episode sampling ------------------------------------------------------

@dataclass(frozen=True)
class EpisodeSets:
    set_a: tuple
    set_b: tuple
    set_c: tuple
    calib_seen: tuple = ()
    calib_unseen: tuple = ()


def sample_episode_sets(dataset, set_a, n, episode_seed, reserve=0) -> EpisodeSets:
    """Draw disjoint sets B and C (and optional calibration reserves).

    B, C, and the reserves are drawn uniformly without replacement from
    the dataset minus the fixed set A, fully determined by episode_seed.
    """
    set_a = tuple(set_a)
    if n < 1:
        raise ConfigError("set size n must be >= 1")
    if len(set_a) != n or len(set(set_a)) != n:
        raise ConfigError(f"set A must hold {n} distinct ids, got {len(set_a)}")
    for image_id in set_a:
        dataset.image(image_id)
    taken = set(set_a)
    pool = [i for i in dataset.ids if i not in taken]
    needed = 2 * n + 2 * reserve
    if len(pool) < needed:
        raise ConfigError(
            f"dataset too small: need {needed} images outside set A, have {len(pool)}"
        )
    rng = make_rng(episode_seed)
    picks = rng.choice(len(pool), size=needed, replace=False)
    chosen = [pool[i] for i in picks]
    set_b = tuple(chosen[:n])
    set_c = tuple(chosen[n : 2 * n])
    calib_seen = tuple(chosen[2 * n : 2 * n + reserve])
    calib_unseen = tuple(chosen[2 * n + reserve :])
    return EpisodeSets(set_a, set_b, set_c, calib_seen, calib_unseen)


# --- loaders ---------------------------------------------------------------

def load_cifar_binary(path) -> Dataset:
    """Load CIFAR-10 binary batches from one .bin file or a directory."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.bin"))
        if not files:
            raise DataFormatError("no .bin files in directory", path=str(path))
    else:
        files = [path]
    images, labels = [], {}
    for file in files:
        blob = file.read_bytes()
        if len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"file size {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}-byte records",
                path=str(file),
                offset=(len(blob) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES,
            )
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        for index, record in enumerate(records):
            image_id = f"{file.name}#{index}"
            pixels = record[1:].astype(np.float64).reshape(CIFAR_SHAPE) / 255.0
            images.append(ImageTensor(image_id, pixels))
            labels[image_id] = str(int(record[0]))
    return Dataset(images, labels=labels, source=str(path))


def read_ppm(path) -> np.ndarray:
    """Decode one binary P6 PPM (maxval <= 255) into (3, H, W) pixels."""
    path = Path(path)
    blob = path.read_bytes()
    pos = 0

    def fail(message):
        raise DataFormatError(message, path=str(path), offset=pos)

    if blob[:2] != b"P6":
        fail("bad magic, expected P6")
    pos = 2

    def next_token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":  # comment runs to end of line
                while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            fail("truncated header")
        return blob[start:pos]

    fields = []
    for name in ("width", "height", "maxval"):
        token = next_token()
        if not token.isdigit():
            fail(f"non-numeric {name} field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        fail(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        fail(f"maxval {maxval} outside (0, 255]")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        fail("missing whitespace after maxval")
    pos += 1
    expected = width * height * 3
    payload = blob[pos : pos + expected]
    if len(payload) != expected:
        pos = len(blob)
        raise DataFormatError(
            f"truncated pixel data, expected {expected} bytes", path=str(path), offset=len(blob)
        )
    if pos + expected != len(blob):
        pos += expected
        fail("trailing bytes after pixel data")
    raster = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return raster.transpose(2, 0, 1).astype(np.float64) / maxval


def write_ppm(image: ImageTensor, path):
    """Encode an RGB image as canonical P6 with maxval 255 (round half up)."""
    if image.channels != 3:
        raise ConfigError(f"PPM output needs 3 channels, image {image.id!r} has {image.channels}")
    raster = np.floor(image.pixels * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes(order="C"))


def _read_manifest(path):
    rows = list(csv.reader(Path(path).open(newline="")))
    if not rows or rows[0] not in (["id", "filename"], ["id", "filename", "label"]):
        raise DataFormatError(
            'manifest must start with header "id,filename" or "id,filename,label"',
            path=str(path),
        )
    has_label = len(rows[0]) == 3
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DataFormatError(f"manifest row {line_no} has {len(row)} fields", path=str(path))
        entries.append((row[0], row[1], row[2] if has_label else None))
    return entries


def load_ppm_dir(path, manifest=None) -> Dataset:
    """Load a directory of P6 PPM files, optionally driven by a manifest."""
    path = Path(path)
    images, labels = [], {}
    if manifest is None and (path / "manifest.csv").exists():
        manifest = path / "manifest.csv"
    if manifest is not None:
        for image_id, filename, label in _read_manifest(manifest):
            images.append(ImageTensor(image_id, read_ppm(path / filename)))
            if label is not None:
                labels[image_id] = label
    else:
        files = sorted(path.glob("*.ppm"))
        if not files:
            raise DataFormatError("no .ppm files in directory", path=str(path))
        for file in files:
            images.append(ImageTensor(file.stem, read_ppm(file)))
    return Dataset(images, labels=labels, source=str(path))


# --- regression augmentations ----------------------------------------------

ERASE_AREA_RANGE = (0.02, 0.20)
ERASE_ASPECT_RANGE = (0.3, 1.0 / 0.3)


def _sample_erase_rect(rng, height, width):
    """Pick an erase rectangle; bounds always stay inside the image."""
    area = rng.uniform(*ERASE_AREA_RANGE) * height * width
    log_lo, log_hi = np.log(ERASE_ASPECT_RANGE[0]), np.log(ERASE_ASPECT_RANGE[1])
    aspect = np.exp(rng.uniform(log_lo, log_hi))
    eh = int(np.clip(round(np.sqrt(area * aspect)), 1, height))
    ew = int(np.clip(round(np.sqrt(area / aspect)), 1, width))
    y0 = int(rng.integers(0, height - eh + 1))
    x0 = int(rng.integers(0, width - ew + 1))
    return y0, y0 + eh, x0, x0 + ew


def augment_for_regression(image: ImageTensor, seed: int) -> ImageTensor:
    """Seed-deterministic horizontal flip and noise-filled random erasing.

    Draw order is fixed: flip coin, erase coin, then erase parameters.
    """
    rng = make_rng(seed)
    pixels = image.pixels
    if rng.random() < 0.5:
        pixels = hflip_pixels(pixels)
    if rng.random() < 0.5:
        pixels = pixels.copy() if pixels is image.pixels else pixels
        y0, y1, x0, x1 = _sample_erase_rect(rng, image.height, image.width)
        pixels[:, y0:y1, x0:x1] = rng.random((image.channels, y1 - y0, x1 - x0))
    return ImageTensor(image.id, pixels.copy() if pixels is image.pixels else pixels)
