"""Image ingestion, rotation transforms, episode sampling, augmentations.

Images are channel-major float64 arrays with values in [0, 1]; a Dataset
holds all of its images as the rows of one read-only (N, C, H, W) array.
Rotations are exact counterclockwise pixel permutations. Supported on-disk
formats: CIFAR-10 binary batches (1 label byte + 3072 pixel bytes per
record) and binary PPM (P6, maxval <= 255), optionally with a manifest CSV
"id,filename[,label]". Class labels are not kept: the CIFAR label byte and
the manifest's label column are allowed and ignored (`analyze --labels`
reads its own label table).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report
from .errors import ConfigError, DataFormatError
from .rng import make_rng

CIFAR_RECORD_BYTES = 3073
CIFAR_SHAPE = (3, 32, 32)


def check_pixels(pixels: np.ndarray, owner: str):
    """Raise ConfigError unless every value is finite and in [0, 1]."""
    lo, hi = pixels.min(), pixels.max()
    if not 0.0 <= lo <= hi <= 1.0:  # also false when either is NaN
        if not np.isfinite(pixels).all():
            raise ConfigError(f"{owner}: non-finite pixel values")
        raise ConfigError(f"{owner}: pixel range [{lo}, {hi}] outside [0, 1]")


@dataclass
class ImageTensor:
    id: str
    pixels: np.ndarray  # (channels, height, width), values in [0, 1]

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3:
            raise ConfigError(f"image {self.id!r}: pixels must be (C, H, W), got ndim {self.pixels.ndim}")
        check_pixels(self.pixels, f"image {self.id!r}")

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
    """Immutable ordered collection of uniformly shaped images.

    Row k of `pixels` is image `ids[k]`; `image()` and iteration give
    ImageTensor views of the rows. The array is taken over as it is, memory
    order included, and made read-only.
    """

    def __init__(self, ids, pixels, source=""):
        self.ids = list(ids)
        if not self.ids:
            raise ConfigError("dataset is empty")
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 4 or len(pixels) != len(self.ids):
            raise ConfigError(f"{len(self.ids)} ids need pixels of shape ({len(self.ids)}, C, H, W), got {pixels.shape}")
        check_pixels(pixels, "dataset")
        pixels.flags.writeable = False
        self.pixels = pixels
        self._rows = {image_id: row for row, image_id in enumerate(self.ids)}
        if len(self._rows) != len(self.ids):
            raise ConfigError("duplicate image ids in dataset")
        self.source = source

    def __len__(self):
        return len(self.ids)

    def __contains__(self, image_id):
        return image_id in self._rows

    def __iter__(self):
        return map(ImageTensor, self.ids, self.pixels)

    @property
    def dims(self):
        return self.pixels.shape[1:]

    def image(self, image_id: str) -> ImageTensor:
        try:
            return ImageTensor(image_id, self.pixels[self._rows[image_id]])
        except KeyError:
            raise ConfigError(f"unknown image id {image_id!r}") from None


# --- rotations -------------------------------------------------------------

def rotate_pixels(pixels: np.ndarray, quarter_turns: int, out=None) -> np.ndarray:
    """Rotate (C, H, W) pixels counterclockwise by 90deg * quarter_turns.

    Writes into `out` when it is given, else into a new array. The turns are
    np.rot90's views over axes (1, 2), built directly: a quarter turn
    reverses the columns and then swaps rows and columns.
    """
    if quarter_turns % 2 and pixels.shape[1] != pixels.shape[2]:
        raise ConfigError(f"90/270 degree rotation needs square images, got {pixels.shape[1]}x{pixels.shape[2]}")
    turns = quarter_turns % 4
    if turns == 1:
        pixels = pixels[:, :, ::-1].transpose(0, 2, 1)
    elif turns == 2:
        pixels = pixels[:, ::-1, ::-1]
    elif turns == 3:
        pixels = pixels.transpose(0, 2, 1)[:, :, ::-1]
    if out is None:
        return pixels.copy()
    out[...] = pixels
    return out


def hflip_pixels(pixels: np.ndarray) -> np.ndarray:
    return pixels[:, :, ::-1].copy()


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
    Expects a set A that `measurer.check_measurement` accepted.
    """
    set_a = tuple(set_a)
    taken = set(set_a)
    pool = [i for i in dataset.ids if i not in taken]
    needed = 2 * n + 2 * reserve
    rng = make_rng(episode_seed)
    chosen = tuple(pool[i] for i in rng.choice(len(pool), size=needed, replace=False))
    return EpisodeSets(
        set_a, chosen[:n], chosen[n : 2 * n], chosen[2 * n : 2 * n + reserve], chosen[2 * n + reserve :]
    )


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
    ids, batches = [], []
    for file in files:
        blob = file.read_bytes()
        if len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"file size {len(blob)} is not a multiple of {CIFAR_RECORD_BYTES}-byte records",
                path=str(file),
                offset=(len(blob) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES,
            )
        batches.append(np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
        ids += [f"{file.name}#{index}" for index in range(len(batches[-1]))]
    records = np.concatenate(batches)
    pixels = records[:, 1:].astype(np.float64).reshape(-1, *CIFAR_SHAPE)
    pixels /= 255.0
    return Dataset(ids, pixels, source=str(path))


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
    rows = list(report.csv_reader(path))
    if not rows or rows[0] not in (["id", "filename"], ["id", "filename", "label"]):
        raise DataFormatError('manifest must start with header "id,filename" or "id,filename,label"', path=str(path))
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DataFormatError(f"manifest row {line_no} has {len(row)} fields", path=str(path))
    return [(row[0], row[1]) for row in rows[1:]]


def load_ppm_dir(path) -> Dataset:
    """Load a directory of P6 PPM files, driven by its manifest.csv if it has one."""
    path = Path(path)
    manifest = path / "manifest.csv"
    if manifest.exists():
        entries = [(image_id, path / name) for image_id, name in _read_manifest(manifest)]
    else:
        entries = [(file.stem, file) for file in sorted(path.glob("*.ppm"))]
        if not entries:
            raise DataFormatError("no .ppm files in directory", path=str(path))
    if not entries:
        raise ConfigError("dataset is empty")
    rasters = [read_ppm(file) for _, file in entries]
    for (image_id, _), raster in zip(entries, rasters):
        if raster.shape != rasters[0].shape:
            raise ConfigError(f"image {image_id!r} has shape {raster.shape}, dataset uses {rasters[0].shape}")
    # np.stack keeps read_ppm's channel-last memory order. attributes.grayscale's
    # tensordot rounds differently on a channel-first copy, so that would change attributes.
    return Dataset([image_id for image_id, _ in entries], np.stack(rasters), source=str(path))


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
    pixels = hflip_pixels(image.pixels) if rng.random() < 0.5 else image.pixels.copy()
    if rng.random() < 0.5:
        y0, y1, x0, x1 = _sample_erase_rect(rng, image.height, image.width)
        pixels[:, y0:y1, x0:x1] = rng.random((image.channels, y1 - y0, x1 - x0))
    return ImageTensor(image.id, pixels)
