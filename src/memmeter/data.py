"""Image ingestion, rotation transforms, episode sampling, augmentations.

Images are channel-major float64 arrays with values in [0, 1]. A Dataset holds
its images as the samples its loader read, 8-bit for both file formats, with
one scale per image, converted to `samples / scale` into a new array when
asked for: one image in an ImageTensor, a plain (id, pixels) record, for the
callers that go image by image (attributes, predict, write_ppm); several as
one (k, C, H, W) array, for a predictor training batch, which
`augment_for_regression` changes in place, and for an episode's images, which
the measurer's stages take as slices. The episode sampler only draws ids from
outside set A; which draw joins which set is the measurer's. One range rule,
every sample finite and in [0, scale] of its image, checks pixels where they
enter the program, over a Dataset's samples (every loader builds one), and
where they leave it, in `write_ppm` at scale 1.0; what a Dataset hands out is
not checked again.
Rotations are exact counterclockwise pixel permutations. `load_dataset` alone
picks a path's on-disk format: CIFAR-10 binary batches (1 label byte + 3072
pixel bytes per record, scale 255), or binary PPM (P6, maxval <= 255, scale
maxval), optionally with a manifest CSV "id,filename[,label]". A path of
neither format is a ConfigError; a file that does not parse is a
DataFormatError naming it. Class labels are not kept: the CIFAR label byte and
the manifest's label column are allowed and ignored (`analyze --labels` reads
its own table).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import report
from .errors import ConfigError, DataFormatError
from .rng import make_rng

CIFAR_RECORD_BYTES = 3073
CIFAR_SHAPE = (3, 32, 32)


def _check_samples(ids, samples, scale):
    """Raise ConfigError naming the first image `ids[k]` not in [0, scale[k]], 0 < scale[k] < inf."""
    lo, hi = samples.min(axis=(1, 2, 3)), samples.max(axis=(1, 2, 3))
    bad = ~((0 <= lo) & (hi <= scale) & (0 < scale) & (scale < np.inf))  # also true where any is NaN
    if bad.any():
        row = int(np.argmax(bad))
        if not np.isfinite(samples[row]).all():
            raise ConfigError(f"image {ids[row]!r} has non-finite pixel values")
        raise ConfigError(f"image {ids[row]!r} has samples [{lo[row]}, {hi[row]}] outside [0, {scale[row]}]")


@dataclass
class ImageTensor:
    id: str
    pixels: np.ndarray  # float64 (channels, height, width), values in [0, 1]


class Dataset:
    """Immutable ordered collection of uniformly shaped images.

    Image `ids[k]` is `samples[k] / scale[k]`: the loaders keep the 8-bit
    samples they read, with the file's maxval (255 for CIFAR) as the scale,
    and an array of [0, 1] pixels is its own samples at the default scale
    1.0, whose division is exact. `image()` and iteration convert one image
    at a time into a new float64 array, and `batch()` converts several into
    one new array; both keep the samples' memory order. The samples are
    taken over as they are and made read-only.
    """

    def __init__(self, ids, samples, scale=1.0, source=""):
        self.ids = list(ids)
        if not self.ids:
            raise ConfigError("dataset is empty")
        samples = np.asarray(samples)
        if samples.ndim != 4 or len(samples) != len(self.ids):
            raise ConfigError(f"{len(self.ids)} ids need samples of shape ({len(self.ids)}, C, H, W), got {samples.shape}")
        scale = np.full(len(self.ids), scale, dtype=np.float64)
        _check_samples(self.ids, samples, scale)
        samples.flags.writeable = False
        self.samples, self.scale = samples, scale
        self._rows = {image_id: row for row, image_id in enumerate(self.ids)}
        if len(self._rows) != len(self.ids):
            raise ConfigError("duplicate image ids in dataset")
        self.source = source

    def __len__(self):
        return len(self.ids)

    def __contains__(self, image_id):
        return image_id in self._rows

    def __iter__(self):
        return map(ImageTensor, self.ids, map(self._convert, range(len(self.ids))))

    @property
    def dims(self):
        return self.samples.shape[1:]

    def image(self, image_id: str) -> ImageTensor:
        return ImageTensor(image_id, self._convert(self._rows[image_id]))

    def batch(self, ids) -> np.ndarray:
        """The images `ids`, in order, as one new (k, C, H, W) array."""
        return self._convert([self._rows[image_id] for image_id in ids])

    def _convert(self, rows):
        # One row or a list of rows; either way the result keeps the samples' memory order.
        return self.samples[rows] / self.scale[rows, None, None, None]


# --- rotations -------------------------------------------------------------

def rotate_pixels(pixels: np.ndarray, quarter_turns: int, out=None) -> np.ndarray:
    """Rotate (C, H, W) pixels counterclockwise by 90deg * quarter_turns.

    Writes into `out` when it is given, else into a new array. The turns are
    np.rot90's views over axes (1, 2), built directly: a quarter turn
    reverses the columns and then swaps rows and columns, so on a non-square
    image it swaps height and width.
    """
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


# --- episode sampling ------------------------------------------------------

def sample_episode_sets(dataset, set_a, count, episode_seed) -> tuple:
    """`count` distinct ids drawn uniformly without replacement from the
    dataset minus the fixed set A, fully determined by episode_seed.

    Expects a set A that `measurer.check_measurement` accepted; the
    measurer says which draw joins which set.
    """
    taken = set(set_a)
    pool = [i for i in dataset.ids if i not in taken]
    return tuple(pool[i] for i in make_rng(episode_seed).choice(len(pool), size=count, replace=False))


# --- loaders ---------------------------------------------------------------

def load_cifar_binary(path) -> Dataset:
    """Load CIFAR-10 binary batches from one .bin file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.bin")) if path.is_dir() else [path]
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
    if not ids:
        raise DataFormatError("no CIFAR records in .bin files", path=str(path))
    records = batches[0] if len(batches) == 1 else np.concatenate(batches)
    return Dataset(ids, records[:, 1:].reshape(-1, *CIFAR_SHAPE), scale=255.0, source=str(path))


def read_ppm(path) -> np.ndarray:
    """Decode one binary P6 PPM (maxval <= 255) into (3, H, W) pixels."""
    raster, maxval = _read_ppm_samples(path)
    return raster / maxval


def _read_ppm_samples(path):
    """One binary P6 PPM's (3, H, W) uint8 samples, a channel-last view of
    the file's bytes, and its maxval."""
    path = Path(path)
    blob = path.read_bytes()
    # "P6", then width, height and maxval, each after whitespace or comments
    # that run to "\n", then one whitespace byte; re caches the compiled pattern.
    header = re.match(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s", blob)
    if header is None:
        problem = "bad magic, expected P6" if blob[:2] != b"P6" else "malformed header, expected P6 width height maxval"
        raise DataFormatError(problem, path=str(path), offset=0)
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise DataFormatError(f"bad dimensions {width}x{height}", path=str(path), offset=header.start(1))
    if not 0 < maxval <= 255:
        raise DataFormatError(f"maxval {maxval} outside (0, 255]", path=str(path), offset=header.start(3))
    start, count = header.end(), width * height * 3
    if len(blob) < start + count:
        raise DataFormatError(f"truncated pixel data, expected {count} bytes", path=str(path), offset=len(blob))
    if len(blob) > start + count:
        raise DataFormatError("trailing bytes after pixel data", path=str(path), offset=start + count)
    raster = np.frombuffer(blob, dtype=np.uint8, count=count, offset=start)
    if maxval < 255 and raster.max() > maxval:
        first = int(np.argmax(raster > maxval))
        raise DataFormatError(f"sample {raster[first]} above maxval {maxval}", path=str(path), offset=start + first)
    return raster.reshape(height, width, 3).transpose(2, 0, 1), maxval


def write_ppm(image: ImageTensor, path):
    """Encode an RGB image as canonical P6 with maxval 255 (round half up)."""
    channels, height, width = image.pixels.shape
    if channels != 3:
        raise ConfigError(f"PPM output needs 3 channels, image {image.id!r} has {channels}")
    _check_samples([image.id], image.pixels[None], np.ones(1))  # the uint8 cast would wrap silently
    raster = np.floor(image.pixels * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes(order="C"))


def _read_manifest(path):
    """The (id, file) entries of a manifest; every id is new and every file exists."""
    rows = list(report.csv_reader(path))
    if not rows or rows[0] not in (["id", "filename"], ["id", "filename", "label"]):
        raise DataFormatError('manifest must start with header "id,filename" or "id,filename,label"', path=str(path))
    entries = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DataFormatError(f"manifest row {line_no} has {len(row)} fields", path=str(path))
        if row[0] in entries:
            raise DataFormatError(f"manifest row {line_no} repeats image id {row[0]!r}", path=str(path))
        entries[row[0]] = path.parent / row[1]
        if not entries[row[0]].is_file():
            raise DataFormatError(f"manifest row {line_no} names missing file {row[1]!r}", path=str(path))
    if not entries:
        raise DataFormatError("manifest lists no images", path=str(path))
    return list(entries.items())


def load_ppm_dir(path) -> Dataset:
    """Load a directory of P6 PPM files, driven by its manifest.csv if it has one."""
    path = Path(path)
    manifest = path / "manifest.csv"
    if manifest.exists():
        entries = _read_manifest(manifest)
    else:
        entries = [(file.stem, file) for file in sorted(path.glob("*.ppm"))]
        if not entries:
            raise DataFormatError("no .ppm files in directory", path=str(path))
    rasters, maxvals = zip(*(_read_ppm_samples(file) for _, file in entries))
    for (_, file), raster in zip(entries, rasters):
        if raster.shape != rasters[0].shape:
            raise DataFormatError(f"shape {raster.shape} differs from the dataset's {rasters[0].shape}", path=str(file))
    # np.stack keeps the rasters' channel-last memory order, and so does the division
    # that hands an image out, as in read_ppm. attributes.grayscale takes np.dot of a
    # (3, H*W) reshape whose strides follow that order; on a channel-first copy the dot
    # rounds differently, so attributes would change.
    return Dataset([image_id for image_id, _ in entries], np.stack(rasters), scale=maxvals, source=str(path))


def load_dataset(path) -> Dataset:
    """Load a .bin file or a directory of .bin batches, or a PPM directory."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data path does not exist: {path}")
    if path.is_file():
        if path.suffix == ".bin":
            return load_cifar_binary(path)
        raise ConfigError(f"unsupported dataset file {path} (expected a .bin batch)")
    if (path / "manifest.csv").exists() or any(path.glob("*.ppm")):
        return load_ppm_dir(path)
    if any(path.glob("*.bin")):
        return load_cifar_binary(path)
    raise ConfigError(f"directory {path} holds neither .ppm images nor .bin batches")


# --- regression augmentations ----------------------------------------------

ERASE_AREA_RANGE = (0.02, 0.20)
ERASE_ASPECT_RANGE = (0.3, 1.0 / 0.3)
_LOG_ASPECT_RANGE = tuple(np.log(ERASE_ASPECT_RANGE))


def _sample_erase_rect(rng, height, width):
    """Pick an erase rectangle; bounds always stay inside the image."""
    area = rng.uniform(*ERASE_AREA_RANGE) * height * width
    aspect = np.exp(rng.uniform(*_LOG_ASPECT_RANGE))
    # Python's min and max: np.clip of two ints costs more than the rest of the draw.
    eh = min(max(round(np.sqrt(area * aspect)), 1), height)
    ew = min(max(round(np.sqrt(area / aspect)), 1), width)
    y0 = int(rng.integers(0, height - eh + 1))
    x0 = int(rng.integers(0, width - ew + 1))
    return y0, y0 + eh, x0, x0 + ew


def augment_for_regression(pixels: np.ndarray, seed: int):
    """Seed-deterministic horizontal flip and noise-filled random erasing of
    one image's (C, H, W) pixels, in place.

    Draw order is fixed: flip coin, erase coin, then erase parameters.
    """
    rng = make_rng(seed)
    if rng.random() < 0.5:
        pixels[...] = pixels[:, :, ::-1]
    if rng.random() < 0.5:
        channels, height, width = pixels.shape
        y0, y1, x0, x1 = _sample_erase_rect(rng, height, width)
        pixels[:, y0:y1, x0:x1] = rng.random((channels, y1 - y0, x1 - x0))
