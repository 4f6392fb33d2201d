"""Flat binary parameter checkpoints.

Layout: magic "MMT1", then one block per parameter in machine order:
  uint32  name length, then the UTF-8 name
  uint32  shape rank, then rank uint32 dims
  float64 values, little-endian, C order
All integers are little-endian uint32.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DataFormatError

MAGIC = b"MMT1"
_U32 = struct.Struct("<I")


def save_params(params, path):
    """Write [(name, tensor-or-array)] to a checkpoint file."""
    path = Path(path)
    chunks = [MAGIC]
    for name, tensor in params:
        data = np.asarray(getattr(tensor, "data", tensor), dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(_U32.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(_U32.pack(data.ndim))
        for dim in data.shape:
            chunks.append(_U32.pack(dim))
        chunks.append(data.astype("<f8").tobytes(order="C"))
    path.write_bytes(b"".join(chunks))


def load_params(path):
    """Read a checkpoint back as [(name, ndarray)]; each name appears once."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise DataFormatError("bad checkpoint magic", path=str(path), offset=0)
    pos = 4
    out = []

    def take(count, what):
        nonlocal pos
        if pos + count > len(blob):
            raise DataFormatError(f"truncated checkpoint while reading {what}", path=str(path), offset=pos)
        piece = blob[pos : pos + count]
        pos += count
        return piece

    while pos < len(blob):
        (name_len,) = _U32.unpack(take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError("name is not UTF-8", path=str(path), offset=pos - name_len + exc.start) from None
        if any(name == seen for seen, _ in out):
            raise DataFormatError(f"parameter {name!r} appears twice", path=str(path), offset=pos - name_len)
        (rank,) = _U32.unpack(take(4, "rank"))
        shape = tuple(_U32.unpack(take(4, "dim"))[0] for _ in range(rank))
        raw = take(math.prod(shape) * 8, f"values of {name}")
        data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        out.append((name, data))
    return out


def load_into_machine(machine, path):
    """Load a checkpoint into a machine; names and shapes must match.

    Values are copied into the existing parameter arrays, so an optimizer
    that already owns them trains the loaded values.
    """
    saved = dict(load_params(path))
    params = machine.parameters()
    names = [n for n, _ in params]
    if set(names) != set(saved):
        missing = sorted(set(names) - set(saved))
        extra = sorted(set(saved) - set(names))
        raise DataFormatError(
            f"checkpoint does not match machine (missing {missing}, unexpected {extra})",
            path=str(path),
        )
    for name, tensor in params:
        if saved[name].shape != tensor.data.shape:
            raise DataFormatError(
                f"shape mismatch for {name}: checkpoint {saved[name].shape}, machine {tensor.data.shape}",
                path=str(path),
            )
    for name, tensor in params:
        np.copyto(tensor.data, saved[name])
        tensor.grad = None
