"""LERF binary field files.

Layout (little-endian): magic ``LERF``, u32 version (= 1), u32 n, f64 L,
u32 component count (1 or 3), then count * n^3 f64 samples per component in
row-major order with x1 fastest.  Round-trips are bit-exact.
"""

import os
import struct

import numpy as np

from .fields import ScalarField, VectorField3, make_grid

MAGIC = b"LERF"
VERSION = 1
_HEADER = struct.Struct("<4sIIdI")


class LerfError(ValueError):
    pass


def _payload(field):
    comps = (field,) if isinstance(field, ScalarField) else field.components
    blocks = [c.samples.ravel(order="F").astype("<f8", copy=False).tobytes() for c in comps]
    return len(comps), b"".join(blocks)


def write_field(path, field):
    count, payload = _payload(field)
    grid = field.grid
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, grid.n, grid.L, count))
        f.write(payload)


def read_field(path):
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != MAGIC:
            raise LerfError("not a LERF file")
        magic, version, n, L, count = _HEADER.unpack(head)
        if version != VERSION:
            raise LerfError(f"unsupported LERF version {version}")
        if count not in (1, 3):
            raise LerfError(f"invalid component count {count}")
        try:
            grid = make_grid(int(n), float(L))
        except ValueError as e:
            raise LerfError(f"invalid grid: {e}") from None
        # the claimed size against the file's, before anything is allocated
        need, size = count * n ** 3 * 8, os.fstat(f.fileno()).st_size - _HEADER.size
        if size < need:
            raise LerfError("unexpected end of payload")
        if size > need:
            raise LerfError("trailing bytes after payload")
        payload = f.read(need)
    raw = np.frombuffer(payload, dtype="<f8")
    comps = [ScalarField(grid, block.reshape((n, n, n), order="F"))  # the one C copy
             for block in raw.reshape(count, n ** 3)]
    return comps[0] if count == 1 else VectorField3(*comps)
