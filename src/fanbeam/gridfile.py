"""Binary grid container used by the CLI.

Layout (little-endian):

    bytes 0-7    magic "TOMOGRD1"
    byte  8      dtype code (1 = float64 little-endian)
    bytes 9-16   rows, cols as two uint32
    bytes 17-48  axis metadata, four float64: axis0 min, axis0 max,
                 axis1 min, axis1 max
    bytes 49-    payload, rows*cols float64, row major

Axis metadata stores the mathematical range of each axis: inclusive
endpoints for radial axes (t, gamma, s, image coordinates), the open
upper bound for the half-open angular axes (theta, beta).

Writers replace the target only once the whole file is written, so a
failed write leaves an existing file intact.  Writers and readers both
reject axes that are not finite and a payload holding NaN or infinity;
readers also reject a header whose dimensions disagree with the file
size.
"""

from __future__ import annotations

import math
import os
import struct
from typing import NamedTuple

import numpy as np

__all__ = ["GridFile", "read_grid", "write_grid", "MAGIC", "DTYPE_F64LE"]

MAGIC = b"TOMOGRD1"
DTYPE_F64LE = 1
_HEADER = struct.Struct("<8sBII4d")


class GridFile(NamedTuple):
    data: np.ndarray
    axis0: tuple[float, float]
    axis1: tuple[float, float]


def write_grid(path, data: np.ndarray, axis0: tuple[float, float], axis1: tuple[float, float]) -> None:
    data = np.ascontiguousarray(data, dtype="<f8")
    if data.ndim != 2:
        raise ValueError("grid payload must be 2-D")
    # refused here as read_grid refuses them, before any file is created
    if not all(map(math.isfinite, (*axis0, *axis1))):
        raise ValueError(f"{path}: axis bounds hold non-finite values")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: payload holds non-finite values")
    rows, cols = data.shape
    header = _HEADER.pack(MAGIC, DTYPE_F64LE, rows, cols, axis0[0], axis0[1], axis1[0], axis1[1])
    # a temporary file beside the target, renamed over it once complete
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header)
            fh.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_grid(path) -> GridFile:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, dtype, rows, cols, a0_min, a0_max, a1_min, a1_max = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if dtype != DTYPE_F64LE:
            raise ValueError(f"{path}: unsupported dtype code {dtype}")
        if not all(map(math.isfinite, (a0_min, a0_max, a1_min, a1_max))):
            raise ValueError(f"{path}: header axes hold non-finite values")
        # checked against the file size before anything is allocated
        size = rows * cols * 8
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held != size:
            raise ValueError(f"{path}: payload length mismatch ({rows} x {cols} grid needs {size} bytes, file holds {held})")
        payload = fh.read(size)
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: payload holds non-finite values")
    return GridFile(data, (a0_min, a0_max), (a1_min, a1_max))
