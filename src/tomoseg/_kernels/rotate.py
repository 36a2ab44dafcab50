"""Nearest-neighbor rigid rotation of a binary volume about its center.

The kernel receives the inverse rotation matrix and samples each output
voxel from the back-rotated position; positions outside the volume read as
background. Rounding is floor(v + 0.5). Every output voxel is independent,
so a z-range ``[z0, z1)`` of the output is exactly those slices of the full
rotation. Tests compare it with a per-voxel loop oracle.

Sampling reads a copy of the volume with a one-voxel background guard on
every side (``guard_volume``). Each rounded source coordinate is clipped to
[-1, n], so every position outside the volume lands on a guard voxel and
one gather reads the output, with no inside mask. The flat index into the
guarded copy is summed in float64 and cast once; every term is an integer
far below 2**53, so the sum is exact. The output is built a few slices at a
time, so that a chunk's coordinate arrays stay in cache across their passes.
"""

from __future__ import annotations

import numpy as np

# voxels per chunk: three 8-byte arrays of this length stay in a core's L2
CHUNK_VOXELS = 1 << 15


def guard_volume(vol: np.ndarray) -> np.ndarray:
    """``vol`` with one zero voxel added on every side, in its dtype."""
    return np.pad(np.asarray(vol), 1)


def rotate_nearest(vol: np.ndarray, rinv: np.ndarray, center, z0: int = 0, z1=None,
                   guarded=None) -> np.ndarray:
    """Rotate ``vol`` and return output slices ``[z0, z1)`` (the full height
    by default). ``guarded``, when given, is ``guard_volume(vol)`` of the
    bool volume, built once by a caller that rotates it many times."""
    rinv = np.ascontiguousarray(rinv, np.float64)
    cx, cy, cz = (float(c) for c in center)
    nz, ny, nx = np.shape(vol)
    z1 = nz if z1 is None else z1
    if not 0 <= z0 <= z1 <= nz:
        raise ValueError(f"z-range [{z0}, {z1}) outside 0..{nz}")
    if guarded is None:
        guarded = guard_volume(np.asarray(vol, bool))
    # axis vectors broadcast to (z, y, x); each source coordinate is summed
    # as rinv[row] . (dx, dy, dz) + c + 0.5, left to right, so a per-voxel
    # loop in that order gets the same values bit for bit
    dx = np.arange(nx, dtype=np.float64) - cx
    dy = (np.arange(ny, dtype=np.float64) - cy)[:, None]
    dz = (np.arange(z0, z1, dtype=np.float64) - cz)[:, None, None]
    rows = [(rinv[row, 0] * dx + rinv[row, 1] * dy, rinv[row, 2] * dz, c, n)
            for row, c, n in ((2, cz, nz), (1, cy, ny), (0, cx, nx))]
    src = guarded.ravel()
    out = np.empty((z1 - z0, ny, nx), bool)
    step = max(1, min(CHUNK_VOXELS // max(1, ny * nx), z1 - z0))
    s = np.empty((step, ny, nx), np.float64)
    flat = np.empty((step, ny, nx), np.float64)
    index = np.empty((step, ny, nx), np.intp)
    # each clipped coordinate is one short of its index in the guarded copy
    offset = float(((ny + 2) + 1) * (nx + 2) + 1)
    for a in range(0, z1 - z0, step):
        b = min(a + step, z1 - z0)
        s_, flat_, index_ = s[: b - a], flat[: b - a], index[: b - a]
        for row, (plane, col, c, n) in enumerate(rows):
            v = flat_ if row == 0 else s_
            np.add(plane, col[a:b], out=v)
            v += c
            v += 0.5
            np.floor(v, out=v)
            np.clip(v, -1.0, float(n), out=v)  # -1 and n are guard voxels
            if row:
                flat_ *= n + 2  # row-major over the guarded (z, y, x)
                flat_ += s_
        flat_ += offset
        np.copyto(index_, flat_, casting="unsafe")
        # a NaN casts to an index outside the array, which "clip" sends to
        # the first or last voxel: both are guard voxels
        src.take(index_, out=out[a:b], mode="clip")
    return out
