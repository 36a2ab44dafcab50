"""Nearest-neighbor rigid rotation of a binary volume about its center.

The kernel receives the inverse rotation matrix and samples each output
voxel from the back-rotated position; positions outside the volume read as
background. Rounding is floor(v + 0.5). Every output voxel is independent,
so a z-range ``[z0, z1)`` of the output is exactly those slices of the full
rotation. Tests compare it with a per-voxel loop oracle.
"""

from __future__ import annotations

import numpy as np


def rotate_nearest(vol: np.ndarray, rinv: np.ndarray, center, z0: int = 0, z1=None) -> np.ndarray:
    """Rotate ``vol`` and return output slices ``[z0, z1)`` (the full height
    by default)."""
    vol = np.ascontiguousarray(vol, bool)
    rinv = np.ascontiguousarray(rinv, np.float64)
    cx, cy, cz = (float(c) for c in center)
    nz, ny, nx = vol.shape
    z1 = nz if z1 is None else z1
    if not 0 <= z0 <= z1 <= nz:
        raise ValueError(f"z-range [{z0}, {z1}) outside 0..{nz}")
    # axis vectors broadcast to (z, y, x); each source coordinate is summed
    # as rinv[row] . (dx, dy, dz) + c + 0.5, left to right, so a per-voxel
    # loop in that order gets the same values bit for bit
    dx = np.arange(nx, dtype=np.float64) - cx
    dy = (np.arange(ny, dtype=np.float64) - cy)[:, None]
    dz = (np.arange(z0, z1, dtype=np.float64) - cz)[:, None, None]
    flat = None
    inside = None
    for row, c, n in ((2, cz, nz), (1, cy, ny), (0, cx, nx)):
        s = rinv[row, 0] * dx + rinv[row, 1] * dy + rinv[row, 2] * dz
        s += c
        s += 0.5
        np.floor(s, out=s)
        ok = (s >= 0) & (s < n)
        i = s.astype(np.int64)
        if flat is None:
            flat, inside = i, ok
        else:
            flat *= n  # flat index, row-major over (z, y, x)
            flat += i
            inside &= ok
    flat[~inside] = 0
    out = vol.ravel().take(flat)
    out &= inside
    return out
