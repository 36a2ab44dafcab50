"""Nearest-neighbor rigid rotation of a binary volume about its center.

The kernel receives the inverse rotation matrix and samples each output
voxel from the back-rotated position; positions outside the volume read as
background. Rounding is floor(v + 0.5) in both paths. Every output voxel is
independent, so a z-range ``[z0, z1)`` of the output is exactly those slices
of the full rotation.
"""

from __future__ import annotations

import math

import numpy as np

from ..backend import njit, use_numba


@njit(cache=True)
def _rotate_numba(vol, rinv, cx, cy, cz, z0, z1):
    nz, ny, nx = vol.shape
    out = np.zeros((z1 - z0, ny, nx), np.bool_)
    for z in range(z0, z1):
        dz = z - cz
        for y in range(ny):
            dy = y - cy
            for x in range(nx):
                dx = x - cx
                sx = rinv[0, 0] * dx + rinv[0, 1] * dy + rinv[0, 2] * dz + cx
                sy = rinv[1, 0] * dx + rinv[1, 1] * dy + rinv[1, 2] * dz + cy
                sz = rinv[2, 0] * dx + rinv[2, 1] * dy + rinv[2, 2] * dz + cz
                ix = int(math.floor(sx + 0.5))
                iy = int(math.floor(sy + 0.5))
                iz = int(math.floor(sz + 0.5))
                if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
                    out[z - z0, y, x] = vol[iz, iy, ix]
    return out


def _rotate_numpy(vol, rinv, cx, cy, cz, z0, z1):
    nz, ny, nx = vol.shape
    # axis vectors broadcast to (z, y, x); each source coordinate is summed
    # in the same order as the per-voxel loop, so the values are identical
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


def rotate_nearest(vol: np.ndarray, rinv: np.ndarray, center, z0: int = 0, z1=None) -> np.ndarray:
    """Rotate ``vol`` and return output slices ``[z0, z1)`` (the full height
    by default)."""
    vol = np.ascontiguousarray(vol, bool)
    rinv = np.ascontiguousarray(rinv, np.float64)
    cx, cy, cz = (float(c) for c in center)
    nz = vol.shape[0]
    z1 = nz if z1 is None else z1
    if not 0 <= z0 <= z1 <= nz:
        raise ValueError(f"z-range [{z0}, {z1}) outside 0..{nz}")
    if use_numba():
        return _rotate_numba(vol, rinv, cx, cy, cz, z0, z1)
    return _rotate_numpy(vol, rinv, cx, cy, cz, z0, z1)
