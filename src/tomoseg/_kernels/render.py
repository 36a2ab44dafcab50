"""Superellipsoid rasterization for the phantom generator.

A particle is the set |u/a|^p + |v/b|^p + |w/c|^p <= 1 in its local frame;
the kernel stamps particle ids into a label grid over the particle's
bounding box, leaving already-claimed voxels untouched (the caller checks
overlap beforehand, which evaluates the definition at claimed voxels only).
Tests compare it with a per-voxel oracle of that definition and with the
overlap test evaluated over the whole box.
"""

from __future__ import annotations

import numpy as np


def stamp_superellipsoid(labels, rot, center, semi, expo, label, check_only=False) -> int:
    """Rasterize one particle; returns the count of voxels already claimed
    by other particles (0 means the placement does not intersect)."""
    nz, ny, nx = labels.shape
    reach = float(np.max(semi)) + 1.0
    x0 = max(0, int(np.floor(center[0] - reach)))
    x1 = min(nx, int(np.ceil(center[0] + reach)) + 1)
    y0 = max(0, int(np.floor(center[1] - reach)))
    y1 = min(ny, int(np.ceil(center[1] + reach)) + 1)
    z0 = max(0, int(np.floor(center[2] - reach)))
    z1 = min(nz, int(np.ceil(center[2] + reach)) + 1)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return 0
    rot = np.ascontiguousarray(rot, np.float64)
    center = np.ascontiguousarray(center, np.float64)
    semi = np.ascontiguousarray(semi, np.float64)
    expo = float(expo)
    zs = np.arange(z0, z1, dtype=np.float64)
    ys = np.arange(y0, y1, dtype=np.float64)
    xs = np.arange(x0, x1, dtype=np.float64)
    block = labels[z0:z1, y0:y1, x0:x1]
    if check_only:
        # only claimed voxels can count; each gets the arithmetic it would
        # get in the full box
        iz, iy, ix = np.nonzero(block)
        return int(_inside(zs[iz], ys[iy], xs[ix], rot, center, semi, expo).sum())
    inside = _inside(zs[:, None, None], ys[None, :, None], xs[None, None, :], rot, center, semi, expo)
    hit = int((inside & (block != 0)).sum())
    block[inside & (block == 0)] = label
    return hit


def _inside(z, y, x, rot, center, semi, expo):
    """Superellipsoid membership of the voxels at broadcast coordinates."""
    dx, dy, dz = x - center[0], y - center[1], z - center[2]
    u = (rot[0, 0] * dx + rot[0, 1] * dy + rot[0, 2] * dz) / semi[0]
    v = (rot[1, 0] * dx + rot[1, 1] * dy + rot[1, 2] * dz) / semi[1]
    w = (rot[2, 0] * dx + rot[2, 1] * dy + rot[2, 2] * dz) / semi[2]
    power = np.abs(u) ** expo + np.abs(v) ** expo + np.abs(w) ** expo
    if expo >= 2.0:
        # for exponent >= 2 the shape lies in the unit box and contains the
        # unit ball; a voxel in the ball counts as inside even where rounding
        # puts its power sum a hair above 1
        box = (np.abs(u) <= 1.0) & (np.abs(v) <= 1.0) & (np.abs(w) <= 1.0)
        return box & ((u * u + v * v + w * w <= 1.0) | (power <= 1.0))
    return power <= 1.0
