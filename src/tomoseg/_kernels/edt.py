"""Exact Euclidean distance transform.

scipy.ndimage's feature transform finds each voxel's nearest background
voxel (int32 indices, 12 bytes per voxel); the distances are then formed
z-slab by z-slab, straight into the float64 output: per axis the offset
(feature - index) squared, summed over the axes, then the sqrt. Every term
and sum is an integer below 2^53 until the sqrt, so it is exact in any
order and the result is bitwise scipy's ``distance_transform_edt``, which
forms the same sums over whole-volume float64 temporaries (the tests hold
it to that).
Foreground voxels with no background anywhere are reported as +inf. Tests
compare it with a brute-force nearest-background oracle.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

# voxels per slab of distance planes (at least one plane): 512 KiB of float64
SLAB_VOXELS = 1 << 16


def edt(mask: np.ndarray) -> np.ndarray:
    """Distance in voxel units from each foreground voxel to the nearest
    background voxel center; 0 on background, +inf if no background exists."""
    mask = np.asarray(mask, bool)
    if mask.all():
        return np.full(mask.shape, np.inf)
    feature = ndimage.distance_transform_edt(mask, return_distances=False, return_indices=True)
    nz, ny, nx = mask.shape
    out = np.empty(mask.shape)
    step = max(1, SLAB_VOXELS // max(1, ny * nx))
    term = np.empty((min(step, nz), ny, nx))
    for z0 in range(0, nz, step):
        z1 = min(nz, z0 + step)
        acc, tmp = out[z0:z1], term[: z1 - z0]
        for axis, index in enumerate(np.ogrid[z0:z1, :ny, :nx]):
            np.subtract(feature[axis, z0:z1], index, out=tmp)
            np.multiply(tmp, tmp, out=tmp if axis else acc)
            if axis:
                acc += tmp
        np.sqrt(acc, out=acc)
    return out
