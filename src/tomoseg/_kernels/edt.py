"""Exact Euclidean distance transform.

Delegates to scipy.ndimage.distance_transform_edt, which is exact and
returns float64.
Foreground voxels with no background anywhere are reported as +inf. Tests
compare it with a brute-force nearest-background oracle.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def edt(mask: np.ndarray) -> np.ndarray:
    """Distance in voxel units from each foreground voxel to the nearest
    background voxel center; 0 on background, +inf if no background exists."""
    mask = np.asarray(mask, bool)
    if mask.all():
        return np.full(mask.shape, np.inf)
    return ndimage.distance_transform_edt(mask)
