"""Connected component labeling with canonical first-encounter label order.

scipy.ndimage.label finds the components; the labels are then renumbered
1..L in raster order of each component's first voxel (z, then y, then x),
so the labeling does not depend on scipy's internal order. Tests compare
it with a breadth-first search oracle.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .recon import neighbor_structure


def _canonicalize(labels: np.ndarray) -> np.ndarray:
    """Renumber labels by first occurrence in flat (x-fastest) scan order."""
    flat = labels.ravel()
    top = int(flat.max()) if flat.size else 0
    if top == 0:
        return labels.astype(np.int32)
    first = np.full(top + 1, flat.size, np.int64)
    idx = np.flatnonzero(flat)
    # reversed so earlier occurrences overwrite later ones
    first[flat[idx[::-1]]] = idx[::-1]
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(top + 1, np.int32)
    remap[1 + order] = np.arange(1, top + 1, dtype=np.int32)
    return remap[labels]


def raw_components(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """scipy's int32 component labels of ``mask``, in scipy's order, and
    their count."""
    mask = np.asarray(mask, bool)
    return ndimage.label(mask, structure=neighbor_structure(connectivity), output=np.int32)


def connected_components_mask(mask: np.ndarray, connectivity: int) -> np.ndarray:
    return _canonicalize(raw_components(mask, connectivity)[0])
