"""Grayscale reconstruction by erosion and regional minima, both restricted
to a mask (non-mask voxels act as an impassable +inf wall).

Reconstruction repeats full-volume erosion rounds until nothing changes.
Its fixpoint is unique, so the tests hold it to sequential raster sweeps.
Regional minima are a set, too: the components of the voxels with no
strictly lower neighbor that are whole equal-valued plateaus; the tests
hold this to a breadth-first spread of "not minimal" across equal-valued
neighbors.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

_WALL = 1e18


def neighbor_offsets(connectivity: int) -> np.ndarray:
    if connectivity == 6:
        offs = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    elif connectivity == 26:
        offs = [
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
            if (a, b, c) != (0, 0, 0)
        ]
    else:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    return np.array(offs, np.int64)


def neighbor_structure(connectivity: int) -> np.ndarray:
    """The (3, 3, 3) boolean footprint of the neighborhood, center included."""
    structure = np.zeros((3, 3, 3), bool)
    structure[tuple((neighbor_offsets(connectivity) + 1).T)] = True
    structure[1, 1, 1] = True
    return structure


def _split_scan_offsets(offs: np.ndarray):
    # Offsets strictly before (resp. after) the center in raster order.
    key = offs[:, 0] * 9 + offs[:, 1] * 3 + offs[:, 2]
    return offs[key < 0], offs[key > 0]


def reconstruct_erosion(marker: np.ndarray, lower: np.ndarray, mask: np.ndarray, connectivity: int):
    """Largest image <= marker that is >= lower and has no descending path
    finer than the neighborhood allows (morphological reconstruction by
    erosion of ``marker`` above ``lower``), computed inside ``mask``."""
    rec = np.where(mask, marker, _WALL).astype(np.float64)
    low = np.where(mask, lower, _WALL).astype(np.float64)
    footprint = neighbor_structure(connectivity)
    while True:
        eroded = ndimage.grey_erosion(rec, footprint=footprint, mode="constant", cval=_WALL)
        nxt = np.maximum(low, eroded)
        nxt[~mask] = _WALL
        if np.array_equal(nxt, rec):
            return nxt
        rec = nxt


def _shifted_slices(shape, d):
    """Slices selecting every voxel whose neighbor at offset ``d`` lies in
    the volume, and those neighbors."""
    ctr = tuple(slice(max(0, -k), n - max(0, k)) for n, k in zip(shape, d))
    nbr = tuple(slice(s.start + k, s.stop + k) for s, k in zip(ctr, d))
    return ctr, nbr


def regional_minima(val: np.ndarray, mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Boolean set of mask voxels belonging to equal-valued plateaus with no
    strictly lower neighbor inside the mask.

    Let C be the mask voxels with no strictly lower mask neighbor. Two
    adjacent voxels of C are equal, since the higher would have a lower
    neighbor, so each component of C lies in one plateau. It is the whole
    plateau, which is then minimal, unless one of its voxels has an
    equal-valued mask neighbor outside C. Each unordered neighbor pair is
    visited once, through the offsets after the center."""
    val = np.asarray(val, np.float64)
    mask = np.asarray(mask, bool)
    after = [_shifted_slices(val.shape, d)
             for d in _split_scan_offsets(neighbor_offsets(connectivity))[1]]
    lower = np.zeros(val.shape, bool)
    for ctr, nbr in after:
        both = mask[ctr] & mask[nbr]
        a, b = val[ctr], val[nbr]
        lower[ctr] |= both & (b < a)
        lower[nbr] |= both & (a < b)
    cand = mask & ~lower
    leaks = np.zeros(val.shape, bool)
    for ctr, nbr in after:
        # equal mask pairs with one voxel in C; the values are compared
        # only where the rest holds
        eq = (cand[ctr] != cand[nbr]) & mask[ctr] & mask[nbr]
        np.equal(val[ctr], val[nbr], out=eq, where=eq)
        leaks[ctr] |= eq & cand[ctr]
        leaks[nbr] |= eq & cand[nbr]
    plateau, n = ndimage.label(cand, neighbor_structure(connectivity))
    leaking = np.zeros(n + 1, bool)
    leaking[plateau[leaks]] = True
    return cand & ~leaking[plateau]
