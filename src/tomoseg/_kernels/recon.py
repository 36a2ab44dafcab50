"""Grayscale reconstruction by erosion and regional minima, both restricted
to a mask (non-mask voxels act as an impassable +inf wall).

Reconstruction repeats full-volume erosion rounds until nothing changes.
Its fixpoint is unique, so the tests hold it to sequential raster sweeps.
Regional minima are a set, too: the equal-valued plateaus are labelled as
graph components and those with no voxel that has a strictly lower
neighbor are kept; the tests hold this to a breadth-first spread of "not
minimal" across equal-valued neighbors.
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


def _split_scan_offsets(offs: np.ndarray):
    # Offsets strictly before (resp. after) the center in raster order.
    key = offs[:, 0] * 9 + offs[:, 1] * 3 + offs[:, 2]
    return offs[key < 0], offs[key > 0]


def reconstruct_erosion(marker: np.ndarray, lower: np.ndarray, mask: np.ndarray, connectivity: int):
    """Largest image <= marker that is >= lower and has no descending path
    finer than the neighborhood allows (morphological reconstruction by
    erosion of ``marker`` above ``lower``), computed inside ``mask``."""
    offs = neighbor_offsets(connectivity)
    rec = np.where(mask, marker, _WALL).astype(np.float64)
    low = np.where(mask, lower, _WALL).astype(np.float64)
    footprint = np.zeros((3, 3, 3), bool)
    footprint[tuple((offs + 1).T)] = True
    footprint[1, 1, 1] = True
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


def _minima_numpy(val, mask, offs):
    # A plateau (a connected set of equal-valued mask voxels) is minimal iff
    # none of its voxels has a strictly lower mask neighbor. Each unordered
    # neighbor pair is visited once, through the offsets after the center.
    # scipy.sparse is imported here: loading it adds about 11 MB of
    # resident memory to every process that imports this module,
    # registration too.
    from scipy.sparse import coo_matrix, csgraph

    out = np.zeros(val.shape, bool)
    n = int(mask.sum())
    if n == 0:
        return out
    node = np.full(val.shape, -1, np.int64)
    node[mask] = np.arange(n)
    lower = np.zeros(val.shape, bool)
    rows, cols = [], []
    for d in _split_scan_offsets(offs)[1]:
        ctr, nbr = _shifted_slices(val.shape, d)
        both = mask[ctr] & mask[nbr]
        a, b = val[ctr], val[nbr]
        lower[ctr] |= both & (b < a)
        lower[nbr] |= both & (a < b)
        eq = both & (a == b)
        rows.append(node[ctr][eq])
        cols.append(node[nbr][eq])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    graph = coo_matrix((np.ones(len(rows), np.int8), (rows, cols)), shape=(n, n))
    _, plateau = csgraph.connected_components(graph, directed=False)
    has_lower = np.zeros(plateau.max() + 1, bool)
    has_lower[plateau[lower[mask]]] = True
    out[mask] = ~has_lower[plateau]
    return out


def regional_minima(val: np.ndarray, mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Boolean set of mask voxels belonging to equal-valued plateaus with no
    strictly lower neighbor inside the mask."""
    offs = neighbor_offsets(connectivity)
    val = np.asarray(val, np.float64)
    mask = np.asarray(mask, bool)
    return _minima_numpy(val, mask, offs)
