"""Grayscale reconstruction by erosion and regional minima, both restricted
to a mask (non-mask voxels act as an impassable +inf wall).

Reconstruction has a unique fixpoint, so the two paths (sequential raster
sweeps vs parallel erosion iterations) converge to identical results.
Regional minima are a set, too: the numba twin spreads "not minimal" from
every voxel with a strictly lower neighbor across equal-valued neighbors,
while the numpy path labels the equal-valued plateaus as graph components
and keeps those without such a voxel.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from ..backend import njit, use_numba

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


@njit(cache=True)
def _recon_sweeps_numba(rec, low, offs_fwd, offs_bwd):
    nz, ny, nx = rec.shape
    changed = True
    while changed:
        changed = False
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    cur = rec[z, y, x]
                    if cur >= _WALL:
                        continue
                    m = cur
                    for k in range(offs_fwd.shape[0]):
                        zz = z + offs_fwd[k, 0]
                        yy = y + offs_fwd[k, 1]
                        xx = x + offs_fwd[k, 2]
                        if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                            if rec[zz, yy, xx] < m:
                                m = rec[zz, yy, xx]
                    val = max(low[z, y, x], m)
                    if val != cur:
                        rec[z, y, x] = val
                        changed = True
        for z in range(nz - 1, -1, -1):
            for y in range(ny - 1, -1, -1):
                for x in range(nx - 1, -1, -1):
                    cur = rec[z, y, x]
                    if cur >= _WALL:
                        continue
                    m = cur
                    for k in range(offs_bwd.shape[0]):
                        zz = z + offs_bwd[k, 0]
                        yy = y + offs_bwd[k, 1]
                        xx = x + offs_bwd[k, 2]
                        if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                            if rec[zz, yy, xx] < m:
                                m = rec[zz, yy, xx]
                    val = max(low[z, y, x], m)
                    if val != cur:
                        rec[z, y, x] = val
                        changed = True
    return rec


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
    if use_numba():
        fwd, bwd = _split_scan_offsets(offs)
        return _recon_sweeps_numba(rec, low, fwd, bwd)
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


@njit(cache=True)
def _minima_numba(val, mask, offs):
    nz, ny, nx = val.shape
    nonmin = np.zeros((nz, ny, nx), np.uint8)
    queue = np.empty(nz * ny * nx, np.int64)
    qn = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x]:
                    continue
                for k in range(offs.shape[0]):
                    zz = z + offs[k, 0]
                    yy = y + offs[k, 1]
                    xx = x + offs[k, 2]
                    if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                        if mask[zz, yy, xx] and val[zz, yy, xx] < val[z, y, x]:
                            nonmin[z, y, x] = 1
                            queue[qn] = (z * ny + y) * nx + x
                            qn += 1
                            break
    head = 0
    while head < qn:
        i = queue[head]
        head += 1
        z = i // (ny * nx)
        rem = i % (ny * nx)
        y = rem // nx
        x = rem % nx
        for k in range(offs.shape[0]):
            zz = z + offs[k, 0]
            yy = y + offs[k, 1]
            xx = x + offs[k, 2]
            if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                if mask[zz, yy, xx] and nonmin[zz, yy, xx] == 0 and val[zz, yy, xx] == val[z, y, x]:
                    nonmin[zz, yy, xx] = 1
                    queue[qn] = (zz * ny + yy) * nx + xx
                    qn += 1
    out = np.zeros((nz, ny, nx), np.bool_)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                out[z, y, x] = mask[z, y, x] and nonmin[z, y, x] == 0
    return out


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
    if use_numba():
        return _minima_numba(val, mask, offs)
    return _minima_numpy(val, mask, offs)
