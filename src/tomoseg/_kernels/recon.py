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

from .rotate import guard_volume

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


def forward_offsets(connectivity: int) -> np.ndarray:
    """The neighbor offsets after the center: each neighbor pair once."""
    offs = neighbor_offsets(connectivity)
    return offs[offs @ np.array([9, 3, 1]) > 0]


class GuardedWalk:
    """The one rule for stepping to a neighbor. In a guarded copy of a volume
    (zero voxels on every side, as deep as ``offsets`` reach) each offset is
    one flat index step, ``steps``, so no walk checks bounds. A neighbor the
    copy shows inside is ``volume_steps`` away in the volume itself."""

    def __init__(self, shape, offsets: np.ndarray):
        self.reach = r = int(np.abs(offsets).max(initial=0))
        self.shape = tuple(n + 2 * r for n in shape)
        self.inner = tuple(slice(r, r + n) for n in shape)
        self.strides = np.array([self.shape[1] * self.shape[2], self.shape[2], 1], np.int64)
        self.steps = offsets @ self.strides
        self.volume_steps = offsets @ np.array([shape[1] * shape[2], shape[2], 1], np.int64)

    def copy(self, vol: np.ndarray) -> np.ndarray:
        """The guarded copy of ``vol``, flattened."""
        return guard_volume(vol, self.reach).ravel()

    def index(self, coords: np.ndarray) -> np.ndarray:
        """Flat indices into the guarded copy of voxels at (z, y, x) rows."""
        return (coords + self.reach) @ self.strides

    def pairs(self, member: np.ndarray):
        """Per offset, flat volume indices a, b of ``member`` voxels, b at it from a."""
        inside = self.copy(member)
        fg, gfg = np.flatnonzero(member), np.flatnonzero(inside)
        for step, volume_step in zip(self.steps, self.volume_steps):
            a = fg[inside[gfg + step]]
            yield a, a + volume_step


def reconstruct_erosion(marker: np.ndarray, lower: np.ndarray, mask: np.ndarray, connectivity: int):
    """Largest image <= marker that is >= lower and has no descending path
    finer than the neighborhood allows (morphological reconstruction by
    erosion of ``marker`` above ``lower``), computed inside ``mask``.

    Two float64 buffers swap roles each round: the erosion of one is written
    into the other, raised to ``lower`` and walled outside the mask. The
    wall overwrites whatever ``lower`` holds there, so ``lower`` is read in
    place."""
    rec = np.where(mask, marker, _WALL).astype(np.float64, copy=False)
    nxt = np.empty_like(rec)
    outside = ~np.asarray(mask, bool)
    footprint = neighbor_structure(connectivity)
    while True:
        ndimage.grey_erosion(rec, footprint=footprint, output=nxt, mode="constant", cval=_WALL)
        np.maximum(lower, nxt, out=nxt)
        nxt[outside] = _WALL
        if np.array_equal(nxt, rec):
            return nxt
        rec, nxt = nxt, rec


def regional_minima(val: np.ndarray, mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Boolean set of mask voxels belonging to equal-valued plateaus with no
    strictly lower neighbor inside the mask.

    Let C be the mask voxels with no strictly lower mask neighbor. Two
    adjacent voxels of C are equal, since the higher would have a lower
    neighbor, so each component of C lies in one plateau. It is the whole
    plateau, which is then minimal, unless one of its voxels has an
    equal-valued mask neighbor outside C. Each unordered neighbor pair is
    visited once, through the offsets after the center."""
    mask = np.asarray(mask, bool)
    flat = np.asarray(val, np.float64).ravel()
    walk = GuardedWalk(mask.shape, forward_offsets(connectivity))
    lower = np.zeros(flat.size, bool)
    for a, b in walk.pairs(mask):
        va, vb = flat[a], flat[b]
        lower[a[vb < va]] = True
        lower[b[va < vb]] = True
    cand = mask.ravel() & ~lower
    leaks = np.zeros(flat.size, bool)
    for a, b in walk.pairs(mask):
        # equal pairs with one voxel in C mark that voxel
        ca, cb = cand[a], cand[b]
        eq = (ca != cb) & (flat[a] == flat[b])
        leaks[a[eq & ca]] = True
        leaks[b[eq & cb]] = True
    cand = cand.reshape(mask.shape)
    plateau, n = ndimage.label(cand, neighbor_structure(connectivity))
    minimal = np.ones(n + 1, bool)
    minimal[plateau.ravel()[leaks]] = False
    return cand & minimal[plateau]
