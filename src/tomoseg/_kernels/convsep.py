"""Separable 1D correlation along volume axes with mirror borders.

Border policy everywhere is edge-inclusive mirroring (a b c d | d c b a),
which is scipy.ndimage mode="reflect", also when a kernel is longer than the
axis. Feeds the Gaussian blur; the Sobel gradient magnitude is evaluated at
given voxels only, with the same border. Tests compare the correlation with
a per-voxel mirror-fold oracle, and the Sobel magnitude with one
whole-volume pass.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .recon import GuardedWalk


def correlate_separable(vol: np.ndarray, weights_per_axis) -> np.ndarray:
    """Correlate with one 1D kernel per axis (z, y, x order); None skips an axis."""
    out = np.asarray(vol, np.float64)
    for axis, w in enumerate(weights_per_axis):
        if w is not None:
            out = ndimage.correlate1d(out, np.asarray(w, np.float64), axis=axis, mode="reflect")
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at +-ceil(3*sigma), renormalized to sum 1."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rad = int(np.ceil(3.0 * sigma))
    x = np.arange(-rad, rad + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


SOBEL_DERIV = np.array([-1.0, 0.0, 1.0])
SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])

# voxels per chunk of the point-wise Sobel
SOBEL_POINTS = 1 << 10


def _sobel_weights(axis: int):
    weights = [SOBEL_SMOOTH, SOBEL_SMOOTH, SOBEL_SMOOTH]
    weights[axis] = SOBEL_DERIV
    return weights


# (27, 3): the integer weights of the z, y and x responses on the 3x3x3
# neighbours in raster order
_SOBEL_TAPS = np.stack([np.einsum("i,j,k->ijk", *_sobel_weights(axis)).ravel()
                        for axis in range(3)], axis=1)


def sobel_magnitude_at(vol: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The Euclidean norm of the three 3D Sobel responses (derivative
    [-1,0,1], smoothing [1,2,1] across the other axes) of an integer volume
    (uint16), at the flat voxel indices ``index`` only.

    The neighbours are read from a copy of the volume padded by one voxel
    that repeats the edge voxel, which is scipy's reflect border for a
    radius-1 kernel. With integer voxels and weights, each response and the
    sum of their squares are integers below 2^53 (at most 32 * 65535 per
    response for uint16), so this product of the 27 neighbours with the
    weights and whole-volume separable passes both compute them exactly;
    only the sqrt rounds, and the values are bitwise those passes'."""
    vol = np.asarray(vol)
    walk = GuardedWalk(vol.shape, np.argwhere(np.ones((3, 3, 3), bool)) - 1)
    padded = np.pad(vol, walk.reach, mode="edge").ravel()
    out = np.empty(len(index))
    for a in range(0, len(index), SOBEL_POINTS):
        coords = np.column_stack(np.unravel_index(index[a : a + SOBEL_POINTS], vol.shape))
        g = padded[walk.index(coords)[:, None] + walk.steps].astype(np.float64) @ _SOBEL_TAPS
        np.sqrt((g * g).sum(axis=1), out=out[a : a + len(coords)])
    return out
