"""Separable 1D correlation along volume axes with mirror borders.

Border policy everywhere is edge-inclusive mirroring (a b c d | d c b a),
which is scipy.ndimage mode="reflect", also when a kernel is longer than the
axis. Feeds the Gaussian blur and the Sobel gradient, whose magnitude is
also evaluated at given voxels only, with the same border. Tests compare
it with a per-voxel mirror-fold oracle, and both Sobel forms with one
whole-volume pass.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage


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


def gaussian_blur_field(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of a float field, mirror borders."""
    k = gaussian_kernel(sigma)
    return correlate_separable(field, (k, k, k))


SOBEL_DERIV = np.array([-1.0, 0.0, 1.0])
SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])

# voxels per z-slab of the Sobel field (at least one plane), halo planes
# aside: 2 MiB per float64 slab buffer
SOBEL_SLAB_VOXELS = 1 << 18
# voxels per chunk of the point-wise Sobel
SOBEL_POINTS = 1 << 10


def _sobel_weights(axis: int):
    weights = [SOBEL_SMOOTH, SOBEL_SMOOTH, SOBEL_SMOOTH]
    weights[axis] = SOBEL_DERIV
    return weights


def sobel_magnitude_field(field: np.ndarray) -> np.ndarray:
    """Euclidean norm of the three 3D Sobel responses (derivative [-1,0,1],
    smoothing [1,2,1] across the other axes).

    Computed by z-slabs of ``SOBEL_SLAB_VOXELS``: the z pass of a slab reads
    one halo plane on each side and reflects only at the volume's own
    border, and the y and x passes run on the slab's own planes. Each plane
    sees the same correlate1d arithmetic as in one whole-volume pass, so the
    field is bitwise that pass's, for any input."""
    field = np.asarray(field)
    nz, ny, nx = field.shape
    out = np.empty(field.shape)
    step = max(1, SOBEL_SLAB_VOXELS // max(1, ny * nx))
    for z0 in range(0, nz, step):
        z1 = min(nz, z0 + step)
        lo, hi = max(0, z0 - 1), min(nz, z1 + 1)
        slab = field[lo:hi].astype(np.float64)
        acc = out[z0:z1]
        for axis in range(3):
            wz, wy, wx = _sobel_weights(axis)
            g = ndimage.correlate1d(slab, wz, axis=0, mode="reflect")[z0 - lo : z1 - lo]
            g = correlate_separable(g, (None, wy, wx))
            np.multiply(g, g, out=acc if axis == 0 else g)
            if axis:
                acc += g
        np.sqrt(acc, out=acc)
    return out


# (27, 3): the integer weights of the z, y and x responses on the 3x3x3
# neighbours in raster order
_SOBEL_TAPS = np.stack([np.einsum("i,j,k->ijk", *_sobel_weights(axis)).ravel()
                        for axis in range(3)], axis=1)


def sobel_magnitude_at(vol: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``sobel_magnitude_field(vol)`` at the flat voxel indices ``index``
    only, for an integer volume (uint16).

    The neighbours are read from a copy of the volume padded by one voxel
    that repeats the edge voxel, which is scipy's reflect border for a
    radius-1 kernel. With integer voxels and weights, each response and the
    sum of their squares are integers below 2^53 (at most 32 * 65535 per
    response for uint16), so this product of the 27 neighbours with the
    weights and the field's separable passes both compute them exactly;
    only the sqrt rounds, and the values are bitwise the field's."""
    vol = np.asarray(vol)
    padded = np.pad(vol, 1, mode="edge").ravel()
    strides = np.array([(vol.shape[1] + 2) * (vol.shape[2] + 2), vol.shape[2] + 2, 1])
    steps = (np.argwhere(np.ones((3, 3, 3), bool)) - 1) @ strides
    out = np.empty(len(index))
    for a in range(0, len(index), SOBEL_POINTS):
        coords = np.column_stack(np.unravel_index(index[a : a + SOBEL_POINTS], vol.shape))
        g = padded[((coords + 1) @ strides)[:, None] + steps].astype(np.float64) @ _SOBEL_TAPS
        np.sqrt((g * g).sum(axis=1), out=out[a : a + len(coords)])
    return out
