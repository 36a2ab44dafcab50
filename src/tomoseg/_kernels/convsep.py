"""Separable 1D correlation along volume axes with mirror borders.

Border policy everywhere is edge-inclusive mirroring (a b c d | d c b a),
which is scipy.ndimage mode="reflect", also when a kernel is longer than the
axis. Feeds the Gaussian blur and the Sobel gradient. Tests compare it with
a per-voxel mirror-fold oracle.
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


def sobel_magnitude_field(field: np.ndarray) -> np.ndarray:
    """Euclidean norm of the three 3D Sobel responses (derivative [-1,0,1],
    smoothing [1,2,1] across the other axes)."""
    field = np.asarray(field, np.float64)
    acc = np.zeros_like(field)
    for axis in range(3):
        weights = [SOBEL_SMOOTH, SOBEL_SMOOTH, SOBEL_SMOOTH]
        weights[axis] = SOBEL_DERIV
        g = correlate_separable(field, weights)
        acc += g * g
    return np.sqrt(acc)
