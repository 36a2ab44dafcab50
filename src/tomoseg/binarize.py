"""Foreground separation: adaptive local thresholds, ball opening, and the
exact Euclidean distance transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from ._kernels.cc import raw_components
from ._kernels.edt import edt as _edt
from ._kernels.rotate import guard_volume
from ._kernels.sauvola import sauvola_mask, sauvola_threshold_field
from .volgrid import BinaryVolume, ScalarVolume


@dataclass(frozen=True)
class SauvolaParams:
    """window_radius: half-size of the cuboidal statistics window (voxels);
    k: threshold sensitivity in [0.2, 0.5]; R: dynamic-range constant
    (32768 for 16-bit input)."""

    window_radius: int = 15
    k: float = 0.34
    R: float = 32768.0

    def __post_init__(self):
        if self.window_radius < 1:
            raise ValueError(f"window_radius must be >= 1, got {self.window_radius}")
        if not 0.2 <= self.k <= 0.5:
            raise ValueError(f"k must lie in [0.2, 0.5], got {self.k}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")


def sauvola_threshold(vol: ScalarVolume, params: SauvolaParams) -> np.ndarray:
    """The per-voxel threshold field t = m * (1 + k*(s/R - 1))."""
    return sauvola_threshold_field(vol.data, params.window_radius, params.k, params.R)


def sauvola_binarize(vol: ScalarVolume, params: SauvolaParams) -> BinaryVolume:
    """Foreground wherever the grayscale meets or exceeds its local threshold
    (``sauvola_threshold``), compared a slab of planes at a time."""
    mask = sauvola_mask(vol.data, params.window_radius, params.k, params.R)
    return BinaryVolume(mask, vol.spacing)


def distance_transform(mask: BinaryVolume) -> np.ndarray:
    """Exact Euclidean distance (voxel units) to the nearest background voxel
    center; 0 on background. A volume with no background at all gets +inf on
    every voxel."""
    return _edt(mask.data)


# Openings up to this radius erode and dilate by the ball footprint, whose
# cost grows with the ball; larger ones threshold two exact distance
# transforms, whose cost does not (at 96^3 the two cost the same near 4).
BALL_FOOTPRINT_MAX_RADIUS = 4.0


def ball_footprint(radius: float) -> np.ndarray:
    """The digital ball {z : sqrt(|z|^2) <= radius} as a (2k+1)^3 mask,
    k = ceil(radius). The test is the float64 ``sqrt`` comparison that the
    distance thresholds make, so both formulations agree at every radius."""
    k = int(np.ceil(radius))
    z, y, x = np.ogrid[-k : k + 1, -k : k + 1, -k : k + 1]
    return np.sqrt((z * z + y * y + x * x).astype(np.float64)) <= radius


def _ball_erode(mask: np.ndarray, radius: float) -> np.ndarray:
    # Outside the volume counts as background: guard before measuring distance.
    pad = int(np.ceil(radius))
    dist = _edt(guard_volume(mask, pad))
    return dist[tuple(slice(pad, pad + n) for n in mask.shape)] > radius


def _ball_dilate(mask: np.ndarray, radius: float) -> np.ndarray:
    if not mask.any():
        return mask.copy()
    dist = _edt(~mask)
    return ~(dist > radius)


def morphological_opening(mask: BinaryVolume, radius: float = 1.0) -> BinaryVolume:
    """Erosion then dilation with the digital ball {z : |z|_2 <= radius}, the
    Minkowski definition with everything outside the volume background: a
    voxel survives erosion iff no background voxel (or volume boundary) lies
    within ``radius``.

    Up to BALL_FOOTPRINT_MAX_RADIUS this is a binary erosion and dilation
    by ``ball_footprint(radius)`` with a background border; above it, a
    threshold of exact distance transforms. Both give the same mask.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if radius <= BALL_FOOTPRINT_MAX_RADIUS:
        ball = ball_footprint(radius)
        eroded = ndimage.binary_erosion(mask.data, ball, border_value=0)
        opened = ndimage.binary_dilation(eroded, ball, border_value=0)
    else:
        opened = _ball_dilate(_ball_erode(mask.data, radius), radius)
    return BinaryVolume(opened, mask.spacing)


def remove_small_components(mask: BinaryVolume, min_size: int) -> BinaryVolume:
    """Drop 26-connected foreground components smaller than ``min_size`` voxels.

    Local thresholding turns windows of pure background noise into speckle
    that the opening shrinks to small surviving specks; this removes them
    without touching real particles. A ``min_size`` of 0 or 1 keeps every
    component and returns ``mask`` itself; a negative one raises ValueError.
    """
    if min_size < 0:
        raise ValueError(f"min_size must be at least 0, got {min_size}")
    if min_size <= 1:
        return mask
    # the sizes do not depend on how the components are numbered, so
    # scipy's labels serve, counted over the foreground only
    labels, n = raw_components(mask.data, 26)
    counts = np.bincount(labels[mask.data], minlength=n + 1)
    keep = counts >= min_size
    keep[0] = False
    return BinaryVolume(keep[labels], mask.spacing)
