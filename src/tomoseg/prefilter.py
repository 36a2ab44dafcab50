"""Denoising and edge enhancement applied before binarization.

Two steps: non-local means (patch-similarity weighted averaging over a
restricted search window) followed by an unsharp mask that sharpens material
interfaces. Both operate on the 16-bit grayscale volume and return rounded,
clamped 16-bit volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels.convsep import correlate_separable, gaussian_kernel
from ._kernels.nlm import nlm_field
from .volgrid import ScalarVolume


@dataclass(frozen=True)
class NlmParams:
    """h: filtering strength (grayscale units); sigma: patch Gaussian std
    (voxels); patch_radius / search_radius: half-sizes of the local patch
    and of the restricted search window."""

    h: float
    sigma: float = 1.0
    patch_radius: int = 1
    search_radius: int = 5

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.patch_radius < 1:
            raise ValueError(f"patch_radius must be >= 1, got {self.patch_radius}")
        if self.search_radius < self.patch_radius:
            raise ValueError("search_radius must be >= patch_radius")


@dataclass(frozen=True)
class UnsharpParams:
    """c: weighting constant in (0.5, 1]; blur_sigma: std of the smoothing
    kernel producing the low-pass image."""

    c: float = 0.75
    blur_sigma: float = 2.0

    def __post_init__(self):
        if not 0.5 < self.c <= 1.0:
            raise ValueError(f"c must lie in (0.5, 1], got {self.c}")
        if not self.blur_sigma > 0:
            raise ValueError(f"blur_sigma must be positive, got {self.blur_sigma}")


def _to_u16(field: np.ndarray) -> np.ndarray:
    """``field`` rounded half up and clamped to uint16. It rounds in place:
    callers pass a float64 temporary of their own, never an input array."""
    field += 0.5
    np.floor(field, out=field)
    np.clip(field, 0, 65535, out=field)
    return field.astype(np.uint16)


def estimate_noise_std(vol: ScalarVolume) -> float:
    """Noise level estimate: std of the 6-neighbor Laplacian response divided
    by sqrt(42) (the Laplacian of iid noise has 42x the variance).

    The Laplacian is summed into one float64 volume from uint16 rolls: its
    terms and sums are integers below 2^53, exact in any order."""
    f = vol.data
    lap = np.multiply(f, -6.0)
    for axis in range(3):
        for shift in (1, -1):
            lap += np.roll(f, shift, axis=axis)
    # rolled borders wrap; drop the one-voxel shell
    core = lap[1:-1, 1:-1, 1:-1] if min(f.shape) > 2 else lap
    return float(core.std() / np.sqrt(42.0))


def default_nlm_params(vol: ScalarVolume) -> NlmParams:
    h = 0.6 * estimate_noise_std(vol)
    return NlmParams(h=max(h, 1.0))


def nonlocal_means(vol: ScalarVolume, params: NlmParams) -> ScalarVolume:
    """Weighted patch average per voxel; weights are normalized over the
    search window, patch offsets reaching outside the volume are dropped."""
    out = nlm_field(vol.data, params.h, params.patch_radius, params.sigma, params.search_radius)
    return ScalarVolume(_to_u16(out), vol.spacing)


def gaussian_blur(vol: ScalarVolume, sigma: float) -> ScalarVolume:
    """Separable Gaussian smoothing, kernel truncated at +-ceil(3*sigma) and
    renormalized, mirror borders."""
    k = gaussian_kernel(sigma)
    return ScalarVolume(_to_u16(correlate_separable(vol.data, (k, k, k))), vol.spacing)


def unsharp_mask(vol: ScalarVolume, params: UnsharpParams) -> ScalarVolume:
    """Weighted difference (c*I - (1-c)*I_L) / (2c-1) with I_L the
    Gaussian-blurred volume; the coefficients sum to one, so constants pass
    through, and c = 1 is the exact identity. The ops run in place on one
    float64 volume, in the formula's order.
    """
    low = gaussian_blur(vol, params.blur_sigma).data
    c = params.c
    out = np.multiply(vol.data, c)
    out -= np.multiply(low, 1.0 - c)
    out /= 2.0 * c - 1.0
    return ScalarVolume(_to_u16(out), vol.spacing)
