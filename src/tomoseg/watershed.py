"""Marker-based watershed segmentation of the binary foreground.

Markers are the connected components of the depth-h minima of the inverted
distance transform; flooding assigns every foreground voxel to exactly one
marker, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels.cc import connected_components_mask
from ._kernels.flood import priority_flood
from ._kernels.recon import neighbor_offsets, reconstruct_erosion, regional_minima
from .binarize import distance_transform
from .volgrid import BinaryVolume, LabelVolume


@dataclass(frozen=True)
class WatershedParams:
    """h_depth: suppression depth for shallow minima (distance units);
    connectivity: 6 or 26 voxel adjacency."""

    h_depth: float = 2.0
    connectivity: int = 26

    def __post_init__(self):
        if self.h_depth < 0:
            raise ValueError(f"h_depth must be >= 0, got {self.h_depth}")
        if self.connectivity not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity}")


def extended_minima_markers(
    inv_dist: np.ndarray, mask: BinaryVolume, params: WatershedParams
) -> LabelVolume:
    """One marker per group of regional minima whose basins connect without
    climbing more than h_depth above the minimum.

    Computed as the regional minima of the reconstruction-by-erosion of
    (inv_dist + h_depth) above inv_dist, then component-labeled.
    """
    m = mask.data
    if not m.any():
        return LabelVolume(np.zeros(m.shape, np.int32), mask.spacing)
    inv = np.asarray(inv_dist, np.float64)
    if not np.isfinite(inv[m]).all():
        raise ValueError("inverted distance must be finite on the mask")
    rec = reconstruct_erosion(inv + params.h_depth, inv, m, params.connectivity)
    minima = regional_minima(rec, m, params.connectivity)
    return LabelVolume(connected_components_mask(minima, params.connectivity), mask.spacing)


def marker_watershed(
    inv_dist: np.ndarray,
    markers: LabelVolume,
    mask: BinaryVolume,
    connectivity: int = 26,
) -> LabelVolume:
    """Flood every foreground voxel from the markers in increasing inv_dist
    order. Equal heights resolve by queue insertion order (breadth-first
    fronts, seeded in raster order with (label, voxel) fixed), so equal
    inputs give bit-identical labelings on every run and thread count.
    inv_dist must be finite on the mask.
    """
    mk = markers.data
    m = mask.data
    if ((mk > 0) & ~m).any():
        raise ValueError("marker voxels must lie inside the mask")
    inv = np.asarray(inv_dist, np.float64)
    if not np.isfinite(inv[m]).all():
        raise ValueError("inverted distance must be finite on the mask")
    offs = neighbor_offsets(connectivity)
    out = priority_flood(inv, mk, m, offs)
    return LabelVolume(out, mask.spacing)


def watershed_segment(mask: BinaryVolume, params: WatershedParams) -> LabelVolume:
    """Full chain: distance transform, marker extraction, flooding. A mask
    with no background voxel is one region: its distance is +inf everywhere,
    a single plateau."""
    m = mask.data
    if m.all():
        return LabelVolume(np.ones(m.shape, np.int32), mask.spacing)
    # the inverted distance, negated in place on the mask (0 on background)
    inv = distance_transform(mask)
    np.negative(inv, out=inv, where=m)
    markers = extended_minima_markers(inv, mask, params)
    return marker_watershed(inv, markers, mask, params.connectivity)
