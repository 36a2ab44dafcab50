"""Local threshold field from windowed mean/std via integral volumes.

Window statistics use exact int64 summed-volume tables (sums of u16 values
and their squares stay below 2^63 for any realistic volume). Windows are
clipped at the borders, not mirrored. Tests compare the field with a
per-voxel window mean/std oracle.
"""

from __future__ import annotations

import numpy as np


def _integral_tables(img: np.ndarray):
    i64 = img.astype(np.int64)
    s1 = np.zeros(tuple(n + 1 for n in img.shape), np.int64)
    s2 = np.zeros_like(s1)
    s1[1:, 1:, 1:] = i64.cumsum(0).cumsum(1).cumsum(2)
    s2[1:, 1:, 1:] = (i64 * i64).cumsum(0).cumsum(1).cumsum(2)
    return s1, s2


def _window_sums(table: np.ndarray, shape, radius: int):
    nz, ny, nx = shape
    z = np.arange(nz)
    y = np.arange(ny)
    x = np.arange(nx)
    z0 = np.clip(z - radius, 0, nz - 1)
    z1 = np.clip(z + radius, 0, nz - 1) + 1
    y0 = np.clip(y - radius, 0, ny - 1)
    y1 = np.clip(y + radius, 0, ny - 1) + 1
    x0 = np.clip(x - radius, 0, nx - 1)
    x1 = np.clip(x + radius, 0, nx - 1) + 1
    Z0, Y0, X0 = np.ix_(z0, y0, x0)
    Z1, Y1, X1 = np.ix_(z1, y1, x1)
    s = (
        table[Z1, Y1, X1]
        - table[Z0, Y1, X1]
        - table[Z1, Y0, X1]
        - table[Z1, Y1, X0]
        + table[Z0, Y0, X1]
        + table[Z0, Y1, X0]
        + table[Z1, Y0, X0]
        - table[Z0, Y0, X0]
    )
    cnt = (Z1 - Z0) * (Y1 - Y0) * (X1 - X0)
    return s, cnt


def sauvola_threshold_field(img: np.ndarray, radius: int, k: float, R: float) -> np.ndarray:
    """Per-voxel threshold m*(1 + k*(s/R - 1)) over clipped cuboidal windows."""
    s1, s2 = _integral_tables(img)
    a1, cnt = _window_sums(s1, img.shape, radius)
    a2, _ = _window_sums(s2, img.shape, radius)
    mean = a1 / cnt
    var = a2 / cnt - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return mean * (1.0 + float(k) * (std / float(R) - 1.0))
