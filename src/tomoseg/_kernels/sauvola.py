"""Local threshold field from windowed mean/std, by z-slabs with running sums.

Windows are cuboids of half-size ``radius``, clipped at the borders, not
mirrored. Their sums of I and I^2 are exact int64 box sums taken one axis
at a time:

- along z, two running sums of (ny, nx) planes: each output plane adds the
  plane that enters its window and subtracts the one that leaves;
- along y, then x, within a slab of output planes: one ``cumsum`` (with a
  zero row in front) and one difference of clipped ends per axis.

The window count is the product of the three clipped lengths. The float
ops (``mean = a1/cnt``, ``var = a2/cnt - mean*mean``,
``std = sqrt(max(var, 0))``, ``t = mean*(1 + k*(std/R - 1))``) run
elementwise on each slab. Integer sums are exact in any order and each
float op sees the same operands, so the field is bitwise the one whole-
volume summed-volume tables give; the tests hold it to those tables and to
a per-voxel window oracle. One slab routine serves both outputs: the
float64 field, and the mask ``img >= t``, which compares each slab as it
comes and so never holds a whole-volume float array.

Working memory is seven slab buffers and one temporary, each of at most
``SLAB_VOXELS`` voxels or one plane, plus four planes. The largest int64
partials are the ``cumsum`` of I^2 sums along one row: at most
ny * (2r+1) * 65535^2 along y and nx * (2r+1)^2 * 65535^2 along x for
16-bit input, 8.4e15 at nx = 2048 and r = 15, far below 2^63.
"""

from __future__ import annotations

import numpy as np

# voxels per slab of output planes (at least one plane): 512 KiB per int64
# or float64 slab buffer, whatever the volume's size
SLAB_VOXELS = 1 << 16


def _clipped_ends(n: int, radius: int):
    """Start and stop (exclusive) of each position's clipped window on an
    axis of length ``n``."""
    i = np.arange(n)
    return np.maximum(i - radius, 0), np.minimum(i + radius + 1, n)


def _box_sum(a: np.ndarray, axis: int, lo: np.ndarray, hi: np.ndarray, prefix: np.ndarray):
    """Replace ``a`` by its clipped box sums along ``axis`` (1 or 2), with
    ``prefix`` a buffer one longer than ``a`` on that axis."""
    head = (slice(None),) * axis
    prefix[head + (slice(0, 1),)] = 0
    np.cumsum(a, axis=axis, out=prefix[head + (slice(1, None),)])
    np.take(prefix, hi, axis=axis, out=a, mode="clip")
    a -= np.take(prefix, lo, axis=axis, mode="clip")


def _threshold_slabs(img: np.ndarray, radius: int, k: float, R: float):
    """Yield ``(z0, z1, t)`` over consecutive slabs of output planes, ``t``
    the threshold m*(1 + k*(s/R - 1)) of planes ``[z0, z1)`` as float64.
    ``t`` is a buffer the next slab overwrites: use it before resuming."""
    nz, ny, nx = img.shape
    k, R = float(k), float(R)
    height = max(1, min(nz, SLAB_VOXELS // max(1, ny * nx)))
    z_lo, z_hi = _clipped_ends(nz, radius)
    y_lo, y_hi = _clipped_ends(ny, radius)
    x_lo, x_hi = _clipped_ends(nx, radius)
    count_yx = ((y_hi - y_lo)[:, None] * (x_hi - x_lo)[None, :]).astype(np.float64)
    count_z = (z_hi - z_lo).astype(np.float64)

    run1 = np.zeros((ny, nx), np.int64)  # sums of I and I^2 over the z window
    run2 = np.zeros((ny, nx), np.int64)
    plane = np.empty((ny, nx), np.int64)
    square = np.empty((ny, nx), np.int64)
    a1 = np.empty((height, ny, nx), np.int64)
    a2 = np.empty((height, ny, nx), np.int64)
    prefix_y = np.empty((height, ny + 1, nx), np.int64)
    prefix_x = np.empty((height, ny, nx + 1), np.int64)
    mean = np.empty((height, ny, nx))
    var = np.empty((height, ny, nx))
    tmp = np.empty((height, ny, nx))

    def shift(z: int, step):
        """``step`` (np.add or np.subtract) plane ``z`` into the running sums."""
        np.copyto(plane, img[z], casting="unsafe")
        np.multiply(plane, plane, out=square)
        step(run1, plane, out=run1)
        step(run2, square, out=run2)

    entered = 0  # planes [0, entered) have entered the running sums
    for z0 in range(0, nz, height):
        z1 = min(z0 + height, nz)
        h = z1 - z0
        s1, s2 = a1[:h], a2[:h]
        for i, z in enumerate(range(z0, z1)):
            while entered < z_hi[z]:
                shift(entered, np.add)
                entered += 1
            if z > radius:  # plane z - radius - 1 leaves the window
                shift(z - radius - 1, np.subtract)
            s1[i] = run1
            s2[i] = run2
        for s in (s1, s2):
            _box_sum(s, 1, y_lo, y_hi, prefix_y[:h])
            _box_sum(s, 2, x_lo, x_hi, prefix_x[:h])

        m, v, t = mean[:h], var[:h], tmp[:h]
        np.multiply(count_z[z0:z1, None, None], count_yx, out=t)  # cnt
        np.divide(s1, t, out=m)  # mean = a1 / cnt
        np.divide(s2, t, out=v)  # var = a2 / cnt - mean * mean
        np.multiply(m, m, out=t)
        v -= t
        np.maximum(v, 0.0, out=v)  # std = sqrt(max(var, 0))
        np.sqrt(v, out=v)
        v /= R  # t = mean * (1 + k * (std / R - 1))
        v -= 1.0
        v *= k
        v += 1.0
        np.multiply(m, v, out=t)
        yield z0, z1, t


def sauvola_threshold_field(img: np.ndarray, radius: int, k: float, R: float) -> np.ndarray:
    """Per-voxel threshold m*(1 + k*(s/R - 1)) over clipped cuboidal windows."""
    field = np.empty(img.shape, np.float64)
    for z0, z1, t in _threshold_slabs(img, radius, k, R):
        field[z0:z1] = t
    return field


def sauvola_mask(img: np.ndarray, radius: int, k: float, R: float) -> np.ndarray:
    """``img >= sauvola_threshold_field(img, ...)``, compared slab by slab
    (in float64, as numpy compares an integer with a float64), so that no
    whole-volume field or float copy of ``img`` is built."""
    mask = np.empty(img.shape, bool)
    for z0, z1, t in _threshold_slabs(img, radius, k, R):
        np.greater_equal(img[z0:z1], t, out=mask[z0:z1])
    return mask
