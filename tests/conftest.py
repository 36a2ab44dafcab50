import numpy as np
import pytest

from tomoseg.volgrid import BinaryVolume, LabelVolume, ScalarVolume


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def scalar(arr, spacing=1.0):
    return ScalarVolume(np.asarray(arr, np.uint16), spacing)


def binary(arr, spacing=1.0):
    return BinaryVolume(np.asarray(arr, bool), spacing)


def labels(arr, spacing=1.0):
    return LabelVolume(np.asarray(arr, np.int32), spacing)


def ball_mask(shape, center, radius):
    """Digital ball {|x - c| <= r} as a boolean volume (z, y, x)."""
    nz, ny, nx = shape
    zz, yy, xx = np.mgrid[0:nz, 0:ny, 0:nx]
    cz, cy, cx = center
    return (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius


def mirror(i, n):
    """Fold index ``i`` into 0..n-1 by edge-inclusive mirroring (a b c | c b a),
    as often as it takes."""
    while i < 0 or i >= n:
        i = -i - 1 if i < 0 else 2 * n - 1 - i
    return i


def correlate_axis_oracle(f, weights, axis):
    """Per-voxel 1D correlation along one axis, mirror borders."""
    rad = len(weights) // 2
    out = np.zeros(f.shape)
    for idx in np.ndindex(f.shape):
        acc = 0.0
        for k, w in enumerate(weights):
            src = list(idx)
            src[axis] = mirror(idx[axis] + k - rad, f.shape[axis])
            acc += w * f[tuple(src)]
        out[idx] = acc
    return out
