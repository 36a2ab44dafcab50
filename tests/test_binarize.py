import math
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from tomoseg._kernels import sauvola
from tomoseg.binarize import (
    BALL_FOOTPRINT_MAX_RADIUS,
    SauvolaParams,
    ball_footprint,
    distance_transform,
    morphological_opening,
    remove_small_components,
    sauvola_binarize,
    sauvola_threshold,
)

from conftest import THIN_SHAPES, ball_mask, binary, scalar, traced_peak


def sauvola_oracle(img, radius, k, R):
    nz, ny, nx = img.shape
    t = np.zeros(img.shape)
    f = img.astype(float)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                win = f[
                    max(0, z - radius) : z + radius + 1,
                    max(0, y - radius) : y + radius + 1,
                    max(0, x - radius) : x + radius + 1,
                ]
                m = win.mean()
                s = win.std()
                t[z, y, x] = m * (1.0 + k * (s / R - 1.0))
    return t


def sauvola_table_oracle(img, radius, k, R):
    """The whole-volume formulation: two (n+1)^3 int64 summed-volume tables
    of I and I^2, eight corner gathers per table, then the same float ops."""
    i64 = img.astype(np.int64)
    shape = img.shape
    s1 = np.zeros(tuple(n + 1 for n in shape), np.int64)
    s2 = np.zeros_like(s1)
    s1[1:, 1:, 1:] = i64.cumsum(0).cumsum(1).cumsum(2)
    s2[1:, 1:, 1:] = (i64 * i64).cumsum(0).cumsum(1).cumsum(2)
    lo, hi = [], []
    for n in shape:
        i = np.arange(n)
        lo.append(np.clip(i - radius, 0, n - 1))
        hi.append(np.clip(i + radius, 0, n - 1) + 1)
    Z0, Y0, X0 = np.ix_(*lo)
    Z1, Y1, X1 = np.ix_(*hi)

    def window_sums(table):
        return (
            table[Z1, Y1, X1] - table[Z0, Y1, X1] - table[Z1, Y0, X1] - table[Z1, Y1, X0]
            + table[Z0, Y0, X1] + table[Z0, Y1, X0] + table[Z1, Y0, X0] - table[Z0, Y0, X0]
        )

    cnt = (Z1 - Z0) * (Y1 - Y0) * (X1 - X0)
    mean = window_sums(s1) / cnt
    var = window_sums(s2) / cnt - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return mean * (1.0 + float(k) * (std / float(R) - 1.0))


def assert_sauvola_bitwise(data, radius, k=0.34):
    vol = scalar(data)
    p = SauvolaParams(window_radius=radius, k=k)
    want = sauvola_table_oracle(data, radius, k, p.R)
    t = sauvola_threshold(vol, p)
    assert t.dtype == np.float64 and t.shape == data.shape
    np.testing.assert_array_equal(t.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(sauvola_binarize(vol, p).data, data.astype(np.float64) >= want)


def edt_oracle(mask):
    fg = np.argwhere(mask)
    bg = np.argwhere(~mask)
    out = np.zeros(mask.shape)
    if len(bg) == 0:
        out[:] = np.inf
        return out
    for z, y, x in fg:
        d2 = ((bg - (z, y, x)) ** 2).sum(axis=1)
        out[z, y, x] = np.sqrt(d2.min())
    return out


def minkowski_open_oracle(mask, radius):
    offs = [
        (a, b, c)
        for a in range(-int(radius), int(radius) + 1)
        for b in range(-int(radius), int(radius) + 1)
        for c in range(-int(radius), int(radius) + 1)
        if a * a + b * b + c * c <= radius * radius
    ]
    nz, ny, nx = mask.shape

    def get(z, y, x):
        if 0 <= z < nz and 0 <= y < ny and 0 <= x < nx:
            return mask[z, y, x]
        return False

    eroded = np.zeros_like(mask)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                eroded[z, y, x] = all(get(z + a, y + b, x + c) for a, b, c in offs)
    dilated = np.zeros_like(mask)
    for z, y, x in np.argwhere(eroded):
        for a, b, c in offs:
            if 0 <= z + a < nz and 0 <= y + b < ny and 0 <= x + c < nx:
                dilated[z + a, y + b, x + c] = True
    return dilated


def test_sauvola_uniform_analytic():
    vol = scalar(np.full((6, 6, 6), 10000))
    p = SauvolaParams(window_radius=2, k=0.3)
    t = sauvola_threshold(vol, p)
    np.testing.assert_allclose(t, 7000.0)
    assert sauvola_binarize(vol, p).data.all()


def test_sauvola_equality_is_foreground():
    # all-zero volume: t = 0 everywhere and I(x) = t(x) exactly; the >= rule
    # makes everything foreground
    vol = scalar(np.zeros((4, 4, 4)))
    out = sauvola_binarize(vol, SauvolaParams(window_radius=1, k=0.4))
    assert out.data.all()


def test_sauvola_matches_oracle(rng):
    for _ in range(3):
        data = rng.integers(0, 65536, (7, 7, 7)).astype(np.uint16)
        vol = scalar(data)
        p = SauvolaParams(window_radius=2, k=0.34)
        t = sauvola_threshold(vol, p)
        expect = sauvola_oracle(data, 2, 0.34, 32768.0)
        np.testing.assert_allclose(t, expect, rtol=1e-9)
        np.testing.assert_array_equal(
            sauvola_binarize(vol, p).data, data.astype(float) >= expect
        )


@pytest.mark.parametrize("shape, radius", [
    ((20, 21, 22), 3),
    ((4, 30, 31), 3),  # one dim below 2r+1 on each axis in turn
    ((30, 4, 31), 3),
    ((30, 31, 4), 3),
    ((7, 40, 33), 15),
    ((3, 4, 5), 5),  # r at or above every dim
    ((2, 2, 2), 9),
    ((1, 17, 19), 2),  # one voxel thick on each axis in turn
    ((17, 1, 19), 2),
    ((17, 19, 1), 2),
    ((1, 1, 1), 1),
    ((5, 5, 5), 1),
])
def test_sauvola_matches_summed_volume_tables_bitwise(rng, shape, radius):
    assert_sauvola_bitwise(rng.integers(0, 65536, shape).astype(np.uint16), radius)


@pytest.mark.parametrize("height", [1, 2, 3, 4, 50])
def test_sauvola_bitwise_for_every_slab_height(rng, monkeypatch, height):
    # 23 planes: no height above 1 divides it, so the last slab is short
    data = rng.integers(0, 65536, (23, 12, 14)).astype(np.uint16)
    monkeypatch.setattr(sauvola, "SLAB_VOXELS", height * 12 * 14)
    assert_sauvola_bitwise(data, 3)
    assert_sauvola_bitwise(data, 30)


def test_sauvola_bitwise_full_scale_and_at_96_cubed(rng):
    # every sum at its largest: all-65535 windows
    assert_sauvola_bitwise(np.full((33, 35, 37), 65535, np.uint16), 15)
    data = rng.integers(0, 65536, (96, 96, 96)).astype(np.uint16)
    assert_sauvola_bitwise(data, 15)


def test_sauvola_memory_per_voxel(rng):
    # a slab at a time: the binarization keeps the bool mask plus a few
    # slab buffers, the threshold adds its float64 field (the summed-volume
    # tables peaked at 80 bytes per voxel)
    data = rng.integers(0, 65536, (96, 96, 96)).astype(np.uint16)
    vol = scalar(data)
    p = SauvolaParams(window_radius=15)
    for fn, limit in ((sauvola_binarize, 16), (sauvola_threshold, 24)):
        tracemalloc.start()
        try:
            fn(vol, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / data.size <= limit, (fn.__name__, peak / data.size)


def test_sauvola_monotone_in_k(rng):
    # with m >= 0 and s <= R the threshold m*(1 + k*(s/R - 1)) is
    # non-increasing in k, so the >= t foreground can only grow
    data = rng.integers(0, 65536, (8, 8, 8)).astype(np.uint16)
    vol = scalar(data)
    prev = None
    for k in (0.2, 0.3, 0.4, 0.5):
        fg = sauvola_binarize(vol, SauvolaParams(window_radius=2, k=k)).data
        if prev is not None:
            assert (fg >= prev).all()
        prev = fg


def test_sauvola_param_validation():
    with pytest.raises(ValueError):
        SauvolaParams(window_radius=0)
    with pytest.raises(ValueError):
        SauvolaParams(k=0.1)


def test_opening_removes_single_voxel():
    m = np.zeros((7, 7, 7), bool)
    m[3, 3, 3] = True
    out = morphological_opening(binary(m), 1.0)
    assert not out.data.any()


def test_opening_preserves_ball():
    # radius-5 digital ball survives a radius-1 opening verbatim (radius 6
    # loses its 24 lattice corners under the exact Minkowski definition,
    # checked against the oracle in test_opening_matches_minkowski_oracle)
    m = ball_mask((15, 15, 15), (7, 7, 7), 5)
    out = morphological_opening(binary(m), 1.0)
    np.testing.assert_array_equal(out.data, m)


def test_opening_ball6_matches_oracle():
    m = ball_mask((17, 17, 17), (8, 8, 8), 6)
    out = morphological_opening(binary(m), 1.0)
    np.testing.assert_array_equal(out.data, minkowski_open_oracle(m, 1.0))


def test_opening_matches_minkowski_oracle(rng):
    for _ in range(3):
        m = rng.random((7, 7, 7)) > 0.45
        out = morphological_opening(binary(m), 1.0)
        np.testing.assert_array_equal(out.data, minkowski_open_oracle(m, 1.0))


def test_opening_properties(rng):
    for _ in range(10):
        m = rng.random((9, 9, 9)) > 0.4
        opened = morphological_opening(binary(m), 1.0)
        assert (opened.data <= m).all()  # anti-extensive
        twice = morphological_opening(opened, 1.0)
        np.testing.assert_array_equal(twice.data, opened.data)  # idempotent


def test_opening_increasing(rng):
    small = rng.random((8, 8, 8)) > 0.5
    big = small | (rng.random((8, 8, 8)) > 0.7)
    a = morphological_opening(binary(small), 1.0).data
    b = morphological_opening(binary(big), 1.0).data
    assert (a <= b).all()


def edt_opening_oracle(mask, radius):
    """The opening through exact distance thresholds: a voxel survives
    erosion iff its distance to the nearest background voxel, outside the
    volume included, exceeds ``radius``, and is in the opening iff an eroded
    voxel lies within ``radius``."""
    pad = int(np.ceil(radius))
    dist = ndimage.distance_transform_edt(np.pad(mask, pad))
    eroded = dist[pad:-pad, pad:-pad, pad:-pad] > radius
    if not eroded.any():
        return eroded
    return ndimage.distance_transform_edt(~eroded) <= radius


OPENING_RADII = (1.0, math.sqrt(2.0), 1.5, math.sqrt(3.0), 2.0, 2.5, 3.0,
                 BALL_FOOTPRINT_MAX_RADIUS, np.nextafter(BALL_FOOTPRINT_MAX_RADIUS, 5.0), 4.5)


def _opening_masks(rng, shape=(13, 14, 15)):
    smooth = ndimage.gaussian_filter(rng.random(shape), 1.0)
    blobs = smooth > np.quantile(smooth, 0.45)
    # foreground on every face, with a random interior
    faces = rng.random(shape) > 0.3
    faces[[0, -1], :, :] = faces[:, [0, -1], :] = faces[:, :, [0, -1]] = True
    # one slab per face, reaching the face, with room to survive a radius-3 ball
    slabs = np.zeros(shape, bool)
    for axis in range(3):
        for side in (slice(0, 7), slice(-7, None)):
            idx = [slice(3, -3)] * 3
            idx[axis] = side
            slabs[tuple(idx)] = True
    return {"blobs": blobs, "faces": faces, "slabs": slabs,
            "empty": np.zeros(shape, bool), "full": np.ones(shape, bool)}


@pytest.mark.parametrize("radius", OPENING_RADII)
def test_opening_matches_distance_threshold_oracle(rng, radius):
    for name, m in _opening_masks(rng).items():
        out = morphological_opening(binary(m), radius).data
        np.testing.assert_array_equal(out, edt_opening_oracle(m, radius), err_msg=name)
        if name == "slabs" and radius <= 3:
            assert out.any() and (out[0].any() and out[-1].any() and out[:, 0].any()
                                  and out[:, -1].any() and out[:, :, 0].any()
                                  and out[:, :, -1].any())


def test_ball_footprint_uses_the_distance_comparison():
    for radius in OPENING_RADII:
        ball = ball_footprint(radius)
        k = ball.shape[0] // 2
        assert ball.shape == (2 * k + 1,) * 3 and k == math.ceil(radius)
        for z in np.argwhere(np.ones_like(ball)):
            d2 = float(((z - k) ** 2).sum())
            assert ball[tuple(z)] == (math.sqrt(d2) <= radius)
    # sqrt(3)**2 rounds below 3, so |z|^2 <= r^2 would drop the corners
    assert math.sqrt(3.0) ** 2 < 3.0 and ball_footprint(math.sqrt(3.0))[1, 1, 1]


def test_edt_all_foreground_sentinel():
    out = distance_transform(binary(np.ones((4, 4, 4), bool)))
    assert np.isinf(out).all()


def test_edt_single_background_corner_distance():
    m = np.ones((5, 5, 5), bool)
    m[0, 0, 0] = False
    out = distance_transform(binary(m))
    assert out[0, 0, 0] == 0.0
    np.testing.assert_allclose(out[4, 4, 4], np.sqrt(48.0))


def test_edt_matches_brute_force(rng):
    for _ in range(3):
        m = rng.random((9, 9, 9)) > 0.35
        out = distance_transform(binary(m))
        np.testing.assert_allclose(out, edt_oracle(m), atol=1e-9)


def test_edt_exact_on_random_small_masks(rng):
    for _ in range(10):
        shape = tuple(rng.integers(2, 13, 3))
        m = rng.random(shape) > rng.uniform(0.2, 0.8)
        out = distance_transform(binary(m))
        np.testing.assert_allclose(out, edt_oracle(m), atol=1e-9)


# 23 planes: no slab height above 1 divides it, so the last slab is short
@pytest.mark.parametrize("height", [1, 2, 3, 4, 50])
def test_edt_bitwise_equals_scipy_for_every_slab_height(rng, monkeypatch, height):
    from tomoseg._kernels import edt

    monkeypatch.setattr(edt, "SLAB_VOXELS", height * 12 * 14)
    for density in (0.05, 0.5, 0.95, 0.999):
        m = rng.random((23, 12, 14)) < density
        m[rng.integers(23), rng.integers(12), rng.integers(14)] = False
        got = distance_transform(binary(m))
        assert got.tobytes() == ndimage.distance_transform_edt(m).tobytes()


def test_edt_bitwise_equals_scipy_on_thin_and_far_masks(rng):
    for shape in THIN_SHAPES + [(40, 33, 17)]:
        for density in (0.1, 0.6, 0.95):
            m = rng.random(shape) < density
            if m.all():
                continue
            assert distance_transform(binary(m)).tobytes() == ndimage.distance_transform_edt(m).tobytes()
    # one background corner: the largest offsets, several slabs
    m = np.ones((70, 60, 50), bool)
    m[0, 0, 0] = False
    assert distance_transform(binary(m)).tobytes() == ndimage.distance_transform_edt(m).tobytes()


def test_edt_memory_per_voxel(rng):
    # scipy's int32 feature transform (12 bytes per voxel), the float64
    # distances (8) and one slab; scipy's own distances took 49
    m = rng.random((64, 64, 64)) < 0.9
    out, peak = traced_peak(lambda: distance_transform(binary(m)))
    assert out.tobytes() == ndimage.distance_transform_edt(m).tobytes()
    assert peak / m.size <= 26, peak / m.size


def test_remove_small_components():
    m = np.zeros((10, 10, 10), bool)
    m[1:5, 1:5, 1:5] = True  # 64 voxels
    m[8, 8, 8] = True  # speck
    out = remove_small_components(binary(m), 10)
    assert out.data.sum() == 64


def _small_components_canonical(mask, min_size):
    """Sizes from the canonical labels over the whole volume, the
    formulation before sizes came from scipy's labels on the foreground."""
    from tomoseg._kernels.cc import connected_components_mask

    labels = connected_components_mask(mask, 26)
    keep = np.bincount(labels.ravel()) >= min_size
    keep[0] = False
    return keep[labels]


def test_remove_small_components_matches_canonical_labels(rng):
    shapes = [(1, 1, 1), (1, 9, 11), (7, 8, 9), (12, 13, 14)]
    for shape in shapes:
        for density in (0.0, 0.2, 0.45, 0.7, 1.0):
            m = rng.random(shape) < density
            for min_size in (2, 3, 8, 40, m.size, m.size + 1):
                got = remove_small_components(binary(m), min_size).data
                np.testing.assert_array_equal(got, _small_components_canonical(m, min_size))


def test_remove_small_components_memory(rng):
    # scipy's int32 labels, the foreground's labels and their int64 cast,
    # and the kept mask: about 8 bytes per voxel on a 30% foreground. The
    # canonical relabelling with its int32 copies and a whole-volume int64
    # count took about 14.5.
    m = rng.random((96, 96, 96)) < 0.3
    mask = binary(m)
    out, peak = traced_peak(lambda: remove_small_components(mask, 3))
    np.testing.assert_array_equal(out.data, _small_components_canonical(m, 3))
    assert peak / m.size <= 10, peak / m.size
