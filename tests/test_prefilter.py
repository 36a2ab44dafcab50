import math

import numpy as np
import pytest
from scipy import ndimage

from tomoseg._kernels import nlm
from tomoseg.prefilter import (
    NlmParams,
    UnsharpParams,
    estimate_noise_std,
    gaussian_blur,
    nonlocal_means,
    unsharp_mask,
)
from conftest import nlm_oracle, scalar


def test_nlm_constant_unchanged():
    vol = scalar(np.full((5, 5, 5), 7000))
    out = nonlocal_means(vol, NlmParams(h=123.0, search_radius=2))
    np.testing.assert_array_equal(out.data, vol.data)


def test_nlm_huge_h_is_window_mean(rng):
    data = rng.integers(0, 65536, (5, 5, 5)).astype(np.uint16)
    vol = scalar(data)
    out = nonlocal_means(vol, NlmParams(h=1e12, patch_radius=1, search_radius=2))
    f = data.astype(float)
    expect = np.zeros_like(f)
    for z in range(5):
        for y in range(5):
            for x in range(5):
                win = f[max(0, z - 2) : z + 3, max(0, y - 2) : y + 3, max(0, x - 2) : x + 3]
                expect[z, y, x] = win.mean()
    np.testing.assert_array_equal(out.data, np.clip(np.floor(expect + 0.5), 0, 65535))


def test_nlm_matches_oracle_exactly(rng):
    for _ in range(3):
        data = rng.integers(0, 65536, (5, 5, 5)).astype(np.uint16)
        vol = scalar(data)
        params = NlmParams(h=900.0, sigma=1.0, patch_radius=1, search_radius=2)
        out = nonlocal_means(vol, params)
        expect = nlm_oracle(data.astype(float), 900.0, 1.0, 1, 2)
        np.testing.assert_array_equal(
            out.data, np.clip(np.floor(expect + 0.5), 0, 65535).astype(np.uint16)
        )


def _nlm_full_volume(img, h2, patch_radius, patch_sigma, search):
    """The earlier numpy kernel, kept as the reference: every search offset
    is computed on the whole volume and masked where x+s leaves it."""

    def shift_valid(img, s):
        out = np.zeros_like(img)
        valid = np.zeros(img.shape, bool)
        src = []
        dst = []
        for n, d in zip(img.shape, s):
            lo_dst, hi_dst = max(0, -d), min(n, n - d)
            if lo_dst >= hi_dst:
                return out, valid
            dst.append(slice(lo_dst, hi_dst))
            src.append(slice(lo_dst + d, hi_dst + d))
        out[tuple(dst)] = img[tuple(src)]
        valid[tuple(dst)] = True
        return out, valid

    g1 = np.exp(-(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2))
    g1 = g1 / g1.sum()
    norm = np.zeros(img.shape, np.float64)
    acc = np.zeros(img.shape, np.float64)
    rng = range(-search, search + 1)
    for sz in rng:
        for sy in rng:
            for sx in rng:
                shifted, valid = shift_valid(img, (sz, sy, sx))
                dsq = np.where(valid, (img - shifted) ** 2, 0.0)
                for axis in range(3):
                    dsq = ndimage.correlate1d(dsq, g1, axis=axis, mode="constant", cval=0.0)
                w = np.where(valid, np.exp(-dsq / h2), 0.0)
                norm += w
                acc += w * shifted
    return acc / norm


@pytest.mark.parametrize(
    "shape",
    [(5, 5, 5), (7, 4, 9), (3, 11, 6), (1, 6, 5), (2, 3, 13), (16, 3, 4), (26, 4, 3),
     (5, 1, 7), (4, 9, 1), (3, 2, 2), (9, 13, 2)],
)
def test_nlm_slabs_bit_identical_to_full_volume(rng, shape, monkeypatch):
    # the flat layout and z slabs keep every voxel's sums in the same order,
    # so the result is bitwise equal for any worker count; the short volumes
    # fall back to fewer slabs than the bound asks for; on the 1- and 2-wide
    # axes the guard rows and columns do most of the zero fill's work
    from tomoseg import backend

    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(8)))
    img = rng.integers(0, 65536, shape).astype(np.float64)
    try:
        for search in (1, 2, 5):
            for h in (300.0, 900.0, 1e12):
                for patch_radius in (1, 2):
                    want = _nlm_full_volume(img, h * h, patch_radius, 1.0, search)
                    for workers in (1, 2, 3, 5):
                        backend.set_thread_bound(workers)
                        got = nlm._nlm_numpy(img, h * h, patch_radius, 1.0, search)
                        assert np.array_equal(got, want), (search, h, patch_radius, workers)
    finally:
        backend.set_thread_bound(None)


@pytest.mark.parametrize("shape", [(7, 4, 9), (9, 13, 2), (4, 9, 1)])
def test_nlm_signed_input_with_exact_zeros_bit_identical(rng, shape):
    # signed values make negative and -0.0 products w * I(x+s), and the
    # zeros exact ties; each must reach norm and acc as in the full pass
    img = rng.normal(0.0, 400.0, shape)
    img[rng.random(shape) < 0.5] = 0.0
    for search in (1, 2, 5):
        for h in (0.5, 300.0, 1e12):
            for patch_radius in (1, 2):
                want = _nlm_full_volume(img, h * h, patch_radius, 1.0, search)
                got = nlm._nlm_numpy(img, h * h, patch_radius, 1.0, search)
                assert np.array_equal(got, want), (search, h, patch_radius)


def test_nlm_default_workers_bit_identical(rng):
    img = rng.integers(0, 65536, (12, 9, 10)).astype(np.float64)
    want = _nlm_full_volume(img, 700.0**2, 1, 1.0, 3)
    np.testing.assert_array_equal(nlm._nlm_numpy(img, 700.0**2, 1, 1.0, 3), want)


def test_nlm_slab_workers_keep_halo_thickness(monkeypatch):
    from tomoseg import backend

    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(8)))
    assert nlm._slab_workers(26, 2) == 5  # the tall test shape really runs 5 slabs
    assert nlm._slab_workers(16, 1) == 5
    assert nlm._slab_workers(64, 1) == 8  # capped at the CPUs
    assert nlm._slab_workers(9, 2) == 1  # two slabs would be thinner than 5 rows
    assert nlm._slab_workers(1, 1) == 1


def test_nlm_preserves_range(rng):
    data = rng.integers(2000, 4000, (6, 6, 6)).astype(np.uint16)
    out = nonlocal_means(scalar(data), NlmParams(h=300.0, search_radius=2))
    assert out.data.min() >= data.min()
    assert out.data.max() <= data.max()


def test_nlm_shift_equivariant(rng):
    data = rng.integers(1000, 3000, (5, 5, 5)).astype(np.uint16)
    params = NlmParams(h=500.0, search_radius=2)
    base = nonlocal_means(scalar(data), params)
    shifted = nonlocal_means(scalar(data + 1000), params)
    np.testing.assert_array_equal(shifted.data, base.data + 1000)


def test_nlm_param_validation():
    with pytest.raises(ValueError):
        NlmParams(h=0.0)
    with pytest.raises(ValueError):
        NlmParams(h=1.0, patch_radius=2, search_radius=1)


def test_blur_constant_unchanged():
    vol = scalar(np.full((6, 6, 6), 4321))
    out = gaussian_blur(vol, 1.5)
    np.testing.assert_array_equal(out.data, vol.data)


def test_blur_impulse_matches_kernel():
    data = np.zeros((9, 9, 9), np.uint16)
    data[4, 4, 4] = 60000
    out = gaussian_blur(scalar(data), 1.0)
    rad = 3
    x = np.arange(-rad, rad + 1)
    k = np.exp(-(x * x) / 2.0)
    k /= k.sum()
    expect = 60000 * k[:, None, None] * k[None, :, None] * k[None, None, :]
    full = np.zeros((9, 9, 9))
    full[1:8, 1:8, 1:8] = expect
    np.testing.assert_array_equal(out.data, np.clip(np.floor(full + 0.5), 0, 65535))


def test_blur_semigroup_on_smooth_field():
    # Truncated sampled kernels compose only approximately; on a smooth,
    # modest-amplitude field the discrepancy stays below the rounding scale.
    z, y, x = np.mgrid[0:12, 0:12, 0:12]
    data = (20000 + 400 * np.sin(2 * np.pi * x / 9) * np.cos(2 * np.pi * y / 11)
            + 300 * np.sin(2 * np.pi * z / 7)).astype(np.uint16)
    once = gaussian_blur(gaussian_blur(scalar(data), 1.0), 1.0)
    twice = gaussian_blur(scalar(data), math.sqrt(2.0))
    assert np.abs(once.data.astype(int) - twice.data.astype(int)).max() <= 1


def test_unsharp_identity_at_c1(rng):
    data = rng.integers(0, 65536, (6, 6, 6)).astype(np.uint16)
    out = unsharp_mask(scalar(data), UnsharpParams(c=1.0, blur_sigma=1.0))
    np.testing.assert_array_equal(out.data, data)


def test_unsharp_constant_unchanged():
    vol = scalar(np.full((6, 6, 6), 12345))
    out = unsharp_mask(vol, UnsharpParams(c=0.75, blur_sigma=2.0))
    np.testing.assert_array_equal(out.data, vol.data)


def test_unsharp_step_edge_overshoot():
    nz = ny = 5
    nx = 24
    data = np.zeros((nz, ny, nx), np.uint16)
    data[:, :, 12:] = 10000
    vol = scalar(data)
    out = unsharp_mask(vol, UnsharpParams(c=0.75, blur_sigma=1.0))
    low = gaussian_blur(vol, 1.0).data.astype(float)
    expect = np.clip(np.floor(1.5 * data - 0.5 * low + 0.5), 0, 65535)
    np.testing.assert_array_equal(out.data, expect)
    mid = nz // 2
    profile = out.data[mid, mid, :].astype(int)
    assert profile.min() < 0 + 1  # undershoot clamps at 0
    assert profile.max() > 10000  # overshoot past the plateau


def test_unsharp_param_validation():
    with pytest.raises(ValueError):
        UnsharpParams(c=0.5)
    with pytest.raises(ValueError):
        UnsharpParams(c=1.2)


def test_translation_equivariance_interior(rng):
    base = rng.integers(0, 65536, (8, 8, 8)).astype(np.uint16)
    shifted = np.roll(base, 1, axis=2)
    p = NlmParams(h=700.0, patch_radius=1, search_radius=1)
    a = nonlocal_means(scalar(base), p).data
    b = nonlocal_means(scalar(shifted), p).data
    # interior voxels far enough from the wrap seam see the same neighborhood
    np.testing.assert_array_equal(b[3:6, 3:6, 4:6], np.roll(a, 1, axis=2)[3:6, 3:6, 4:6])


def test_noise_estimate_tracks_added_noise(rng):
    clean = np.full((24, 24, 24), 20000.0)
    noisy = clean + rng.normal(0, 500, clean.shape)
    vol = scalar(np.clip(noisy, 0, 65535).astype(np.uint16))
    est = estimate_noise_std(vol)
    assert 350 < est < 650
