import itertools
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


@pytest.mark.parametrize("shape", [(1, 6, 5), (4, 9, 1), (3, 2, 2), (16, 3, 4)])
def test_nlm_huge_h_window_mean_with_mirrored_pairs(rng, shape, monkeypatch):
    # Every weight is exactly 1, so the sums of integers are exact: the
    # output is the window mean only if each valid pair (x, x+s) reaches both
    # x and x+s exactly once, on every slab split, with the search reaching
    # past the volume on some axis.
    from tomoseg import backend

    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(8)))
    img = rng.integers(0, 65536, shape).astype(np.float64)
    search = 5
    expect = np.zeros_like(img)
    for x in np.ndindex(*shape):
        expect[x] = img[tuple(slice(max(0, c - search), c + search + 1) for c in x)].mean()
    try:
        for patch_radius in (1, 2):
            for workers in (1, 2, 3, 5):
                backend.set_thread_bound(workers)
                got = nlm.nlm_field(img, 1e12, patch_radius, 1.0, search)
                assert np.array_equal(got, expect), (patch_radius, workers)
    finally:
        backend.set_thread_bound(None)


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


def _correlate_zero_fill(a, g1, axis):
    """``a`` correlated with the symmetric ``g1`` along ``axis``, zero fill,
    step by step in scipy's order for a symmetric kernel: the centre term,
    then each (left + right) pair times its weight, outermost first. For a
    float32 ``a`` every step rounds to float32, which ``correlate1d`` does
    not do (it computes in double and rounds once)."""
    r = len(g1) // 2
    n = a.shape[axis]
    pad = np.pad(a, [(r, r) if ax == axis else (0, 0) for ax in range(a.ndim)])

    def at(lo):
        return pad[(slice(None),) * axis + (slice(lo, lo + n),)]

    out = at(r) * g1[r]
    for k in range(r, 0, -1):
        out = out + (at(r - k) + at(r + k)) * g1[r - k]
    return out


def _shift_valid(img, s):
    # img(x + s), 0 where x + s leaves the volume, and where it stays inside
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


def _nlm_full_volume(img, h2, patch_radius, patch_sigma, search):
    """The kernel's arithmetic as one plain full-volume pass, kept as the
    reference: float32 image, differences, patch passes and weights, float64
    sums. The sums start from the centre's weight 1. Then for each offset s
    after the centre in lexicographic order, the weight field W_s is computed
    on the whole volume and masked where x+s leaves it; it is added at x with
    I(x+s), and then at x+s with I(x)."""
    img = np.asarray(img, np.float32)
    h2 = np.float32(h2)
    g1 = np.exp(-(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2))
    g1 = (g1 / g1.sum()).astype(np.float32)
    norm = np.ones(img.shape, np.float64)
    acc = img.astype(np.float64)
    rng = range(-search, search + 1)
    for s in itertools.product(range(search + 1), rng, rng):
        if s <= (0, 0, 0):
            continue
        shifted, valid = _shift_valid(img, s)
        dsq = np.where(valid, (img - shifted) ** 2, np.float32(0.0))
        for axis in range(3):
            dsq = _correlate_zero_fill(dsq, g1, axis)
        w = np.where(valid, np.exp(-dsq / h2), np.float32(0.0))
        norm += w
        acc += w * shifted
        back = tuple(-d for d in s)  # the value at x - s
        norm += _shift_valid(w, back)[0]
        acc += _shift_valid(w * img, back)[0]
    return acc / norm


@pytest.mark.parametrize(
    "shape",
    [(5, 5, 5), (7, 4, 9), (3, 11, 6), (1, 6, 5), (2, 3, 13), (16, 3, 4), (26, 4, 3),
     (5, 1, 7), (4, 9, 1), (3, 2, 2), (9, 13, 2)],
)
def test_nlm_slabs_bit_identical_to_full_volume(rng, shape, monkeypatch):
    # the flat layout and z slabs, mirror halo included, keep every voxel's
    # sums in the same order, so the result is bitwise equal for any worker
    # count; the short volumes fall back to fewer slabs than the bound asks
    # for; on the 1- and 2-wide axes the guard rows and columns do most of
    # the zero fill's work. At h = 6000 the weights span many binades, so
    # the float64 sums round and their order shows (forward and mirrored
    # terms swapped change the output); at 300 and 900 nearly every weight
    # but the centre's is 0.
    from tomoseg import backend

    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(8)))
    img = rng.integers(0, 65536, shape).astype(np.float64)
    try:
        for search in (1, 2, 5):
            for h in (300.0, 900.0, 6000.0, 1e12):
                for patch_radius in (1, 2):
                    want = _nlm_full_volume(img, h * h, patch_radius, 1.0, search)
                    for workers in (1, 2, 3, 5):
                        backend.set_thread_bound(workers)
                        got = nlm.nlm_field(img, h, patch_radius, 1.0, search)
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
                got = nlm.nlm_field(img, h, patch_radius, 1.0, search)
                assert np.array_equal(got, want), (search, h, patch_radius)


def test_nlm_default_workers_bit_identical(rng):
    img = rng.integers(0, 65536, (12, 9, 10)).astype(np.float64)
    want = _nlm_full_volume(img, 700.0**2, 1, 1.0, 3)
    np.testing.assert_array_equal(nlm.nlm_field(img, 700.0, 1, 1.0, 3), want)


def _smooth_volume(rng, n=8):
    # a ramp, three Gaussian blobs and mild noise: many patches look alike
    z, y, x = np.mgrid[:n, :n, :n].astype(np.float64)
    f = 20000.0 + 100.0 * (z + 2 * y + 3 * x)
    for cz, cy, cx in rng.uniform(1, n - 2, (3, 3)):
        f += 6000.0 * np.exp(-((z - cz) ** 2 + (y - cy) ** 2 + (x - cx) ** 2) / (2 * 1.5**2))
    return np.round(f + rng.normal(0.0, 250.0, f.shape)).astype(np.uint16)


def _window_weights(img, h, search):
    # every weight w(x, x+s) of the definition, float64, one per valid pair
    g1 = np.exp(-(np.arange(-1, 2) ** 2) / 2.0)
    g1 /= g1.sum()
    img = img.astype(np.float64)
    weights = []
    for s in np.ndindex(*(2 * search + 1,) * 3):
        shifted, valid = _shift_valid(img, np.subtract(s, search))
        dsq = np.where(valid, (img - shifted) ** 2, 0.0)
        for axis in range(3):
            dsq = ndimage.correlate1d(dsq, g1, axis=axis, mode="constant", cval=0.0)
        weights.append(np.exp(-dsq[valid] / (h * h)))
    return np.concatenate(weights)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nlm_float32_weights_match_float64_oracle_on_smooth_data(seed):
    # Bound on the float32 kernel's error against the float64 definition.
    # u = 2**-24. The exp argument a = -d / h**2 goes through about 20
    # float32 roundings (the squared difference; centre product, pair sum,
    # pair product and accumulation in each of the three passes; g1, h**2
    # and the division), each a relative error of at most u on a sum of
    # non-negative terms: |da| <= 20u |a|. A float32 exp adds at most 4u. So
    # a weight carries relative error dw/w <= 20u |a| + 4u, and the output
    # sum(w I) / sum(w) moves by at most span * sum(w |dw/w|) / sum(w).
    # There w |a| = |a| exp(-|a|) <= 1/e, and sum(w) >= 1 (the centre's own
    # weight is exactly 1), so over N = 125 window offsets the move is at
    # most span * u * (20 N / e + 4). Rounding each w * I to float32 adds at
    # most u * max(I).
    rng = np.random.default_rng(seed)
    img = _smooth_volume(rng)
    h, search = 300.0, 2
    weights = _window_weights(img, h, search)
    assert (weights > 1e-3).mean() >= 0.2  # not just the centre weight
    want = nlm_oracle(img.astype(np.float64), h, 1.0, 1, search)
    got = nlm.nlm_field(img, h, 1, 1.0, search)
    u = 2.0**-24
    span = float(img.max()) - float(img.min())
    tol = span * u * (20 * 125 / math.e + 4) + u * float(img.max())
    assert np.abs(got - want).max() <= tol
    rounded = np.clip(np.floor(got + 0.5), 0, 65535)
    want_rounded = np.clip(np.floor(want + 0.5), 0, 65535)
    assert np.abs(rounded - want_rounded).max() <= 1
    assert np.abs(want - img).max() > 100 * tol  # the filter really moved the data


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
