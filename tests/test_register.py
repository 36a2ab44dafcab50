import math

import numpy as np
import pytest

from tomoseg._kernels.rotate import rotate_nearest
from tomoseg.register import (
    RegisterOptions,
    RigidTransform,
    TranslationSolver,
    _lattice_search,
    block_or_downsample,
    direct_overlap,
    nelder_mead,
    read_transform,
    register_section,
    sample_plane,
    volume_center,
    write_result,
)
from tomoseg.volgrid import BinaryVolume

from conftest import (
    ball_mask, binary, brute_force_translation, map_plane_points, render_section_mask,
)


def test_rotation_matrix_orthonormal(rng):
    for _ in range(5):
        t = RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), (0, 0, 0))
        r = t.rotation()
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_angles_wrap_into_interval():
    t = RigidTransform((3 * math.pi, -3 * math.pi, 0.5), (0, 0, 0))
    for a in t.angles:
        assert -math.pi < a <= math.pi


def rotate(m, angles):
    """Nearest-neighbor rotation of ``m`` by the Euler ``angles`` about its
    center; samples outside the window become background."""
    rinv = RigidTransform(tuple(angles), (0.0, 0.0, 0.0)).rotation().T
    return rotate_nearest(m, rinv, volume_center(m.shape))


def test_rotate_identity_exact(rng):
    m = rng.random((9, 10, 11)) > 0.5
    out = rotate(m, (0.0, 0.0, 0.0))
    np.testing.assert_array_equal(out, m)


def test_rotate_quarter_turn_matches_permutation(rng):
    n = 9
    m = rng.random((n, n, n)) > 0.5
    out = rotate(m, (math.pi / 2, 0.0, 0.0))
    # +90 deg about z maps (x, y) -> (-y, x); sampling inverts it
    expect = np.zeros_like(m)
    c = (n - 1) / 2.0
    for z in range(n):
        for y in range(n):
            for x in range(n):
                sx = int(round(c + (y - c)))
                sy = int(round(c - (x - c)))
                expect[z, y, x] = m[z, sy, sx]
    np.testing.assert_array_equal(out, expect)


def test_rotate_roundtrip_mostly_self_inverse():
    m = ball_mask((24, 24, 24), (12, 12, 12), 8) | ball_mask((24, 24, 24), (8, 14, 16), 4)
    angles = (0.3, -0.2, 0.15)
    once = rotate(m, angles)
    # the inverse rotation is the transposed matrix; apply it via the kernel
    # directly since it has no Euler-angle triple of the same convention
    inv = RigidTransform(angles, (0, 0, 0)).rotation().T
    restored = rotate_nearest(once, inv.T, volume_center(m.shape))
    agree = (restored == m).mean()
    assert agree >= 0.98


def rotate_oracle(vol, rinv, center, z0, z1):
    """Per-voxel back-rotation: floor(v + 0.5) rounding, background outside."""
    nz, ny, nx = vol.shape
    cx, cy, cz = center
    r = rinv.tolist()
    out = np.zeros((z1 - z0, ny, nx), bool)
    for z in range(z0, z1):
        for y in range(ny):
            for x in range(nx):
                d = (x - cx, y - cy, z - cz)
                sx, sy, sz = (r[i][0] * d[0] + r[i][1] * d[1] + r[i][2] * d[2] + c
                              for i, c in enumerate(center))
                ix, iy, iz = (math.floor(s + 0.5) for s in (sx, sy, sz))
                if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
                    out[z - z0, y, x] = vol[iz, iy, ix]
    return out


SLAB_RANGES = ((0, 9), (2, 5), (4, 5), (6, 9), (3, 3))


def test_rotate_matches_loop_oracle(rng):
    from tomoseg._kernels.rotate import rotate_nearest
    from tomoseg.register import volume_center

    vol = rng.random((9, 8, 7)) > 0.5
    center = volume_center(vol.shape)
    for _ in range(8):
        rinv = RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), (0, 0, 0)).rotation().T
        for z0, z1 in SLAB_RANGES:
            np.testing.assert_array_equal(rotate_nearest(vol, rinv, center, z0, z1),
                                          rotate_oracle(vol, rinv, center, z0, z1))


def test_rotate_z_range_is_slab_of_full_rotation(rng):
    from tomoseg._kernels import rotate
    from tomoseg.register import volume_center

    vol = rng.random((9, 8, 7)) > 0.5
    center = volume_center(vol.shape)
    rinv = RigidTransform((0.3, -0.5, 0.2), (0, 0, 0)).rotation().T
    full = rotate.rotate_nearest(vol, rinv, center)
    for z0, z1 in SLAB_RANGES:
        band = rotate.rotate_nearest(vol, rinv, center, z0, z1)
        np.testing.assert_array_equal(band, full[z0:z1])
    with pytest.raises(ValueError):
        rotate.rotate_nearest(vol, rinv, center, 5, 10)


def _rounded_sources(shape, rinv, center, z0, z1):
    """The rounded source coordinate of every output voxel, per axis
    (x, y, z), in the oracle's arithmetic."""
    nz, ny, nx = shape
    r = rinv.tolist()
    seen = (set(), set(), set())
    for z in range(z0, z1):
        for y in range(ny):
            for x in range(nx):
                d = (x - center[0], y - center[1], z - center[2])
                for i, c in enumerate(center):
                    s = r[i][0] * d[0] + r[i][1] * d[1] + r[i][2] * d[2] + c
                    seen[i].add(math.floor(s + 0.5))
    return seen


# quarter and half turns about each axis: exact permutation matrices, and the
# same turns through RigidTransform, whose cos(pi/2) is 6e-17, not 0
_TURNS = [
    np.array(m, np.float64)
    for m in (
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 1, 0], [-1, 0, 0], [0, 0, 1]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
        [[1, 0, 0], [0, 0, -1], [0, 1, 0]], [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
    )
] + [
    RigidTransform(angles, (0, 0, 0)).rotation().T
    for a in (math.pi / 2, -math.pi / 2, math.pi)
    for angles in ((a, 0.0, 0.0), (0.0, a, 0.0), (0.0, 0.0, a))
]


def test_rotate_samples_on_the_guard_match_loop_oracle(rng):
    from tomoseg._kernels.rotate import guard_volume, rotate_nearest
    from tomoseg.register import volume_center

    # a quarter turn sends a long axis onto a shorter one, whose samples then
    # land exactly one voxel outside, at -1 and at n; the two elongated
    # shapes do so on every axis, and a full volume shows any guard read
    configs = [(shape, volume_center(shape)) for shape in ((5, 7, 9), (9, 7, 5))]
    configs.append(((6, 4, 8), (4.5, 1.5, 3.0)))
    hit = set()
    for shape, center in configs:
        for vol in (rng.random(shape) > 0.5, np.ones(shape, bool)):
            guarded = guard_volume(vol)
            for rinv in _TURNS:
                for z0, z1 in ((0, shape[0]), (1, shape[0] - 1), (2, 3), (0, 0)):
                    want = rotate_oracle(vol, rinv, center, z0, z1)
                    np.testing.assert_array_equal(rotate_nearest(vol, rinv, center, z0, z1), want)
                    np.testing.assert_array_equal(
                        rotate_nearest(vol, rinv, center, z0, z1, guarded), want
                    )
                    sources = _rounded_sources(shape, rinv, center, z0, z1)
                    for axis, (got, n) in enumerate(zip(sources, shape[::-1])):
                        hit |= {(axis, "-1") for v in got if v == -1}
                        hit |= {(axis, "n") for v in got if v == n}
    assert hit == {(axis, side) for axis in range(3) for side in ("-1", "n")}


def test_translation_solver_ties_match_brute_force(rng):
    from tomoseg.register import TranslationSolver

    # the plane is planted at several shifts of a sparse multi-slice band, so
    # the maximum overlap is tied; both solvers pick the smallest (x, y, z)
    for _ in range(4):
        vol = rng.random((5, 14, 16)) > 0.9
        plane = rng.random((4, 5)) > 0.3
        planted = []
        for _ in range(3):
            z = int(rng.integers(0, 5))
            y = int(rng.integers(0, 10))
            x = int(rng.integers(0, 11))
            vol[z, y : y + 4, x : x + 5] = plane
            planted.append((x, y))
        solver = TranslationSolver(vol.shape, plane)
        fft_res = solver.solve(vol)
        bf_res = brute_force_translation(vol, plane)
        assert fft_res.shift == bf_res.shift
        assert fft_res.overlap == bf_res.overlap == int(plane.sum())
        # hinted at any of the tied shifts, the smallest still wins
        for hint in planted:
            solver.hint = hint
            res = solver.solve(vol)
            assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap)
    # an empty band has overlap 0 everywhere: the smallest shift wins
    empty = np.zeros((3, 6, 6), bool)
    res = TranslationSolver(empty.shape, plane).solve(empty)
    assert (res.shift, res.overlap) == ((-4, -3, 0), 0)
    assert res.shift == brute_force_translation(empty, plane).shift


def _float32_bound(solver, vol, pad):
    from tomoseg.register import _fft_error_bound

    b = int(np.count_nonzero(vol, axis=(1, 2)).max())
    return _fft_error_bound(solver.count, b, pad[0] * pad[1], 2.0**-24)


@pytest.mark.parametrize("fill", ["dense", "ones"])
@pytest.mark.parametrize(
    "vol_shape, plane_shape, pad",
    [
        # the band and plane shapes of the three registration levels, at the
        # full zero-padded length and at window lengths of hinted solves
        pytest.param((24, 24, 24), (23, 23), None, id="vol_shape0-plane_shape0"),
        pytest.param((25, 48, 48), (46, 46), None, id="vol_shape1-plane_shape1"),
        pytest.param((31, 96, 96), (92, 92), None, id="vol_shape2-plane_shape2"),
        pytest.param((31, 96, 96), (92, 92), (120, 108), id="window-120x108"),
        pytest.param((25, 48, 48), (46, 46), (60, 54), id="window-60x54"),
        pytest.param((24, 24, 24), (23, 23), (36, 36), id="window-36x36"),
        pytest.param((31, 96, 96), (92, 92), (125, 125), id="window-125x125"),  # radix 5
    ],
)
def test_float32_correlation_within_bound(rng, fill, vol_shape, plane_shape, pad):
    from tomoseg.register import TranslationSolver, _fft_error_bound

    if fill == "ones":
        vol, plane = np.ones(vol_shape, bool), np.ones(plane_shape, bool)
    else:
        vol, plane = rng.random(vol_shape) < 0.5, rng.random(plane_shape) < 0.5
    solver = TranslationSolver(vol.shape, plane)
    pad = solver.pad if pad is None else pad
    corr64 = solver._correlate(vol, pad, np.float64)
    exact = np.rint(corr64)
    # float64 rounding is proven here, so the rounded values are the overlaps
    b = int(np.count_nonzero(vol, axis=(1, 2)).max())
    assert _fft_error_bound(solver.count, b, pad[0] * pad[1], 2.0**-53) < 1e-6
    assert np.abs(corr64 - exact).max() < 1e-6
    ph, pw = plane_shape
    assert exact[-1, 0, 0] == np.count_nonzero(vol[-1, :ph, :pw] & plane)
    corr32 = solver._correlate(vol, pad, np.float32)
    assert corr32.dtype == np.float32
    assert np.abs(corr32 - exact).max() <= _float32_bound(solver, vol, pad)


def test_translation_solver_exact_where_float32_rounding_is_unproven(rng, monkeypatch):
    from tomoseg.register import TranslationSolver

    fallbacks = []
    real_fallback = TranslationSolver._solve_float64
    monkeypatch.setattr(
        TranslationSolver, "_solve_float64",
        lambda self, v, *window: fallbacks.append(v.shape) or real_fallback(self, v, *window),
    )
    vol = rng.random((2, 40, 40)) < 0.5
    plane = rng.random((36, 36)) < 0.7
    # the plane planted whole at (2, 3, 1), and less one pixel at the
    # smaller shift (0, 1, 0)
    planted = vol.copy()
    planted[1, 3:39, 2:38] |= plane
    planted[0, 1:37, 0:36] = plane
    planted[0, 1:37, 0:36].flat[np.flatnonzero(plane)[0]] = False
    real_correlate = TranslationSolver._correlate
    pads = []

    def perturbed(self, v, pad, dtype, offset=(0, 0)):
        # any float32 error up to the bound: the maxima pushed down by
        # nearly all of it, the runners-up pushed up as far, every other
        # entry moved at random within it
        corr = real_correlate(self, v, pad, dtype, offset)
        if corr.dtype != np.float32:
            return corr
        pads.append(pad)
        exact = np.rint(real_correlate(self, v, pad, np.float64, offset))
        err = 0.99 * _float32_bound(self, v, pad)
        noise = rng.uniform(-err, err, corr.shape)
        top = exact.max()
        noise[exact == top] = -err
        noise[exact == exact[exact < top].max()] = err
        return (corr + noise).astype(np.float32)

    for v in (vol, planted):
        solver = TranslationSolver(v.shape, plane)
        assert _float32_bound(solver, v, solver.pad) >= 0.5  # rounding the float32 max is unproven
        bf_res = brute_force_translation(v, plane)
        for correlate in (real_correlate, perturbed):
            monkeypatch.setattr(TranslationSolver, "_correlate", correlate)
            # cold, then hinted by the cold result, then hinted off the optimum
            for hint in (None, bf_res.shift[:2], (bf_res.shift[0] + 1, bf_res.shift[1] - 2)):
                solver.hint = hint
                res = solver.solve(v)
                assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap)
    assert bf_res.shift == (2, 3, 1) and bf_res.overlap == int(plane.sum())
    assert fallbacks == []
    # the cold solve ran at the full length, the one hinted at the optimum
    # of the planted band at a shorter one on both axes
    assert pads[-3] == solver.pad
    assert pads[-2][0] < solver.pad[0] and pads[-2][1] < solver.pad[1]


def test_translation_solver_tie_plateau_falls_back_to_float64(monkeypatch):
    from tomoseg import register

    fallbacks = []
    real_fallback = register.TranslationSolver._solve_float64
    monkeypatch.setattr(
        register.TranslationSolver, "_solve_float64",
        lambda self, v, *window: fallbacks.append(v.shape) or real_fallback(self, v, *window),
    )
    # every shift with the plane fully inside ties: 3 * 17 * 17 candidates
    vol = np.ones((3, 20, 20), bool)
    vol[1, 5, 7] = False
    plane = np.ones((4, 4), bool)
    plane[2, 1] = False
    assert 3 * 17 * 17 > register.MAX_CANDIDATES
    res = register.TranslationSolver(vol.shape, plane).solve(vol)
    bf_res = brute_force_translation(vol, plane)
    assert fallbacks == [vol.shape]
    assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap) == ((0, 0, 0), 15)


def test_translation_solver_serves_bands_of_any_height(rng):
    from tomoseg.register import TranslationSolver

    vol = rng.random((9, 14, 16)) > 0.6
    plane = rng.random((5, 6)) > 0.4
    vol[6, 4:9, 7:13] |= plane
    # each solve leaves a hint for the next; fed the bands in either order,
    # a solver still matches the brute force on every band
    bands = ((0, 9), (2, 5), (4, 5), (5, 8), (7, 9))
    for order in (bands, bands[::-1]):
        solver = TranslationSolver(vol.shape, plane)
        for z0, z1 in order:
            band = vol[z0:z1]
            res = solver.solve(band)
            bf_res = brute_force_translation(band, plane)
            assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap)
    with pytest.raises(ValueError):
        solver.solve(vol[:, :, :15])


def _overlaps(vol, plane, xs, ys):
    """Overlap at every (x, y, z) with x in xs, y in ys, by direct counting:
    entry [z, i, j] is the shift (xs[j], ys[i], z)."""
    nz, ny, nx = vol.shape
    ph, pw = plane.shape
    out = np.zeros((nz, len(ys), len(xs)), np.int64)
    for i, sy in enumerate(ys):
        for j, sx in enumerate(xs):
            x0, x1 = max(0, sx), min(nx, sx + pw)
            y0, y1 = max(0, sy), min(ny, sy + ph)
            if x0 < x1 and y0 < y1:
                win = plane[y0 - sy : y1 - sy, x0 - sx : x1 - sx]
                out[:, i, j] = np.count_nonzero(vol[:, y0:y1, x0:x1] & win, axis=(1, 2))
    return out


def _random_instance(rng):
    """A random band and plane, the plane planted whole in one of two."""
    nz, ny, nx = int(rng.integers(1, 5)), int(rng.integers(2, 17)), int(rng.integers(2, 17))
    ph, pw = int(rng.integers(1, ny + 1)), int(rng.integers(1, nx + 1))
    vol = rng.random((nz, ny, nx)) < rng.uniform(0.1, 0.9)
    plane = rng.random((ph, pw)) < rng.uniform(0.2, 0.95)
    plane.flat[0] = True
    if rng.integers(0, 2):
        z = int(rng.integers(0, nz))
        y, x = int(rng.integers(0, ny - ph + 1)), int(rng.integers(0, nx - pw + 1))
        vol[z, y : y + ph, x : x + pw] |= plane
    return vol, plane


def _hints(rng, vol, plane, optimum):
    """No hint, hints outside the volume, the optimum and random shifts."""
    nz, ny, nx = vol.shape
    ph, pw = plane.shape
    yield None
    yield from ((-pw - 5, 0), (nx, ny), (0, -ph), (nx + 40, -ph - 40))
    yield optimum
    for _ in range(4):
        yield int(rng.integers(-(pw - 1), nx)), int(rng.integers(-(ph - 1), ny))


def test_hinted_solves_match_brute_force(rng):
    from tomoseg.register import TranslationSolver

    for _ in range(60):
        vol, plane = _random_instance(rng)
        bf_res = brute_force_translation(vol, plane)
        solver = TranslationSolver(vol.shape, plane)
        for hint in _hints(rng, vol, plane, bf_res.shift[:2]):
            solver.hint = hint
            # every entry of the window, in float64, rounds to the overlap
            # counted directly: its cyclic length leaves no alias inside it
            pad, lo, hi = solver._window(vol)
            corr = solver._correlate_window(vol, pad, lo, hi, np.float64)
            ys, xs = range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1)
            np.testing.assert_array_equal(np.rint(corr), _overlaps(vol, plane, xs, ys))
            assert bf_res.shift[0] in xs and bf_res.shift[1] in ys
            res = solver.solve(vol)
            assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap)
            # the solver keeps the last result's (x, y) when it overlaps
            assert solver.hint == (res.shift[:2] if res.overlap > 0 else hint)


def test_hint_at_the_optimum_gives_the_tightest_window(rng):
    from tomoseg.register import TranslationSolver

    vol = rng.random((6, 40, 40)) < 0.4
    plane = rng.random((36, 36)) < 0.6
    vol[4, 3:39, 2:38] = plane
    solver = TranslationSolver(vol.shape, plane)
    cold = solver.solve(vol)
    assert (cold.shift, cold.overlap) == ((2, 3, 4), int(plane.sum()))
    # LB is the whole plane, so B holds only the shifts with the plane inside
    pad, lo, hi = solver._window(vol)
    assert (lo, hi) == ((0, 0), (4, 4))
    assert pad[0] < solver.pad[0] and pad[1] < solver.pad[1]
    res = solver.solve(vol)
    assert (res.shift, res.overlap) == (cold.shift, cold.overlap)


def test_hinted_solve_with_plane_as_large_as_slice(rng):
    from tomoseg.register import TranslationSolver

    vol = rng.random((4, 18, 15)) > 0.5
    plane = rng.random((18, 15)) > 0.3
    vol[2] |= plane
    bf_res = brute_force_translation(vol, plane)
    assert bf_res.shift == (0, 0, 2)
    solver = TranslationSolver(vol.shape, plane)
    for hint in (None, (0, 0), (-3, 5), (14, 17)):
        solver.hint = hint
        res = solver.solve(vol)
        assert (res.shift, res.overlap) == (bf_res.shift, bf_res.overlap)
    # at the optimum only the zero shift can win: no padding at all
    solver.hint = (0, 0)
    assert solver._window(vol)[0] == (18, 15)


def test_best_translation_self_slice_exact(rng):
    m = rng.random((16, 20, 22)) > 0.6
    a, b, c = 3, 5, 7
    plane = m[c, b : b + 8, a : a + 9]
    res = TranslationSolver(m.shape, plane).solve(m)
    assert res.shift == (a, b, c)
    assert res.overlap == int(plane.sum())


def test_best_translation_matches_brute_force(rng):
    for _ in range(5):
        vol = rng.random((10, 12, 14)) > 0.55
        plane = rng.random((6, 7)) > 0.45
        fft_res = TranslationSolver(vol.shape, plane).solve(vol)
        bf_res = brute_force_translation(vol, plane)
        assert fft_res.shift == bf_res.shift
        assert fft_res.overlap == bf_res.overlap


def test_best_translation_empty_plane():
    vol = np.ones((4, 4, 4), bool)
    res = TranslationSolver(vol.shape, np.zeros((2, 2), bool)).solve(vol)
    assert res.empty_plane
    assert res.overlap == 0
    assert res.shift == (0, 0, 0)


def test_block_or_downsample():
    m = np.zeros((4, 4, 4), bool)
    m[0, 0, 0] = True
    m[3, 3, 3] = True
    d = block_or_downsample(m, 2)
    assert d.shape == (2, 2, 2)
    assert d[0, 0, 0] and d[1, 1, 1] and d.sum() == 2


def test_nelder_mead_quadratic():
    f = lambda x: (x[0] - 1.5) ** 2 + 2 * (x[1] + 0.5) ** 2
    x, fx = nelder_mead(f, np.zeros(2), step=0.5, max_iter=300, ftol=1e-12)
    np.testing.assert_allclose(x, [1.5, -0.5], atol=1e-4)


def test_register_identity_plane_recovers_slice():
    m = ball_mask((32, 32, 32), (16, 16, 16), 9) | ball_mask((32, 32, 32), (10, 20, 8), 5)
    vol = binary(m)
    k = 16
    plane = m[k][2:30, 2:30]
    res = register_section(vol, plane, RegisterOptions(pyramid=(2, 1)))
    assert res.normalized_overlap == pytest.approx(1.0)
    assert abs(res.transform.translation[0] - 2) <= 0.75
    assert abs(res.transform.translation[1] - 2) <= 0.75
    assert abs(res.transform.translation[2] - k) <= 0.75
    for a in res.transform.angles:
        assert abs(math.degrees(a)) <= 1.0


def test_register_recovers_known_transform():
    from tomoseg import phantom

    spec = phantom.PhantomSpec(
        dims=(96, 96, 96), count=260, size_range_um=(20, 40), aspect_range=(1.0, 2.5),
        elongated_fraction=0.0, noise_std=0.0, rng_seed=51, n_sections=0, contact_fraction=0.2,
    )
    out = phantom.generate(spec)
    vol = BinaryVolume(out.labels.data > 0, spec.spacing)
    true = RigidTransform(
        (math.radians(4.0), math.radians(-6.0), math.radians(7.5)), (3.3, -2.1, 44.6)
    )
    plane = render_section_mask(out, true)
    res = register_section(vol, plane)
    for got, want in zip(res.transform.angles, true.angles):
        assert abs(math.degrees(got - want)) <= 1.0
    for got, want in zip(res.transform.translation, true.translation):
        assert abs(got - want) <= 1.0


def test_register_three_starts_escape_wrong_coarse_basin():
    # a 96^3 phantom whose first section the 24^3 level scores higher at a
    # wrong optimum; a single coarse start ended 15.3 degrees off
    from tomoseg import attenuation, binarize, phantom

    spec = phantom.PhantomSpec(
        dims=(96, 96, 96), count=500, size_range_um=(20.0, 35.0), aspect_range=(1.0, 2.0),
        elongated_fraction=0.0, noise_std=400.0, rng_seed=31337088, n_sections=2,
        contact_fraction=0.2, section_max_angle_deg=3.0, section_max_shift=8.0,
        section_extent=0.95,
        mineral_fractions={"quartz": 0.3, "kaolinite": 0.15, "muscovite": 0.15,
                           "zinnwaldite": 0.25, "topaz": 0.15},
    )
    out = phantom.generate(spec, attenuation.load_mineral_table())
    mask = binarize.sauvola_binarize(out.gray, binarize.SauvolaParams())
    mask = binarize.morphological_opening(mask, 1.0)
    mask = binarize.remove_small_components(mask, 30)
    sec = out.sections[0]
    plane = phantom.section_to_voxel_mask(sec.plane, out.pixel_to_voxel, spec.spacing)
    res = register_section(mask, plane.data[0])
    for got, want in zip(res.transform.angles, sec.transform.angles):
        assert abs(math.degrees(got - want)) <= 1.0


def test_register_mirrored_plane_flagged():
    from tomoseg import phantom

    spec = phantom.PhantomSpec(
        dims=(80, 80, 80), count=150, size_range_um=(20, 40), aspect_range=(1.0, 2.5),
        elongated_fraction=0.0, noise_std=0.0, rng_seed=52, n_sections=0, contact_fraction=0.2,
    )
    out = phantom.generate(spec)
    vol = BinaryVolume(out.labels.data > 0, spec.spacing)
    true = RigidTransform((0.05, -0.04, 0.08), (1.0, -2.0, 40.0))
    plane = render_section_mask(out, true)
    genuine = register_section(vol, plane)
    mirrored = register_section(vol, plane[:, ::-1].copy())
    assert mirrored.normalized_overlap < genuine.normalized_overlap
    assert mirrored.normalized_overlap < 0.5 or mirrored.flagged is False
    # a mirror is unreachable by rotation: genuine match must be clearly better
    assert genuine.normalized_overlap - mirrored.normalized_overlap > 0.2


def test_register_pyramid_monotone():
    from tomoseg import phantom

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=120, size_range_um=(20, 36), aspect_range=(1.0, 2.0),
        elongated_fraction=0.0, noise_std=0.0, rng_seed=53, n_sections=0, contact_fraction=0.2,
    )
    out = phantom.generate(spec)
    vol = BinaryVolume(out.labels.data > 0, spec.spacing)
    true = RigidTransform((0.03, 0.06, -0.05), (2.0, 1.0, 30.0))
    plane = render_section_mask(out, true)
    # the joint polish must never fall below the lattice stage, and the fine
    # lattice stage never below the coarse solution re-evaluated at full res
    res = register_section(vol, plane)
    _, coarse_only = _lattice_search(vol, plane, RegisterOptions(max_iter=0), [])
    assert res.overlap >= coarse_only.overlap


def test_register_deterministic():
    m = ball_mask((32, 32, 32), (16, 16, 16), 10)
    vol = binary(m)
    plane = m[14][1:30, 1:30]
    r1 = register_section(vol, plane)
    r2 = register_section(vol, plane)
    assert r1.transform == r2.transform
    assert r1.overlap == r2.overlap


def test_direct_overlap_matches_lattice_at_integer_shift(rng):
    m = rng.random((12, 14, 16)) > 0.5
    vol = binary(m)
    plane = m[5, 2:10, 3:12]
    t = RigidTransform((0.0, 0.0, 0.0), (3.0, 2.0, 5.0))
    assert direct_overlap(vol, plane, t) == int((m[5, 2:10, 3:12] & plane).sum())


def _sampler_overlaps(vol, plane, transforms):
    from tomoseg.register import _PlaneSampler, plane_points

    uv = plane_points(plane)
    sampler = _PlaneSampler(vol.data, uv)
    for t in transforms:
        count = direct_overlap(vol, plane, t, sampler)
        assert count == np.count_nonzero(_sample_plane_loop(vol.data, t, uv)[0]), t
        assert direct_overlap(vol, plane, t) == count, t  # a sampler of its own
        if len(uv):
            # the mapped points before rounding, bit for bit: a count only
            # shows a last-bit difference where it moves a point across .5
            np.testing.assert_array_equal(sampler.m + sampler.center,
                                          map_plane_points(t, uv, vol.data.shape))
        yield count


def test_prepared_sampler_matches_plain_direct_overlap(rng):
    m = rng.random((14, 12, 16)) > 0.4
    vol = binary(m)
    plane = rng.random((9, 11)) > 0.3
    transforms = [
        RigidTransform(tuple(rng.normal(0.0, s_a, 3)), tuple(rng.normal(c, s_t)))
        for s_a, c, s_t in ((0.05, (3, 2, 7), (3, 3, 4)), (2.0, (3, 2, 7), (8, 8, 8)))
        for _ in range(150)
    ]
    # shifts far off the volume on each side of each axis, and just off it
    for axis in range(3):
        for far in (-1e6, -40.0, -9.6, 30.4, 1e6):
            shift = [3.0, 2.0, 7.0]
            shift[axis] = far
            transforms.append(RigidTransform((0.1, -0.2, 0.05), tuple(shift)))
    counts = list(_sampler_overlaps(vol, plane, transforms))
    assert min(counts) == 0 and max(counts) > 0


def test_prepared_sampler_single_pixel_and_empty_plane(rng):
    from tomoseg.register import _PlaneSampler

    m = rng.random((6, 7, 8)) > 0.5
    vol = binary(m)
    one = np.zeros((3, 3), bool)
    one[1, 2] = True
    transforms = [RigidTransform((0.0, 0.0, 0.0), (x, y, z))
                  for z in (-1.0, 0.0, 2.6, 5.0, 6.0)
                  for y in (-2.0, 0.4, 5.0)
                  for x in (-3.0, 1.0, 5.0)]
    transforms += [
        RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), tuple(rng.uniform(-2, 9, 3)))
        for _ in range(100)
    ]
    counts = list(_sampler_overlaps(vol, one, transforms))
    assert 0 in counts and 1 in counts
    # the pixel (u, v) = (2, 1) lands at x = 2 + 1, y = 1 + 0.4 -> 1, z = 2.6 -> 3
    pose = RigidTransform((0.0, 0.0, 0.0), (1.0, 0.4, 2.6))
    sampler = _PlaneSampler(m, [[2.0, 1.0]])
    assert direct_overlap(vol, one, pose, sampler) == int(m[3, 1, 3])
    empty = np.zeros((3, 3), bool)
    assert list(_sampler_overlaps(vol, empty, transforms[:5])) == [0] * 5
    with pytest.raises(ValueError):
        direct_overlap(binary(m[:5]), one, transforms[0], _PlaneSampler(m, [[2.0, 1.0]]))


def _sample_plane_loop(data, transform, uv):
    """sample_plane one point at a time: nearest voxel, bounds per axis, 0
    outside."""
    pts = map_plane_points(transform, np.asarray(uv, np.float64).reshape(-1, 2), data.shape)
    nz, ny, nx = data.shape
    values, inside = np.zeros(len(pts), data.dtype), np.zeros(len(pts), bool)
    for n, (x, y, z) in enumerate(pts):
        i, j, k = (math.floor(v + 0.5) for v in (x, y, z))
        if 0 <= i < nx and 0 <= j < ny and 0 <= k < nz:
            values[n], inside[n] = data[k, j, i], True
    return values, inside


def test_sample_plane_matches_per_point_loop(rng):
    data = np.arange(1, 5 * 6 * 7 + 1, dtype=np.int32).reshape(5, 6, 7)
    nz, ny, nx = data.shape
    eps = 1e-6

    def near(n):
        # just outside, on, and just inside each face; a .5 tie inside
        return (-0.5 - eps, -0.5, 2.5, n - 0.5 - eps, n - 0.5)

    uv = [(u, v) for u in near(nx) for v in near(ny)]
    cases = [(RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, tz)), uv) for tz in near(nz)]
    # a .5 tie rounds up; -0.5 - eps rounds to -1 and n - 0.5 to n, both outside
    values, inside = sample_plane(data, cases[2][0], uv)
    on_face = np.array([-0.5 <= u < nx - 0.5 and -0.5 <= v < ny - 0.5 for u, v in uv])
    np.testing.assert_array_equal(inside, on_face)
    assert values[uv.index((2.5, 2.5))] == data[3, 3, 3]
    for axis in range(3):
        for far in (-1e6, 1e6):
            shift = [1.0, 2.0, 2.0]
            shift[axis] = far
            cases.append((RigidTransform((0.1, -0.2, 0.05), tuple(shift)), uv))
    cases += [
        (RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), tuple(rng.uniform(-3, 8, 3))),
         rng.uniform(-2, 9, (40, 2)))
        for _ in range(50)
    ]
    cases.append((RigidTransform((0.3, 0.0, 0.0), (1.0, 1.0, 1.0)), np.empty((0, 2))))
    # the labels, a uint16 gray volume with zeros and its full range, a mask
    gray = (data * 317 % 65536).astype(np.uint16)
    gray[::2, 1::3] = 0
    gray[4, 5, 6] = 65535
    for vol in (data, gray, rng.random(data.shape) > 0.5):
        for t, points in cases:
            values, inside = sample_plane(vol, t, points)
            expect_values, expect_inside = _sample_plane_loop(vol, t, points)
            assert values.dtype == vol.dtype
            np.testing.assert_array_equal(inside, expect_inside)
            np.testing.assert_array_equal(values, expect_values)
    assert not sample_plane(data, cases[5][0], uv)[1].any()  # shifted 1e6 off along x


def test_result_file_roundtrip(tmp_path):
    from tomoseg.register import RegistrationResult

    t = RigidTransform((0.1, -0.2, 0.3), (1.5, -2.5, 30.0))
    res = RegistrationResult(t, 1234, 0.987)
    path = tmp_path / "reg.txt"
    write_result(res, path)
    back = read_transform(path)
    np.testing.assert_allclose(back.angles, t.angles, atol=1e-12)
    np.testing.assert_allclose(back.translation, t.translation, atol=1e-12)


class _OverlapWithBrokenRepr(float):
    """A normalized overlap whose line cannot be formatted: the write fails
    after the first lines are written."""

    def __repr__(self):
        raise OSError("disk full")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_result_write_leaves_no_partial_file(tmp_path, existing):
    from tomoseg.register import RegistrationResult

    path = tmp_path / "reg.txt"
    old = RegistrationResult(RigidTransform((0.1, -0.2, 0.3), (1.5, -2.5, 30.0)), 1234, 0.987)
    if existing:
        write_result(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    res = RegistrationResult(
        RigidTransform((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)), 7, _OverlapWithBrokenRepr(0.5)
    )
    with pytest.raises(OSError, match="disk full"):
        write_result(res, path)
    # no temporary left behind, and an earlier result still reads whole
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    if existing:
        np.testing.assert_allclose(read_transform(path).translation, old.transform.translation)

