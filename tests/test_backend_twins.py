"""The four kernels with a numba twin (flooding, regional minima, grayscale
reconstruction, non-local means) must agree with their numpy versions;
TOMOSEG_BACKEND only selects a path, never a result. Twin implementations
are exercised directly so the suite covers both regardless of the active
backend; without numba the identity ``njit`` shim runs the numba twins as
plain Python, so only the tests that force TOMOSEG_BACKEND=numba need numba
itself. The other kernels have one implementation, compared with
brute-force oracles; separable correlation, which lost its numba twin, is
held to its per-voxel mirror-fold oracle here, the rest in the tests of the
modules that use them."""

import numpy as np
import pytest

from tomoseg import backend
from tomoseg._kernels import cc, convsep, flood, nlm, recon
from tomoseg.backend import HAVE_NUMBA

from conftest import correlate_axis_oracle

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")


def test_correlate_twins(rng):
    vol = rng.normal(size=(6, 7, 8))
    k = convsep.gaussian_kernel(1.3)
    for axis in range(3):
        weights = [None, None, None]
        weights[axis] = k
        np.testing.assert_allclose(convsep.correlate_separable(vol, weights),
                                   correlate_axis_oracle(vol, k, axis), rtol=1e-12, atol=1e-12)


def test_correlate_twins_tiny_volume(rng):
    # mirror folding must hold even when the kernel exceeds the axis
    vol = rng.normal(size=(2, 3, 2))
    k = convsep.gaussian_kernel(1.0)  # radius 3 > axis length
    for axis in range(3):
        weights = [None, None, None]
        weights[axis] = k
        np.testing.assert_allclose(convsep.correlate_separable(vol, weights),
                                   correlate_axis_oracle(vol, k, axis), rtol=1e-12, atol=1e-12)


def test_worker_count_bounds(monkeypatch):
    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: {0, 1})
    try:
        backend.set_thread_bound(None)
        assert backend.worker_count(64) == 2  # usable CPUs
        assert backend.worker_count(1) == 1  # never more than the parts
        backend.set_thread_bound(8)
        assert backend.worker_count(64) == 2  # never more than the CPUs
        backend.set_thread_bound(1)
        assert backend.worker_count(64) == 1
        backend.set_thread_bound(0)
        assert backend.worker_count(64) == 1
    finally:
        backend.set_thread_bound(None)


def test_nlm_twins(rng):
    img = rng.integers(0, 65536, (6, 6, 6)).astype(np.float64)
    h2 = 800.0**2
    g1 = np.exp(-(np.arange(-1, 2) ** 2) / 2.0)
    g1 = g1 / g1.sum()
    a = nlm._nlm_numba(img, h2, g1, 2)
    b = nlm._nlm_numpy(img, h2, 1, 1.0, 2)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_recon_twins(rng):
    vals = -rng.integers(0, 8, (8, 8, 8)).astype(np.float64)
    mask = rng.random((8, 8, 8)) > 0.3
    offs = recon.neighbor_offsets(26)
    fwd, bwd = recon._split_scan_offsets(offs)
    a = recon._recon_sweeps_numba(
        np.where(mask, vals + 1.5, recon._WALL).astype(np.float64),
        np.where(mask, vals, recon._WALL).astype(np.float64),
        fwd, bwd,
    )
    import tomoseg.backend as backend

    # numpy path via the public entry with the env flag forced
    import os

    os.environ[backend.ENV_VAR] = "numpy"
    try:
        b = recon.reconstruct_erosion(vals + 1.5, vals, mask, 26)
    finally:
        del os.environ[backend.ENV_VAR]
    np.testing.assert_array_equal(a[mask], b[mask])


def _minima_both(vals, mask, connectivity):
    offs = recon.neighbor_offsets(connectivity)
    a = recon._minima_numba(vals, mask, offs)
    b = recon._minima_numpy(vals, mask, offs)
    np.testing.assert_array_equal(a, b)
    return b


@pytest.mark.parametrize("connectivity", [6, 26])
def test_minima_twins(rng, connectivity):
    vals = rng.integers(0, 5, (9, 9, 9)).astype(np.float64)
    mask = rng.random((9, 9, 9)) > 0.25
    _minima_both(vals, mask, connectivity)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_minima_twins_flat_and_border_plateaus(connectivity):
    mask = np.ones((5, 6, 7), bool)
    mask[2, 3, 3] = False
    flat = np.full(mask.shape, 4.0)
    assert np.array_equal(_minima_both(flat, mask, connectivity), mask)
    assert not _minima_both(flat, np.zeros(mask.shape, bool), connectivity).any()
    # a low plateau along the x = 0 face is a minimum; one on the x = 6
    # face drains into the interior and is not
    vals = np.full(mask.shape, 3.0)
    vals[:, :, 0] = 1.0
    vals[:, :, 6] = 5.0
    got = _minima_both(vals, mask, connectivity)
    np.testing.assert_array_equal(got, mask & (vals == 1.0))


def _flood_both(height, markers, mask, connectivity):
    offs = recon.neighbor_offsets(connectivity)
    a = flood._flood_numba(height, markers, mask, offs)
    b = flood._flood_numpy(height, markers, mask, offs)
    np.testing.assert_array_equal(a, b)
    return b


@pytest.mark.parametrize("connectivity", [6, 26])
def test_flood_twins(rng, connectivity):
    mask = rng.random((10, 10, 10)) > 0.3
    height = rng.integers(0, 6, (10, 10, 10)).astype(np.float64)
    markers = np.zeros((10, 10, 10), np.int32)
    seeds = np.argwhere(mask)[:4]
    for i, (z, y, x) in enumerate(seeds, start=1):
        markers[z, y, x] = i
    _flood_both(height, markers, mask, connectivity)


@pytest.mark.parametrize("connectivity", [6, 26])
def test_flood_twins_wide_plateaus_touching_markers(connectivity):
    # every voxel of a wide step ties with its level, so insertion order
    # alone splits each step between the touching markers
    mask = np.ones((6, 14, 16), bool)
    height = np.broadcast_to(np.arange(16) // 5, mask.shape).astype(np.float64)
    markers = np.zeros(mask.shape, np.int32)
    markers[3, 7, 2] = 1
    markers[3, 7, 3] = 2
    markers[2, 6, 3] = 3
    markers[3, 8, 1] = 1
    out = _flood_both(height, markers, mask, connectivity)
    assert set(np.unique(out)) == {1, 2, 3}


@pytest.mark.parametrize("connectivity", [6, 26])
def test_flood_twins_pit_below_current_level(connectivity):
    # both labels reach their ridge at height 5, label 1 first; crossing it
    # reaches a pit at height 1, which pops at once and fills with label 1
    # before label 2's ridge voxel pops
    height = np.array([0, 0, 0, 0, 0, 5, 1, 1, 2, 1, 5, 0, 0, 0, 0, 0], np.float64)
    height = np.tile(height, (2, 3, 1))
    mask = np.ones(height.shape, bool)
    markers = np.zeros(height.shape, np.int32)
    markers[0, 1, 0] = 1
    markers[0, 1, 15] = 2
    out = _flood_both(height, markers, mask, connectivity)
    np.testing.assert_array_equal(out, np.broadcast_to(np.where(np.arange(16) < 10, 1, 2), out.shape))


@pytest.mark.parametrize("connectivity", [6, 26])
def test_flood_twins_no_markers_or_empty_mask(rng, connectivity):
    mask = rng.random((5, 6, 7)) > 0.3
    height = rng.random(mask.shape)
    none = np.zeros(mask.shape, np.int32)
    assert not _flood_both(height, none, mask, connectivity).any()
    assert not _flood_both(height, none, np.zeros(mask.shape, bool), connectivity).any()


def test_watershed_kernel_twins_on_touching_balls():
    # EDT heights of touching balls at about 32^3, like the pipeline's masks
    from conftest import ball_mask, binary
    from tomoseg.binarize import distance_transform
    from tomoseg.watershed import WatershedParams

    shape = (30, 32, 34)
    m = (
        ball_mask(shape, (15, 12, 11), 8)
        | ball_mask(shape, (15, 19, 23), 9)
        | ball_mask(shape, (9, 22, 12), 6)
    )
    inv = np.where(m, -distance_transform(binary(m)), 0.0)
    rec = recon.reconstruct_erosion(inv + WatershedParams().h_depth, inv, m, 26)
    minima = _minima_both(rec, m, 26)
    markers = cc.connected_components_mask(minima, 26)
    assert markers.max() >= 2
    out = _flood_both(inv, markers, m, 26)
    np.testing.assert_array_equal(out > 0, m)


@needs_numba
def test_backend_env_flag(monkeypatch):
    import tomoseg.backend as backend

    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    assert backend.selected() == "numpy"
    monkeypatch.setenv(backend.ENV_VAR, "numba")
    assert backend.selected() == "numba"
    monkeypatch.setenv(backend.ENV_VAR, "cuda")
    with pytest.raises(ValueError):
        backend.selected()


@needs_numba
def test_watershed_identical_across_backends(monkeypatch):
    # end-to-end determinism: the public pipeline gives bit-identical labels
    # under both backends
    from conftest import ball_mask, binary
    from tomoseg.watershed import WatershedParams, watershed_segment

    m = binary(ball_mask((24, 24, 40), (12, 12, 12), 9) | ball_mask((24, 24, 40), (12, 12, 28), 9))
    results = {}
    import tomoseg.backend as backend

    for name in ("numba", "numpy"):
        monkeypatch.setenv(backend.ENV_VAR, name)
        results[name] = watershed_segment(m, WatershedParams(h_depth=1.0)).data
    np.testing.assert_array_equal(results["numba"], results["numpy"])
