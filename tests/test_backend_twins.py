"""Flooding, regional minima and grayscale reconstruction are each held to
an independent plain-Python oracle that reaches the same result by another
algorithm: a binary heap ordered by (height, insertion seq) for the bucket
queue, a breadth-first spread of "not minimal" for the plateau components,
and sequential raster sweeps for the erosion rounds. Non-local means is
held to its per-voxel definition. Separable correlation is held to its
per-voxel mirror-fold oracle here; the other kernels are compared with
brute-force oracles in the tests of the modules that use them.
TOMOSEG_BACKEND is not read: every kernel has one implementation."""

import numpy as np
import pytest

from tomoseg import backend
from tomoseg._kernels import cc, convsep, flood, nlm, recon

from conftest import correlate_axis_oracle, nlm_oracle

_WALL = recon._WALL


# ---------------------------------------------------------------- oracles


def _less(pr, sq, i, j):
    if pr[i] != pr[j]:
        return pr[i] < pr[j]
    return sq[i] < sq[j]


def _swap(pr, sq, lb, ix, i, j):
    pr[i], pr[j] = pr[j], pr[i]
    sq[i], sq[j] = sq[j], sq[i]
    lb[i], lb[j] = lb[j], lb[i]
    ix[i], ix[j] = ix[j], ix[i]


def _sift_up(pr, sq, lb, ix, c):
    while c > 0:
        parent = (c - 1) >> 1
        if _less(pr, sq, c, parent):
            _swap(pr, sq, lb, ix, c, parent)
            c = parent
        else:
            break


def _sift_down(pr, sq, lb, ix, n):
    c = 0
    while True:
        left = 2 * c + 1
        right = left + 1
        best = c
        if left < n and _less(pr, sq, left, best):
            best = left
        if right < n and _less(pr, sq, right, best):
            best = right
        if best == c:
            return
        _swap(pr, sq, lb, ix, c, best)
        c = best


def _flood_heap(height, markers, mask, offs):
    nz, ny, nx = height.shape
    out = markers.copy()
    fg = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if mask[z, y, x]:
                    fg += 1
    cap = max(1024, 2 * fg + 16)
    pr = np.empty(cap, np.float64)
    sq = np.empty(cap, np.int64)
    lb = np.empty(cap, np.int32)
    ix = np.empty(cap, np.int64)
    n = 0
    seq = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if out[z, y, x] == 0:
                    continue
                for k in range(offs.shape[0]):
                    zz = z + offs[k, 0]
                    yy = y + offs[k, 1]
                    xx = x + offs[k, 2]
                    if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                        if mask[zz, yy, xx] and out[zz, yy, xx] == 0:
                            if n == cap:
                                cap *= 2
                                pr2 = np.empty(cap, np.float64)
                                sq2 = np.empty(cap, np.int64)
                                lb2 = np.empty(cap, np.int32)
                                ix2 = np.empty(cap, np.int64)
                                pr2[:n] = pr
                                sq2[:n] = sq
                                lb2[:n] = lb
                                ix2[:n] = ix
                                pr, sq, lb, ix = pr2, sq2, lb2, ix2
                            pr[n] = height[zz, yy, xx]
                            sq[n] = seq
                            lb[n] = out[z, y, x]
                            ix[n] = (zz * ny + yy) * nx + xx
                            seq += 1
                            n += 1
                            _sift_up(pr, sq, lb, ix, n - 1)
    while n > 0:
        label = lb[0]
        i = ix[0]
        n -= 1
        _swap(pr, sq, lb, ix, 0, n)
        _sift_down(pr, sq, lb, ix, n)
        z = i // (ny * nx)
        rem = i % (ny * nx)
        y = rem // nx
        x = rem % nx
        if out[z, y, x] != 0:
            continue
        out[z, y, x] = label
        for k in range(offs.shape[0]):
            zz = z + offs[k, 0]
            yy = y + offs[k, 1]
            xx = x + offs[k, 2]
            if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                if mask[zz, yy, xx] and out[zz, yy, xx] == 0:
                    if n == cap:
                        cap *= 2
                        pr2 = np.empty(cap, np.float64)
                        sq2 = np.empty(cap, np.int64)
                        lb2 = np.empty(cap, np.int32)
                        ix2 = np.empty(cap, np.int64)
                        pr2[:n] = pr
                        sq2[:n] = sq
                        lb2[:n] = lb
                        ix2[:n] = ix
                        pr, sq, lb, ix = pr2, sq2, lb2, ix2
                    pr[n] = height[zz, yy, xx]
                    sq[n] = seq
                    lb[n] = label
                    ix[n] = (zz * ny + yy) * nx + xx
                    seq += 1
                    n += 1
                    _sift_up(pr, sq, lb, ix, n - 1)
    return out


def _recon_sweeps(rec, low, offs_fwd, offs_bwd):
    nz, ny, nx = rec.shape
    changed = True
    while changed:
        changed = False
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    cur = rec[z, y, x]
                    if cur >= _WALL:
                        continue
                    m = cur
                    for k in range(offs_fwd.shape[0]):
                        zz = z + offs_fwd[k, 0]
                        yy = y + offs_fwd[k, 1]
                        xx = x + offs_fwd[k, 2]
                        if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                            if rec[zz, yy, xx] < m:
                                m = rec[zz, yy, xx]
                    val = max(low[z, y, x], m)
                    if val != cur:
                        rec[z, y, x] = val
                        changed = True
        for z in range(nz - 1, -1, -1):
            for y in range(ny - 1, -1, -1):
                for x in range(nx - 1, -1, -1):
                    cur = rec[z, y, x]
                    if cur >= _WALL:
                        continue
                    m = cur
                    for k in range(offs_bwd.shape[0]):
                        zz = z + offs_bwd[k, 0]
                        yy = y + offs_bwd[k, 1]
                        xx = x + offs_bwd[k, 2]
                        if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                            if rec[zz, yy, xx] < m:
                                m = rec[zz, yy, xx]
                    val = max(low[z, y, x], m)
                    if val != cur:
                        rec[z, y, x] = val
                        changed = True
    return rec


def _minima_spread(val, mask, offs):
    nz, ny, nx = val.shape
    nonmin = np.zeros((nz, ny, nx), np.uint8)
    queue = np.empty(nz * ny * nx, np.int64)
    qn = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x]:
                    continue
                for k in range(offs.shape[0]):
                    zz = z + offs[k, 0]
                    yy = y + offs[k, 1]
                    xx = x + offs[k, 2]
                    if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                        if mask[zz, yy, xx] and val[zz, yy, xx] < val[z, y, x]:
                            nonmin[z, y, x] = 1
                            queue[qn] = (z * ny + y) * nx + x
                            qn += 1
                            break
    head = 0
    while head < qn:
        i = queue[head]
        head += 1
        z = i // (ny * nx)
        rem = i % (ny * nx)
        y = rem // nx
        x = rem % nx
        for k in range(offs.shape[0]):
            zz = z + offs[k, 0]
            yy = y + offs[k, 1]
            xx = x + offs[k, 2]
            if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                if mask[zz, yy, xx] and nonmin[zz, yy, xx] == 0 and val[zz, yy, xx] == val[z, y, x]:
                    nonmin[zz, yy, xx] = 1
                    queue[qn] = (zz * ny + yy) * nx + xx
                    qn += 1
    out = np.zeros((nz, ny, nx), np.bool_)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                out[z, y, x] = mask[z, y, x] and nonmin[z, y, x] == 0
    return out


# ---------------------------------------------------------------- tests


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
    a = nlm_oracle(img, 800.0, 1.0, 1, 2)
    b = nlm.nlm_field(img, 800.0, 1, 1.0, 2)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_recon_twins(rng):
    vals = -rng.integers(0, 8, (8, 8, 8)).astype(np.float64)
    mask = rng.random((8, 8, 8)) > 0.3
    offs = recon.neighbor_offsets(26)
    fwd, bwd = recon._split_scan_offsets(offs)
    a = _recon_sweeps(
        np.where(mask, vals + 1.5, _WALL).astype(np.float64),
        np.where(mask, vals, _WALL).astype(np.float64),
        fwd, bwd,
    )
    b = recon.reconstruct_erosion(vals + 1.5, vals, mask, 26)
    np.testing.assert_array_equal(a[mask], b[mask])


def _minima_both(vals, mask, connectivity):
    offs = recon.neighbor_offsets(connectivity)
    a = _minima_spread(vals, mask, offs)
    b = recon.regional_minima(vals, mask, connectivity)
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
    a = _flood_heap(height, markers, mask, offs)
    b = flood.priority_flood(height, markers, mask, offs)
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


def test_backend_env_var_is_ignored(monkeypatch):
    # TOMOSEG_BACKEND selects nothing: any value leaves the labels as unset
    from conftest import ball_mask, binary
    from tomoseg.watershed import WatershedParams, watershed_segment

    m = binary(ball_mask((24, 24, 40), (12, 12, 12), 9) | ball_mask((24, 24, 40), (12, 12, 28), 9))
    params = WatershedParams(h_depth=1.0)
    monkeypatch.delenv("TOMOSEG_BACKEND", raising=False)
    unset = watershed_segment(m, params).data
    for value in ("numba", "cuda"):
        monkeypatch.setenv("TOMOSEG_BACKEND", value)
        np.testing.assert_array_equal(watershed_segment(m, params).data, unset)
