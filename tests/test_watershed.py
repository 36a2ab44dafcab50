from collections import deque

import numpy as np
import pytest

from tomoseg._kernels.cc import connected_components_mask
from tomoseg._kernels.recon import neighbor_offsets
from tomoseg.binarize import distance_transform
from tomoseg.watershed import (
    WatershedParams,
    extended_minima_markers,
    marker_watershed,
    watershed_segment,
)

from conftest import THIN_SHAPES, ball_mask, binary, labels, shifted_slices, traced_peak


def bfs_components_oracle(mask, connectivity):
    if connectivity == 6:
        offs = [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)]
    else:
        offs = [
            (a, b, c)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
            for c in (-1, 0, 1)
            if (a, b, c) != (0, 0, 0)
        ]
    nz, ny, nx = mask.shape
    out = np.zeros(mask.shape, np.int32)
    label = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x] or out[z, y, x]:
                    continue
                label += 1
                q = deque([(z, y, x)])
                out[z, y, x] = label
                while q:
                    cz, cy, cx = q.popleft()
                    for a, b, c in offs:
                        zz, yy, xx = cz + a, cy + b, cx + c
                        if 0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx:
                            if mask[zz, yy, xx] and not out[zz, yy, xx]:
                                out[zz, yy, xx] = label
                                q.append((zz, yy, xx))
    return out


def inv_edt(mask):
    dist = distance_transform(mask)
    return np.where(mask.data, -dist, 0.0)


def test_cc_empty():
    out = labels(connected_components_mask(np.zeros((3, 3, 3), bool), 26))
    assert out.n_labels == 0


def test_cc_connectivity_semantics():
    m = np.zeros((3, 3, 3), bool)
    m[0, 0, 0] = True
    m[1, 1, 1] = True
    assert labels(connected_components_mask(m, 26)).n_labels == 1
    assert labels(connected_components_mask(m, 6)).n_labels == 2


@pytest.mark.parametrize("connectivity", [6, 26])
def test_cc_matches_bfs_oracle(rng, connectivity):
    for _ in range(3):
        m = rng.random((10, 10, 10)) > 0.6
        got = connected_components_mask(m, connectivity)
        np.testing.assert_array_equal(got, bfs_components_oracle(m, connectivity))


def test_single_ball_single_marker():
    m = binary(ball_mask((24, 24, 24), (12, 12, 12), 8))
    markers = extended_minima_markers(inv_edt(m), m, WatershedParams(h_depth=2.0))
    assert markers.n_labels == 1


def test_fused_balls_two_markers():
    shape = (36, 36, 60)
    m = binary(ball_mask(shape, (18, 18, 18), 14) | ball_mask(shape, (18, 18, 42), 14))
    markers = extended_minima_markers(inv_edt(m), m, WatershedParams(h_depth=2.0))
    assert markers.n_labels == 2


def test_huge_h_merges_all_markers():
    shape = (36, 36, 60)
    m = binary(ball_mask(shape, (18, 18, 18), 14) | ball_mask(shape, (18, 18, 42), 14))
    markers = extended_minima_markers(inv_edt(m), m, WatershedParams(h_depth=100.0))
    assert markers.n_labels == 1


def test_empty_mask_empty_markers():
    m = binary(np.zeros((4, 4, 4), bool))
    markers = extended_minima_markers(np.zeros((4, 4, 4)), m, WatershedParams())
    assert markers.n_labels == 0


def test_marker_outside_mask_rejected():
    m = binary(np.zeros((3, 3, 3), bool))
    mk = np.zeros((3, 3, 3), np.int32)
    mk[1, 1, 1] = 1
    with pytest.raises(ValueError, match="inside the mask"):
        marker_watershed(np.zeros((3, 3, 3)), labels(mk), m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_height_in_mask_rejected(bad):
    m = np.zeros((3, 3, 3), bool)
    m[1] = True
    mk = np.zeros((3, 3, 3), np.int32)
    mk[1, 0, 0] = 1
    height = np.zeros((3, 3, 3))
    height[0, 1, 1] = bad  # outside the mask: ignored
    assert marker_watershed(height, labels(mk), binary(m)).data[1].min() == 1
    height[1, 2, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        marker_watershed(height, labels(mk), binary(m))


def test_single_marker_floods_whole_ball():
    m = binary(ball_mask((20, 20, 20), (10, 10, 10), 7))
    mk = np.zeros((20, 20, 20), np.int32)
    mk[10, 10, 10] = 1
    out = marker_watershed(inv_edt(m), labels(mk), m)
    np.testing.assert_array_equal(out.data > 0, m.data)
    assert out.n_labels == 1


def test_partition_and_region_count(rng):
    m = binary(
        ball_mask((30, 30, 52), (15, 15, 14), 11) | ball_mask((30, 30, 52), (15, 15, 36), 11)
    )
    params = WatershedParams(h_depth=2.0)
    markers = extended_minima_markers(inv_edt(m), m, params)
    out = marker_watershed(inv_edt(m), markers, m)
    assert out.n_labels == markers.n_labels  # region count = marker count
    assert ((out.data > 0) == m.data).all()  # exact partition of the mask
    assert (out.data[~m.data] == 0).all()


def test_two_ball_split_near_bisector():
    shape = (34, 34, 56)
    c1, c2 = (17, 17, 16), (17, 17, 40)
    m = binary(ball_mask(shape, c1, 13) | ball_mask(shape, c2, 13))
    lab = watershed_segment(m, WatershedParams(h_depth=2.0))
    assert lab.n_labels == 2
    # foreground voxels next to a voxel of the other label
    line = np.zeros(lab.data.shape, bool)
    for d in neighbor_offsets(26):
        ctr, nbr = shifted_slices(lab.data.shape, d)
        a, b = lab.data[ctr], lab.data[nbr]
        line[ctr] |= (a > 0) & (b > 0) & (a != b)
    pts = np.argwhere(line)
    # analytic bisector plane: z = 28 (midway along the last axis)
    dist_to_plane = np.abs(pts[:, 2] - 28.0)
    frac = (dist_to_plane <= 1.0).mean()
    assert frac >= 0.95


def test_ground_truth_cores_recover_particles(rng):
    # markers from eroded ground truth must flood back to ~the truth
    from tomoseg import phantom

    spec = phantom.PhantomSpec(
        dims=(72, 72, 72), count=20, size_range_um=(45, 70), aspect_range=(1.0, 2.0),
        noise_std=0.0, rng_seed=5, n_sections=0, contact_fraction=0.4,
    )
    out = phantom.generate(spec)
    gt = out.labels
    mask = binary(gt.data > 0)
    # cores: voxels deeper than 2 from the surface keep their gt label
    dist = distance_transform(mask)
    cores = np.where(dist > 2.0, gt.data, 0).astype(np.int32)
    # relabel cores contiguously preserving gt identity per core
    ids = np.unique(cores)
    remap = np.zeros(gt.data.max() + 1, np.int32)
    remap[ids[ids > 0]] = np.arange(1, (ids > 0).sum() + 1)
    lab = marker_watershed(np.where(mask.data, -dist, 0.0), labels(remap[cores]), mask)
    agree = (remap[gt.data][mask.data] == lab.data[mask.data]).mean()
    assert agree >= 0.95


def test_watershed_deterministic():
    m = binary(
        ball_mask((28, 28, 44), (14, 14, 12), 10) | ball_mask((28, 28, 44), (14, 14, 30), 10)
    )
    a = watershed_segment(m, WatershedParams(h_depth=1.0))
    b = watershed_segment(m, WatershedParams(h_depth=1.0))
    np.testing.assert_array_equal(a.data, b.data)


def test_oversegmentation_never_undersplits():
    # region count >= true particle count: each marker sits inside one particle
    from tomoseg import phantom

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=10, size_range_um=(40, 70), aspect_range=(1.0, 3.0),
        noise_std=0.0, rng_seed=9, n_sections=0, contact_fraction=0.5,
    )
    out = phantom.generate(spec)
    mask = binary(out.labels.data > 0)
    lab = watershed_segment(mask, WatershedParams(h_depth=0.5))
    assert lab.n_labels >= 10


@pytest.mark.parametrize("shape", [(6, 6, 6), (1, 1, 1), (1, 4, 5)])
def test_all_foreground_mask_is_one_region(shape):
    # the distance is +inf everywhere: one plateau, so one region
    out = watershed_segment(binary(np.ones(shape, bool)), WatershedParams())
    assert out.n_labels == 1
    assert (out.data == 1).all()
    assert watershed_segment(binary(np.zeros(shape, bool)), WatershedParams()).n_labels == 0


def reconstruct_erosion_where(marker, lower, mask, connectivity):
    """Reconstruction over whole float64 copies made by ``np.where`` and
    ``astype``, a new volume per round: the formulation before two buffers
    swapped, and its oracle."""
    from scipy import ndimage

    from tomoseg._kernels.recon import neighbor_structure

    rec = np.where(mask, marker, 1e18).astype(np.float64)
    low = np.where(mask, lower, 1e18).astype(np.float64)
    footprint = neighbor_structure(connectivity)
    while True:
        eroded = ndimage.grey_erosion(rec, footprint=footprint, mode="constant", cval=1e18)
        nxt = np.maximum(low, eroded)
        nxt[~mask] = 1e18
        if np.array_equal(nxt, rec):
            return nxt
        rec = nxt


@pytest.mark.parametrize("connectivity", [6, 26])
def test_reconstruction_bitwise_equals_where_formulation(rng, connectivity):
    from tomoseg._kernels.recon import reconstruct_erosion

    for shape in THIN_SHAPES + [(9, 10, 11), (16, 17, 15)]:
        for dtype in (np.float64, np.float32):
            mask = rng.random(shape) < 0.8
            # few distinct heights: plateaus that take several rounds to fill
            lower = (-rng.integers(0, 6, shape) / 2).astype(dtype)
            marker = lower + dtype(rng.choice([0.5, 1.0, 2.5]))
            # non-finite values outside the mask are ignored
            lower[~mask] = rng.choice([np.nan, np.inf, -np.inf], int((~mask).sum()))
            marker[~mask] = np.nan
            got = reconstruct_erosion(marker, lower, mask, connectivity)
            want = reconstruct_erosion_where(marker, lower, mask, connectivity)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
    m = binary(ball_mask((36, 36, 60), (18, 18, 18), 14) | ball_mask((36, 36, 60), (18, 18, 42), 14))
    inv = inv_edt(m)
    got = reconstruct_erosion(inv + 2.0, inv, m.data, connectivity)
    assert got.tobytes() == reconstruct_erosion_where(inv + 2.0, inv, m.data, connectivity).tobytes()


def _fused_balls_64():
    shape = (64, 64, 64)
    return binary(ball_mask(shape, (32, 32, 18), 15) | ball_mask(shape, (32, 32, 44), 13))


def test_reconstruction_memory_per_voxel():
    # two swapped float64 buffers (16 bytes per voxel) and two bool masks;
    # the np.where copies with a new volume per round took 33
    from tomoseg._kernels.recon import reconstruct_erosion

    m = _fused_balls_64()
    inv = inv_edt(m)
    marker = inv + 0.5
    out, peak = traced_peak(lambda: reconstruct_erosion(marker, inv, m.data, 26))
    assert out.tobytes() == reconstruct_erosion_where(marker, inv, m.data, 26).tobytes()
    assert peak / inv.size <= 22, peak / inv.size


def test_watershed_memory_per_voxel():
    # set in the reconstruction: the inverted distance, the marker and the
    # reconstruction's two buffers, about 35 bytes per voxel; with the
    # distance's whole-volume temporaries and np.where copies it took 57
    m = _fused_balls_64()
    out, peak = traced_peak(lambda: watershed_segment(m, WatershedParams(h_depth=0.5)))
    assert out.n_labels >= 2
    assert peak / m.data.size <= 40, peak / m.data.size
