import numpy as np
import pytest
from scipy import ndimage

from tomoseg.descriptors import (
    ClampStats,
    ParticleSection,
    area,
    boundary_chain,
    compute_descriptors,
    convex_hull,
    export_distributions,
    mean_width,
    particles_from_labels,
    perimeter_cornercount,
    rows_to_csv,
    shape_factors,
)
from tomoseg.phantom import section_to_voxel_mask
from tomoseg.volgrid import LabelPlane


def section_from(mask, spacing=1.0, pid=1):
    ys, xs = np.nonzero(np.asarray(mask, bool))
    return ParticleSection(pid, np.column_stack([xs, ys]), spacing)


def rect(h, w, pad=2):
    m = np.zeros((h + 2 * pad, w + 2 * pad), bool)
    m[pad : pad + h, pad : pad + w] = True
    return m


def disk(r, le=None):
    n = 2 * int(np.ceil(r)) + 5
    yy, xx = np.mgrid[0:n, 0:n]
    c = n // 2
    return (yy - c) ** 2 + (xx - c) ** 2 <= (le if le is not None else r * r)


def mean_width_oracle(mask, spacing=1.0, n_angles=10000):
    """Dense-angle directional extent of the pixel-square union region."""
    ys, xs = np.nonzero(mask)
    pts = np.column_stack([xs, ys]).astype(float)
    th = (np.arange(n_angles) + 0.5) * np.pi / n_angles
    c, s = np.cos(th), np.sin(th)
    proj = pts @ np.vstack([c, s])
    w = proj.max(axis=0) - proj.min(axis=0) + np.abs(c) + np.abs(s)
    return w.mean() * spacing


def test_area_examples(rng):
    assert area(section_from(rect(10, 10))) == 100.0
    single = np.zeros((3, 3), bool)
    single[1, 1] = True
    assert area(section_from(single, spacing=4.5)) == pytest.approx(20.25)
    blob = rng.random((12, 12)) > 0.5
    blob[0, 0] = True
    assert area(section_from(blob)) == float(blob.sum())


def test_perimeter_square():
    assert perimeter_cornercount(section_from(rect(10, 10))) == pytest.approx(37.92)


def test_perimeter_single_pixel():
    single = np.zeros((3, 3), bool)
    single[1, 1] = True
    assert perimeter_cornercount(section_from(single)) == pytest.approx(3.792)
    assert perimeter_cornercount(section_from(single, spacing=2.0)) == pytest.approx(7.584)


def test_perimeter_disk():
    p = perimeter_cornercount(section_from(disk(30)))
    assert abs(p - 2 * np.pi * 30) / (2 * np.pi * 30) < 0.02


def test_perimeter_rotated_square():
    m = 21  # diamond |dx|+|dy| <= m has side m*sqrt(2)
    yy, xx = np.mgrid[0:60, 0:60]
    dia = np.abs(yy - 30) + np.abs(xx - 30) <= m
    p = perimeter_cornercount(section_from(dia))
    true = 4 * m * np.sqrt(2)
    assert abs(p - true) / true < 0.03


def test_mean_width_disk():
    # half-pixel-aware construction: pixel union approximates the radius-30 disk
    d = disk(30, le=29.5**2)
    assert abs(mean_width(section_from(d)) - 60.0) / 60.0 < 0.01


def test_mean_width_rect():
    w = mean_width(section_from(rect(10, 20)))
    assert abs(w - 60.0 / np.pi) / (60.0 / np.pi) < 0.02


def test_mean_width_segment_matches_dense_oracle():
    m = np.zeros((3, 34), bool)
    m[1, 2:32] = True
    got = mean_width(section_from(m))
    want = mean_width_oracle(m)
    assert abs(got - want) / want < 0.001
    assert abs(got - 62.0 / np.pi) / (62.0 / np.pi) < 0.001


def test_mean_width_quadrature_accuracy(rng):
    blob = disk(12) | np.roll(disk(12), 5, axis=1)
    got = mean_width(section_from(blob))
    want = mean_width_oracle(blob)
    assert abs(got - want) / want < 0.001


def test_shape_factors_disk():
    s, c, e = shape_factors(section_from(disk(30)))
    assert s >= 0.95
    assert c >= 0.95
    assert e >= 0.95


def test_shape_factors_rectangle():
    s, c, e = shape_factors(section_from(rect(30, 10)))
    assert abs(e - 1.0 / 3.0) / (1.0 / 3.0) < 0.05
    assert c > 0.98


def test_convexity_of_convex_shapes():
    m = 21
    yy, xx = np.mgrid[0:60, 0:60]
    dia = np.abs(yy - 30) + np.abs(xx - 30) <= m
    for mask in (rect(10, 10), rect(30, 10), dia):
        _, c, _ = shape_factors(section_from(mask))
        assert c >= 0.98


def test_single_pixel_convention():
    single = np.zeros((3, 3), bool)
    single[1, 1] = True
    assert shape_factors(section_from(single)) == (1.0, 1.0, 1.0)


def test_clamping_counted():
    stats = ClampStats()
    shape_factors(section_from(rect(10, 10)), stats)
    assert stats.convexity_clamped == 1  # pixel-center hull slightly under area
    assert stats.sphericity_clamped == 0


def test_rotation_invariance_quarter_turns():
    lab = np.zeros((24, 24), np.int32)
    lab[3:9, 4:15] = 1
    lab[14:21, 6:10] = 2
    rows, _ = compute_descriptors(particles_from_labels(lab, 1.0))
    rows_rot, _ = compute_descriptors(particles_from_labels(np.rot90(lab).copy(), 1.0))
    for a, b in zip(rows, rows_rot):
        assert a.area == b.area
        assert a.perimeter == pytest.approx(b.perimeter)
        assert a.mean_width == pytest.approx(b.mean_width, rel=1e-9)
        assert a.sphericity == pytest.approx(b.sphericity)
        assert a.convexity == pytest.approx(b.convexity)
        assert a.elongation == pytest.approx(b.elongation, rel=1e-9)


def test_scale_covariance_via_spacing():
    mask = disk(14)
    fine = section_from(mask, spacing=1.0)
    coarse = section_from(mask, spacing=2.5)
    assert area(coarse) == pytest.approx(area(fine) * 2.5**2)
    assert perimeter_cornercount(coarse) == pytest.approx(perimeter_cornercount(fine) * 2.5)
    assert mean_width(coarse) == pytest.approx(mean_width(fine) * 2.5)
    assert shape_factors(coarse) == pytest.approx(shape_factors(fine))


def test_coarsening_comparability():
    # fine disk at spacing 1 vs the same shape coarsened 4.5x onto the voxel
    # lattice as the pipeline does: sizes in micrometers must agree within
    # discretization tolerances
    fine_mask = disk(60)
    fine = section_from(fine_mask, spacing=1.0)
    plane = LabelPlane(fine_mask.astype(np.uint8), 1.0)
    coarse = section_from(section_to_voxel_mask(plane, 1.0 / 4.5, 4.5).data[0], spacing=4.5)
    assert abs(area(coarse) - area(fine)) / area(fine) < 0.05
    assert abs(mean_width(coarse) - mean_width(fine)) / mean_width(fine) < 0.05
    assert abs(perimeter_cornercount(coarse) - perimeter_cornercount(fine)) / perimeter_cornercount(fine) < 0.10
    sf, cf, ef = shape_factors(fine)
    sc, cc, ec = shape_factors(coarse)
    assert abs(sf - sc) < 0.1 and abs(cf - cc) < 0.1 and abs(ef - ec) < 0.1


def test_particles_from_labels_splits_disconnected():
    lab = np.zeros((8, 8), np.int32)
    lab[1:3, 1:3] = 1
    lab[5:7, 5:7] = 1  # same label, disconnected in-plane
    secs = particles_from_labels(lab, 1.0)
    assert len(secs) == 2


def test_particles_from_labels_pieces_order_and_coords():
    lab = np.zeros((12, 14), np.uint32)
    lab[1:3, 1:3] = 5
    lab[3, 3] = 5  # touches the first block diagonally: same 8-connected piece
    lab[1:4, 8:10] = 5
    lab[9:11, 0:2] = 5
    lab[6:8, 4:12] = 2  # inside label 5's bounding box
    lab[10, 12] = 9
    lab[0, 13] = 9
    secs = particles_from_labels(lab, 0.5)
    # (label, component) order, each piece with its pixels in raster order
    want = []
    for value in (2, 5, 9):
        comp, n = ndimage.label(lab == value, structure=np.ones((3, 3), bool))
        for c in range(1, n + 1):
            ys, xs = np.nonzero(comp == c)
            want.append(np.column_stack([xs, ys]))
    assert len(want) == 6
    assert [s.particle_id for s in secs] == [1, 2, 3, 4, 5, 6]
    for sec, coords in zip(secs, want):
        np.testing.assert_array_equal(sec.coords, coords)
        assert sec.spacing == 0.5
    assert secs[1].coords.shape[0] == 5  # the diagonal pixel joined the block


def test_compute_descriptors_rows_match_public_functions(rng):
    for _ in range(5):
        mask = rng.random((16, 16)) > 0.45
        secs = particles_from_labels(mask.astype(np.int32), 1.5)
        rows, stats = compute_descriptors(secs)
        want_stats = ClampStats()
        for row, sec in zip(rows, secs):
            assert row.perimeter == perimeter_cornercount(sec)
            assert row.mean_width == mean_width(sec)
            assert (row.sphericity, row.convexity, row.elongation) == shape_factors(
                sec, want_stats
            )
        assert stats == want_stats


def test_boundary_chain_closed_on_random_blobs(rng):
    for _ in range(20):
        mask = rng.random((12, 12)) > 0.55
        for sec in particles_from_labels(mask.astype(np.int32), 1.0):
            chain = boundary_chain(sec)  # must terminate and be sane
            assert len(chain) <= 8 * sec.coords.shape[0] + 8


def test_hull_collinear_degenerate():
    pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
    hull = convex_hull(pts)
    assert hull.shape[0] == 2


def test_export_single_particle_unit_mass(tmp_path):
    rows, _ = compute_descriptors([section_from(rect(6, 6))])
    written = export_distributions(rows, bins=10, out_dir=tmp_path)
    for path in written.values():
        lines = open(path).read().splitlines()
        assert lines[0] == "bin_center,rel_freq"
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 1.0


def test_export_two_equal_particles_same_histogram(tmp_path):
    one, _ = compute_descriptors([section_from(rect(6, 6))])
    two, _ = compute_descriptors([section_from(rect(6, 6), pid=1), section_from(rect(6, 6), pid=2)])
    d1 = export_distributions(one, 8, tmp_path / "one")
    d2 = export_distributions(two, 8, tmp_path / "two")
    for key in d1:
        assert open(d1[key]).read() == open(d2[key]).read()


def test_export_area_scales_with_spacing(tmp_path):
    lab = np.zeros((20, 20), np.int32)
    lab[2:8, 2:10] = 1
    lab[12:18, 4:9] = 2
    rows1, _ = compute_descriptors(particles_from_labels(lab, 1.0))
    rows2, _ = compute_descriptors(particles_from_labels(lab, 2.0))
    a1 = sorted(r.area for r in rows1)
    a2 = sorted(r.area for r in rows2)
    np.testing.assert_allclose(a2, np.array(a1) * 4.0)


def test_csv_header(tmp_path):
    rows, _ = compute_descriptors([section_from(rect(4, 4))])
    path = tmp_path / "rows.csv"
    rows_to_csv(rows, path)
    assert path.read_text().splitlines()[0] == (
        "id,area,perimeter,mean_width,sphericity,convexity,elongation"
    )


def test_shape_factors_bounded_on_random_blobs(rng):
    for _ in range(25):
        mask = rng.random((15, 15)) > 0.5
        for sec in particles_from_labels(mask.astype(np.int32), 1.0):
            s, c, e = shape_factors(sec)
            assert 0.0 < s <= 1.0
            assert 0.0 < c <= 1.0
            assert 0.0 < e <= 1.0
