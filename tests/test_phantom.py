import numpy as np
import pytest

from tomoseg import binarize, mergegraph, watershed
from tomoseg.attenuation import load_mineral_table
from tomoseg.phantom import (
    PhantomSpec,
    adjusted_rand_index,
    edge_training_set,
    generate,
    instrument_line,
    parse_spec_file,
    render_mla_section,
    section_to_voxel_mask,
)
from tomoseg.register import RigidTransform
from tomoseg.volgrid import LabelPlane

from conftest import map_plane_points, render_section_mask


def small_spec(**kw):
    base = dict(
        dims=(64, 64, 64), count=8, size_range_um=(40, 70), aspect_range=(1.0, 2.0),
        noise_std=300.0, rng_seed=1, n_sections=1, contact_fraction=0.3,
    )
    base.update(kw)
    return PhantomSpec(**base)


def test_single_particle_no_noise_exact_levels():
    table = load_mineral_table()
    spec = small_spec(count=1, noise_std=0.0, contact_fraction=0.0, n_sections=0)
    out = generate(spec, table)
    a, b = out.instrument_line
    code = out.particles[0].mineral_code
    expect = round(a * table.by_code(code).rho_mu + b)
    inside = out.gray.data[out.labels.data > 0]
    outside = out.gray.data[out.labels.data == 0]
    assert (inside == expect).all()
    assert (outside == round(spec.background_gray)).all()


def test_same_seed_bit_identical():
    spec = small_spec()
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.gray.data, b.gray.data)
    np.testing.assert_array_equal(a.labels.data, b.labels.data)
    np.testing.assert_array_equal(a.mineral_of_label, b.mineral_of_label)
    for sa, sb in zip(a.sections, b.sections):
        np.testing.assert_array_equal(sa.plane.data, sb.plane.data)
        assert sa.transform == sb.transform


def test_mineral_fractions_binomial():
    spec = PhantomSpec(
        dims=(160, 160, 160), count=200, size_range_um=(18, 26), aspect_range=(1.0, 1.5),
        elongated_fraction=0.0, noise_std=0.0, rng_seed=3, n_sections=0,
        contact_fraction=0.0,
        mineral_fractions={"quartz": 0.5, "topaz": 0.5},
    )
    out = generate(spec)
    table = load_mineral_table()
    quartz = sum(1 for p in out.particles if p.mineral_code == table.by_name("quartz").code)
    assert abs(quartz / 200 - 0.5) <= 0.07


def test_fractions_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        PhantomSpec(mineral_fractions={"quartz": 0.5})


def test_particles_disjoint_and_inside():
    spec = small_spec(count=10, contact_fraction=0.6, rng_seed=7)
    out = generate(spec)
    # every positive label occupies voxels; labels partition the foreground
    counts = np.bincount(out.labels.data.ravel())
    assert len(counts) == spec.count + 1
    assert (counts[1:] > 0).all()
    # nothing on the volume faces: particles placed fully inside
    assert out.labels.data[0].max() == 0 and out.labels.data[-1].max() == 0
    assert out.labels.data[:, 0].max() == 0 and out.labels.data[:, -1].max() == 0


def superellipsoid_oracle(labels, rot, center, semi, expo, label, check_only):
    """The plain definition |u/a|^p + |v/b|^p + |w/c|^p <= 1 at every voxel
    of the grid; returns (hit count, new labels)."""
    out = labels.copy()
    r = rot.tolist()
    hit = 0
    for z, y, x in np.ndindex(labels.shape):
        d = (x - center[0], y - center[1], z - center[2])
        u, v, w = ((r[i][0] * d[0] + r[i][1] * d[1] + r[i][2] * d[2]) / semi[i] for i in range(3))
        if abs(u) ** expo + abs(v) ** expo + abs(w) ** expo <= 1.0:
            if out[z, y, x] != 0:
                hit += 1
            elif not check_only:
                out[z, y, x] = label
    return hit, out


def stamp_full_box(labels, rot, center, semi, expo, label, check_only=False) -> int:
    """The stamp evaluated on every voxel of the bounding box, overlap tests
    included: the formulation the kernel's claimed-voxels-only overlap test
    must reproduce count for count."""
    nz, ny, nx = labels.shape
    reach = float(np.max(semi)) + 1.0
    x0 = max(0, int(np.floor(center[0] - reach)))
    x1 = min(nx, int(np.ceil(center[0] + reach)) + 1)
    y0 = max(0, int(np.floor(center[1] - reach)))
    y1 = min(ny, int(np.ceil(center[1] + reach)) + 1)
    z0 = max(0, int(np.floor(center[2] - reach)))
    z1 = min(nz, int(np.ceil(center[2] + reach)) + 1)
    if x0 >= x1 or y0 >= y1 or z0 >= z1:
        return 0
    rot = np.ascontiguousarray(rot, np.float64)
    center = np.ascontiguousarray(center, np.float64)
    semi = np.ascontiguousarray(semi, np.float64)
    expo = float(expo)
    z, y, x = np.meshgrid(
        np.arange(z0, z1, dtype=np.float64),
        np.arange(y0, y1, dtype=np.float64),
        np.arange(x0, x1, dtype=np.float64),
        indexing="ij",
    )
    dx, dy, dz = x - center[0], y - center[1], z - center[2]
    u = (rot[0, 0] * dx + rot[0, 1] * dy + rot[0, 2] * dz) / semi[0]
    v = (rot[1, 0] * dx + rot[1, 1] * dy + rot[1, 2] * dz) / semi[1]
    w = (rot[2, 0] * dx + rot[2, 1] * dy + rot[2, 2] * dz) / semi[2]
    power = np.abs(u) ** expo + np.abs(v) ** expo + np.abs(w) ** expo
    if expo >= 2.0:
        box = (np.abs(u) <= 1.0) & (np.abs(v) <= 1.0) & (np.abs(w) <= 1.0)
        inside = box & ((u * u + v * v + w * w <= 1.0) | (power <= 1.0))
    else:
        inside = power <= 1.0
    block = labels[z0:z1, y0:y1, x0:x1]
    hit = int((inside & (block != 0)).sum())
    if not check_only:
        block[inside & (block == 0)] = label
    return hit


@pytest.mark.parametrize("expo", [1.5, 2.0, 3.5])
def test_stamp_superellipsoid_matches_oracle(rng, expo):
    from tomoseg._kernels.render import stamp_superellipsoid

    # the axis-aligned placement with integer center and semi-axes puts
    # voxels exactly on the surface (power sum exactly 1)
    placements = [(np.eye(3), (8.0, 9.0, 7.0), (5.0, 3.0, 4.0))]
    for _ in range(3):
        rot = RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), (0, 0, 0)).rotation()
        placements.append((rot, tuple(rng.uniform(1.0, 15.0, 3)), tuple(rng.uniform(2.0, 6.0, 3))))
    for rot, center, semi in placements:
        claimed = np.where(rng.random((16, 16, 16)) > 0.95, 7, 0).astype(np.int32)
        for check_only in (True, False):
            got = claimed.copy()
            hit = stamp_superellipsoid(got, rot, center, semi, expo, 3, check_only=check_only)
            want_hit, want = superellipsoid_oracle(claimed, rot, center, semi, expo, 3, check_only)
            assert hit == want_hit
            assert (got[claimed != 0] == 7).all()
            np.testing.assert_array_equal(got, want)


def test_ground_truth_partitions_rendered_foreground():
    spec = small_spec(noise_std=0.0, n_sections=0)
    out = generate(spec)
    assert ((out.gray.data > spec.background_gray + 1) == (out.labels.data > 0)).all()


def test_packing_failure_reports():
    spec = PhantomSpec(
        dims=(48, 48, 48), count=400, size_range_um=(40, 60), aspect_range=(1.0, 1.5),
        noise_std=0.0, rng_seed=1, n_sections=0,
    )
    with pytest.raises(RuntimeError, match="lower the count"):
        generate(spec)


def test_mla_section_single_particle_disk():
    table = load_mineral_table()
    spec = small_spec(count=1, noise_std=0.0, contact_fraction=0.0, n_sections=0)
    out = generate(spec, table)
    cz = out.particles[0].center[2]
    t = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, cz))
    plane = render_mla_section(out, t, mla_spacing_um=1.0)
    codes = plane.codes()
    assert list(codes) == [out.particles[0].mineral_code]
    # the section through the center is a filled blob of that code
    assert (plane.data == codes[0]).sum() > 100


def test_mla_section_code_counts_match_truth():
    spec = small_spec(rng_seed=5)
    out = generate(spec)
    sec = out.sections[0]
    ratio = out.pixel_to_voxel
    jj, ii = np.meshgrid(
        np.arange(sec.plane.data.shape[0]), np.arange(sec.plane.data.shape[1]), indexing="ij"
    )
    uv = np.column_stack([ii.ravel() * ratio, jj.ravel() * ratio])
    pts = map_plane_points(sec.transform, uv, out.labels.data.shape)
    idx = np.floor(pts + 0.5).astype(np.int64)
    nx, ny, nz = spec.dims
    ok = ((idx >= 0).all(axis=1) & (idx[:, 0] < nx) & (idx[:, 1] < ny) & (idx[:, 2] < nz))
    expect = np.zeros(len(uv), np.uint8)
    expect[ok] = out.mineral_of_label[out.labels.data[idx[ok, 2], idx[ok, 1], idx[ok, 0]]]
    np.testing.assert_array_equal(sec.plane.data.ravel(), expect)


def test_section_plane_must_intersect():
    spec = small_spec(n_sections=0)
    out = generate(spec)
    t = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, 500.0))
    with pytest.raises(ValueError, match="intersect"):
        render_mla_section(out, t, 1.0)


def test_section_to_voxel_mask_consistent():
    spec = small_spec(rng_seed=11, noise_std=0.0)
    out = generate(spec)
    sec = out.sections[0]
    mask = section_to_voxel_mask(sec.plane, out.pixel_to_voxel, spec.spacing)
    direct = render_section_mask(
        out, sec.transform, plane_dims=(mask.data.shape[2], mask.data.shape[1])
    )
    agree = (mask.data[0] == direct).mean()
    assert agree > 0.99  # majority coarsening vs direct sampling differ at rims only


def test_section_to_voxel_mask_places_fine_pixel_at_nearest_voxel():
    # fine pixel i sits at i * ptv voxels and votes for voxel
    # floor(i * ptv + 0.5); at ptv 0.75 some voxels get one vote per axis,
    # others two (a 2x2 tie, which goes to background)
    ptv, n = 0.75, 12
    nearest = np.floor(np.arange(n) * ptv + 0.5).astype(int)
    votes = np.bincount(nearest)
    for i in range(n):
        fine = np.zeros((n, n), np.uint8)
        fine[i, i] = 3
        coarse = section_to_voxel_mask(LabelPlane(fine, 1.0), ptv, 1.0).data[0]
        assert coarse.shape == (9, 9)
        k = nearest[i]
        expect = np.zeros((9, 9), bool)
        expect[k, k] = votes[k] == 1
        np.testing.assert_array_equal(coarse, expect)


def test_edge_training_labels():
    spec = small_spec(count=10, rng_seed=9, noise_std=300.0, contact_fraction=0.6, n_sections=0)
    out = generate(spec)
    mask = binarize.sauvola_binarize(out.gray, binarize.SauvolaParams(window_radius=7))
    mask = binarize.morphological_opening(mask, 1.0)
    mask = binarize.remove_small_components(mask, 30)
    lab = watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=0.2))
    graph = mergegraph.build_region_graph(lab)
    grad = mergegraph.sobel_gradient_magnitude(out.gray)
    feats = mergegraph.extract_edge_features(graph, out.gray, grad, lab)
    train = edge_training_set(out, lab, graph, feats)
    assert train.features.shape[1] == mergegraph.FEATURE_DIM
    # verify against direct majority comparison
    from tomoseg.phantom import region_majorities

    maj, _ = region_majorities(lab, out.labels)
    for edge, y in zip(train.edges, train.labels):
        assert maj[edge[0]] >= 0 and maj[edge[1]] >= 0
        assert y == (1.0 if maj[edge[0]] == maj[edge[1]] else 0.0)


def test_instrument_line_recoverable():
    # running the calibration math on phantom data recovers the rendering line
    from tomoseg.attenuation import fit_attenuation

    table = load_mineral_table()
    spec = small_spec(count=12, rng_seed=13, noise_std=300.0, n_sections=0,
                      mineral_fractions={"quartz": 0.3, "zinnwaldite": 0.4, "topaz": 0.3})
    out = generate(spec, table)
    a_gen, b_gen = out.instrument_line
    samples = []
    for mineral in table.minerals:
        sel = out.mineral_of_label[out.labels.data] == mineral.code
        if sel.sum() < 100:
            continue
        samples.append((mineral.name, float(out.gray.data[sel].mean()), mineral.rho, mineral.mu_m))
    model = fit_attenuation(samples)
    assert abs(model.slope - 1.0 / a_gen) / (1.0 / a_gen) < 0.03
    assert abs(model.intercept - (-b_gen / a_gen)) < 0.03


def test_adjusted_rand_index_bounds():
    a = np.array([1, 1, 2, 2, 3, 3])
    assert adjusted_rand_index(a, a * 7) == 1.0
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, 3000)
    y = rng.integers(0, 4, 3000)
    assert abs(adjusted_rand_index(x, y)) < 0.05  # independent labelings ~ 0


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "dims=32,40,48\n"
        "spacing=4.5\n"
        "count=3\n"
        "size_range_um=30,50\n"
        "aspect_range=1.0,2.0\n"
        "mineral_fractions=quartz:0.6,topaz:0.4\n"
        "noise_std=100\n"
        "rng_seed=42\n"
        "n_sections=0\n"
    )
    spec = parse_spec_file(path)
    assert spec.dims == (32, 40, 48)
    assert spec.count == 3
    assert spec.mineral_fractions == {"quartz": 0.6, "topaz": 0.4}
    with pytest.raises(ValueError, match="unknown"):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense=1\n")
        parse_spec_file(bad)


def test_spec_file_sets_every_field(tmp_path):
    from dataclasses import fields

    spec = PhantomSpec(
        dims=(32, 40, 48), spacing=3.5, count=4, size_range_um=(30.0, 50.0),
        exponent_range=(2.5, 3.5), aspect_range=(1.0, 2.0), elongated_fraction=0.25,
        mineral_fractions={"quartz": 0.6, "topaz": 0.4}, noise_std=100.0, ring_amplitude=5.0,
        ring_period=11.0, background_gray=10.0, contact_fraction=0.2, max_contact_voxels=40,
        n_sections=3, section_max_angle_deg=4.0, section_max_shift=6.0, section_extent=0.9,
        mla_spacing_um=2.0, rng_seed=42,
    )
    default = PhantomSpec()
    assert all(getattr(spec, f.name) != getattr(default, f.name) for f in fields(spec))

    def text(value):
        if isinstance(value, tuple):
            return ",".join(repr(v) for v in value)
        if isinstance(value, dict):
            return ",".join(f"{k}:{v!r}" for k, v in value.items())
        return repr(value)

    path = tmp_path / "spec.txt"
    path.write_text("".join(f"{f.name} = {text(getattr(spec, f.name))}\n" for f in fields(spec)))
    assert parse_spec_file(path) == spec


def test_spec_file_tuple_of_wrong_length_names_the_key(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("count=3\ndims=32,40\n")
    with pytest.raises(ValueError, match=r"spec\.txt: key 'dims': expected 3 values, got 2"):
        parse_spec_file(path)


def test_instrument_line_anchored_to_reference():
    # the rendering line is the exact least squares through the reference
    # (rho*mu, mean gray) pairs; the pairs themselves scatter by up to ~850
    # around it because they are not collinear
    from tomoseg.attenuation import REFERENCE_MEAN_GRAY

    table = load_mineral_table()
    a, b = instrument_line(table)
    x = np.array([m.rho_mu for m in table.minerals])
    y = np.array([REFERENCE_MEAN_GRAY[m.name] for m in table.minerals])
    a_ols = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    assert a == pytest.approx(a_ols)
    assert b == pytest.approx(y.mean() - a_ols * x.mean())
    for m in table.minerals:
        assert abs((a * m.rho_mu + b) - REFERENCE_MEAN_GRAY[m.name]) < 900


def test_ring_artifact_rendering():
    # noise-free phantom: the background carries exactly the radial cosine
    spec = small_spec(count=1, noise_std=0.0, ring_amplitude=2000.0, ring_period=20.0,
                      contact_fraction=0.0, n_sections=0)
    out = generate(spec)
    nz, ny, nx = out.gray.data.shape
    yy, xx = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    rr = np.hypot(xx - (nx - 1) / 2.0, yy - (ny - 1) / 2.0)
    expect = spec.background_gray + 2000.0 * np.cos(2.0 * np.pi * rr / 20.0)
    expect = np.clip(np.floor(expect + 0.5), 0, 65535)
    bg = out.labels.data == 0
    for z in (0, nz // 2, nz - 1):
        sel = bg[z]
        np.testing.assert_array_equal(out.gray.data[z][sel], expect[sel])


@pytest.mark.parametrize("expo", [1.5, 2.0, 2.7, 3.5])
def test_stamp_superellipsoid_matches_full_box(rng, expo):
    from tomoseg._kernels.render import stamp_superellipsoid

    # placements as the phantom makes them, some reaching past the grid, over
    # grids claimed sparsely and densely; the integer axis-aligned ones put
    # voxels exactly on the surface
    placements = [(np.eye(3), (8.0, 9.0, 7.0), (5.0, 3.0, 4.0)),
                  (np.eye(3), (0.0, 10.0, 19.0), (4.0, 4.0, 4.0))]
    for _ in range(40):
        rot = RigidTransform(tuple(rng.uniform(-np.pi, np.pi, 3)), (0, 0, 0)).rotation()
        placements.append((rot, tuple(rng.uniform(-2.0, 22.0, 3)), tuple(rng.uniform(1.5, 8.0, 3))))
    for i, (rot, center, semi) in enumerate(placements):
        claimed = np.where(rng.random((20, 18, 16)) > (0.3, 0.9, 0.99)[i % 3], 7, 0).astype(np.int32)
        for check_only in (True, False):
            got, want = claimed.copy(), claimed.copy()
            hit = stamp_superellipsoid(got, rot, center, semi, expo, 3, check_only=check_only)
            assert hit == stamp_full_box(want, rot, center, semi, expo, 3, check_only=check_only)
            np.testing.assert_array_equal(got, want)
