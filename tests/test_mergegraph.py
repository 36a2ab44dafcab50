import numpy as np
import pytest

from tomoseg._kernels.cc import _canonicalize
from tomoseg._kernels.recon import neighbor_offsets
from tomoseg.binarize import ball_footprint
from tomoseg.mergegraph import (
    FEATURE_DIM,
    _fit_neighborhoods,
    _moments,
    build_region_graph,
    extract_edge_features,
    features_to_csv,
    merge_regions,
    read_features_csv,
)
from tomoseg._kernels.convsep import sobel_magnitude_at

from conftest import (
    THIN_SHAPES, correlate_axis_oracle, face_touching, labels, mirror, scalar, shifted_slices,
    split_scan_offsets, traced_peak,
)


def adjacency_oracle(lab):
    """All-pairs 26-adjacency scan, plain loops."""
    nz, ny, nx = lab.shape
    edges = set()
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                a = lab[z, y, x]
                if a == 0:
                    continue
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            zz, yy, xx = z + dz, y + dy, x + dx
                            if not (0 <= zz < nz and 0 <= yy < ny and 0 <= xx < nx):
                                continue
                            b = lab[zz, yy, xx]
                            if b > 0 and b != a:
                                edges.add((min(a, b), max(a, b)))
    return edges


def region_graph_oracle(lab):
    """Interface voxels per edge by full-volume shifted slices, one pass per
    offset after the center, the edges in sorted order."""
    n = int(lab.max())
    flat = np.arange(lab.size, dtype=np.int64).reshape(lab.shape)
    keys, voxels = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for d in split_scan_offsets(neighbor_offsets(26))[1]:
        ctr, nbr = shifted_slices(lab.shape, d)
        a, b = lab[ctr].astype(np.int64), lab[nbr].astype(np.int64)
        m = (a > 0) & (b > 0) & (a != b)
        key = np.minimum(a[m], b[m]) * (n + 1) + np.maximum(a[m], b[m])
        keys.append(np.concatenate([key, key]))
        voxels.append(np.concatenate([flat[ctr][m], flat[nbr][m]]))
    key, vox = np.concatenate(keys), np.concatenate(voxels)
    return {(int(k) // (n + 1), int(k) % (n + 1)): np.unique(vox[key == k]) for k in np.unique(key)}


def fit_neighborhoods_oracle(interfaces, lab_flat, shape, offsets, max_centers):
    """``_fit_neighborhoods`` with flat offsets in the volume itself and a
    per-axis in-bounds mask for every centre."""
    flat_offsets = offsets @ np.array([shape[1] * shape[2], shape[2], 1], np.int64)
    size = shape[0] * shape[1] * shape[2]
    coords_all, centre_edge, centre_row, ks, hits = [], [], [], [], []
    base = 0
    for e, iface in enumerate(interfaces):
        m = len(iface)
        coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
        coords_all.append(coords)
        if m >= 7:
            other = (lab_flat[iface] != lab_flat[iface[0]]).astype(np.int64)
            order = np.argsort(other, kind="stable")
            key = other[order] * size + iface[order]
            centres = np.arange(0, m, max(1, int(np.ceil(m / max_centers))))
            inside = np.ones((len(centres), len(offsets)), bool)
            for axis in range(3):
                c = coords[centres, axis, None] + offsets[:, axis]
                inside &= (c >= 0) & (c < shape[axis])
            ckey = (other[centres] * size + iface[centres])[:, None] + flat_offsets
            pos = np.minimum(np.searchsorted(key, ckey), m - 1)
            hit = inside & (key[pos] == ckey)
            centre_edge.append(np.full(len(centres), e, np.int64))
            centre_row.append(centres + base)
            ks.append(hit.sum(axis=1))
            hits.append(order[pos[hit]] + base)
        base += m
    pts = np.concatenate(coords_all).astype(np.float64) if coords_all else np.zeros((0, 3))
    if not centre_edge:
        empty = np.zeros(0, np.int64)
        return pts, empty, empty, empty, empty
    return (pts, np.concatenate(centre_edge), np.concatenate(centre_row), np.concatenate(ks),
            np.concatenate(hits))


def feature_ball_oracle(iface, lab_flat, shape, v1, v2):
    """Sorted flat indices of the voxels of regions v1 and v2 within the
    radius-2 ball of an interface voxel: ball coordinates added to each
    interface voxel, the out-of-bounds ones dropped."""
    coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
    nb = (coords[:, None, :] + (np.argwhere(ball_footprint(2.0)) - 2)[None]).reshape(-1, 3)
    ok = ((nb >= 0) & (nb < np.array(shape))).all(axis=1)
    nb_flat = np.unique(np.ravel_multi_index(tuple(nb[ok].T), shape))
    return nb_flat[(lab_flat[nb_flat] == v1) | (lab_flat[nb_flat] == v2)]


def sobel_oracle(f):
    """Naive full 3x3x3 correlation with mirror borders."""
    smooth = np.array([1.0, 2.0, 1.0])
    deriv = np.array([-1.0, 0.0, 1.0])
    nz, ny, nx = f.shape

    out = np.zeros(f.shape)
    for axis in range(3):
        kernels = [smooth, smooth, smooth]
        kernels[axis] = deriv
        g = np.zeros(f.shape)
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    acc = 0.0
                    for a in (-1, 0, 1):
                        for b in (-1, 0, 1):
                            for c in (-1, 0, 1):
                                w = kernels[0][a + 1] * kernels[1][b + 1] * kernels[2][c + 1]
                                acc += w * f[mirror(z + a, nz), mirror(y + b, ny), mirror(x + c, nx)]
                    g[z, y, x] = acc
        out += g * g
    return np.sqrt(out)


def curvature_oracle(coords, side, fit_radius=3.0, max_centers=120):
    """Mean |H| of one interface fitted one centre at a time: the loop that
    ``_mean_abs_curvature`` batches, kept as its reference."""
    m = coords.shape[0]
    if m < 7:
        return 0.0
    pts = coords.astype(np.float64)
    step = max(1, int(np.ceil(m / max_centers)))
    r2 = fit_radius * fit_radius
    sigma2 = (fit_radius / 2.0) ** 2
    total = 0.0
    count = 0
    for ci in range(0, m, step):
        p = pts[ci]
        own = pts[side == side[ci]]
        d2 = ((own - p) ** 2).sum(axis=1)
        nb = own[d2 <= r2]
        if nb.shape[0] < 7:
            continue
        wgt = np.exp(-((nb - p) ** 2).sum(axis=1) / (2.0 * sigma2))
        mu = (nb * wgt[:, None]).sum(axis=0) / wgt.sum()
        q = nb - mu
        _, vecs = np.linalg.eigh((q * wgt[:, None]).T @ q)
        e1, e2, nrm = vecs[:, 2], vecs[:, 1], vecs[:, 0]
        u = q @ e1
        v = q @ e2
        w = q @ nrm
        design = np.column_stack([np.ones_like(u), u, v, u * u, u * v, v * v])
        gram = (design * wgt[:, None]).T @ design
        rhs = (design * wgt[:, None]).T @ w
        try:
            coef = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            coef, *_ = np.linalg.lstsq(design * np.sqrt(wgt)[:, None], w * np.sqrt(wgt), rcond=None)
        pq = p - mu
        up, vp = pq @ e1, pq @ e2
        fu = coef[1] + 2.0 * coef[3] * up + coef[4] * vp
        fv = coef[2] + coef[4] * up + 2.0 * coef[5] * vp
        fuu, fuv, fvv = 2.0 * coef[3], coef[4], 2.0 * coef[5]
        denom = 2.0 * (1.0 + fu * fu + fv * fv) ** 1.5
        h = ((1.0 + fv * fv) * fuu - 2.0 * fu * fv * fuv + (1.0 + fu * fu) * fvv) / denom
        total += abs(h)
        count += 1
    return total / count if count else 0.0


def two_region_volume(split=5, shape=(10, 10, 10)):
    lab = np.zeros(shape, np.int32)
    lab[:, :, :split] = 1
    lab[:, :, split:] = 2
    return labels(lab)


def test_single_region_graph():
    lab = np.zeros((4, 4, 4), np.int32)
    lab[1:3, 1:3, 1:3] = 1
    g = build_region_graph(labels(lab))
    assert g.n_regions == 1
    assert g.edges == ()


def test_triangle_graph():
    lab = np.zeros((3, 4, 4), np.int32)
    lab[:, :2, :2] = 1
    lab[:, :2, 2:] = 2
    lab[:, 2:, :] = 3  # touches both halves
    g = build_region_graph(labels(lab))
    assert set(g.edges) == {(1, 2), (2, 3), (1, 3)}


def small_phantom_labels(h_depth=0.1):
    from tomoseg import phantom, watershed
    from tomoseg.volgrid import BinaryVolume

    spec = phantom.PhantomSpec(
        dims=(48, 48, 48), count=12, size_range_um=(30, 50), aspect_range=(1.0, 2.5),
        noise_std=0.0, rng_seed=13, n_sections=0, contact_fraction=0.5,
    )
    out = phantom.generate(spec)
    mask = BinaryVolume(out.labels.data > 0, 1.0)
    return watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=h_depth))


# the 48^3 phantom's watershed, and random labels on the thin shapes that
# touch all six faces
GRAPH_CASES = [pytest.param(None, id="phantom")] + [
    pytest.param(shape, id="x".join(map(str, shape))) for shape in THIN_SHAPES]


def graph_case_labels(shape, rng):
    return small_phantom_labels(0.3) if shape is None else labels(face_touching(shape, rng))


@pytest.mark.parametrize("shape", GRAPH_CASES)
def test_graph_matches_adjacency_oracle(rng, shape):
    lab = graph_case_labels(shape, rng)
    g = build_region_graph(lab)
    assert set(g.edges) == adjacency_oracle(lab.data)
    for edge, iface in g.interfaces.items():
        assert len(iface) > 0


@pytest.mark.parametrize("shape", GRAPH_CASES)
def test_graph_matches_shifted_slice_oracle(rng, shape):
    lab = graph_case_labels(shape, rng)
    g = build_region_graph(lab)
    want = region_graph_oracle(lab.data)
    assert g.edges == tuple(want)
    for edge, iface in g.interfaces.items():
        assert iface.dtype == np.int64
        np.testing.assert_array_equal(iface, want[edge])


@pytest.mark.parametrize("shape", GRAPH_CASES)
def test_neighborhoods_match_bounds_masked_oracle(rng, shape):
    lab = graph_case_labels(shape, rng)
    shape = lab.data.shape
    g = build_region_graph(lab)
    ifaces = list(g.interfaces.values())
    lab_flat = lab.data.ravel()
    offsets = np.argwhere(ball_footprint(3.0)) - 3
    got = _fit_neighborhoods(ifaces, lab_flat, shape, offsets, 120)
    want = fit_neighborhoods_oracle(ifaces, lab_flat, shape, offsets, 120)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the gray and gradient moments read exactly the oracle's ball voxels,
    # and the gradient there is the whole-volume Sobel's, bitwise
    for data in _sobel_inputs(rng, shape):
        gray = scalar(data)
        assert_moments_match_oracle(g, gray, lab, extract_edge_features(g, gray, lab))


def assert_moments_match_oracle(g, gray, lab, feats):
    """f1-f8 are the moments of the gray values and of the whole-volume
    Sobel magnitude on each edge's oracle ball voxels, bitwise."""
    lab_flat = lab.data.ravel()
    gray_flat = gray.data.ravel()
    grad = sobel_whole_volume(gray.data).ravel()
    for edge, iface in g.interfaces.items():
        nb = feature_ball_oracle(iface, lab_flat, lab.data.shape, *edge)
        moments = [*_moments(gray_flat[nb].astype(np.float64)), *_moments(grad[nb])]
        assert feats[edge][:8].tobytes() == np.array(moments).tobytes(), edge


def test_interface_voxels_touch_both_regions():
    lab = two_region_volume()
    g = build_region_graph(lab)
    iface = g.interfaces[(1, 2)]
    coords = np.column_stack(np.unravel_index(iface, lab.data.shape))
    # the interface of a flat split at x=5 is the two voxel layers x in {4, 5}
    assert set(coords[:, 2]) == {4, 5}
    assert len(iface) == 200


def sobel_everywhere(data):
    """``sobel_magnitude_at`` at every voxel, in the volume's shape."""
    return sobel_magnitude_at(data, np.arange(data.size)).reshape(data.shape)


def test_sobel_constant_zero():
    g = sobel_everywhere(np.full((5, 5, 5), 123, np.uint16))
    np.testing.assert_allclose(g, 0.0, atol=1e-9)


def test_sobel_ramp_interior_magnitude():
    nz = ny = nx = 7
    slope = 3.0
    data = (np.arange(nx) * slope)[None, None, :] * np.ones((nz, ny, 1))
    g = sobel_everywhere(data.astype(np.uint16))
    np.testing.assert_allclose(g[2:-2, 2:-2, 2:-2], 32.0 * slope, rtol=1e-12)


def test_sobel_matches_naive_convolution(rng):
    data = rng.integers(0, 2000, (5, 5, 5)).astype(np.uint16)
    got = sobel_everywhere(data)
    np.testing.assert_allclose(got, sobel_oracle(data.astype(float)), rtol=1e-10)


def sobel_whole_volume(data):
    """The Sobel magnitude over whole-volume float64 passes, the formulation
    before point-wise reads, and their oracle."""
    from tomoseg._kernels.convsep import SOBEL_DERIV, SOBEL_SMOOTH, correlate_separable

    field = np.asarray(data, np.float64)
    acc = np.zeros_like(field)
    for axis in range(3):
        weights = [SOBEL_SMOOTH, SOBEL_SMOOTH, SOBEL_SMOOTH]
        weights[axis] = SOBEL_DERIV
        g = correlate_separable(field, weights)
        acc += g * g
    return np.sqrt(acc)


# one-, two- and three-plane volumes along each axis: every voxel borders
SOBEL_SHAPES = [(1, 1, 1), (1, 6, 5), (2, 7, 5), (3, 6, 7), (5, 1, 9), (6, 8, 2), (13, 11, 12)]


def _sobel_inputs(rng, shape):
    """Random uint16, the largest responses (a 0/65535 checkerboard), and a
    constant at full scale."""
    checker = np.indices(shape).sum(axis=0) % 2 * 65535
    return [rng.integers(0, 65536, shape).astype(np.uint16), checker.astype(np.uint16),
            np.full(shape, 65535, np.uint16)]


@pytest.mark.parametrize("shape", SOBEL_SHAPES)
def test_sobel_pointwise_equals_whole_field(rng, monkeypatch, shape):
    from tomoseg._kernels import convsep

    monkeypatch.setattr(convsep, "SOBEL_POINTS", 7)  # chunks end anywhere
    for data in _sobel_inputs(rng, shape):
        want = sobel_whole_volume(data).ravel()
        everywhere = np.arange(data.size)
        assert convsep.sobel_magnitude_at(data, everywhere).tobytes() == want.tobytes()
        some = rng.integers(0, data.size, 23)  # any order, repeats allowed
        assert convsep.sobel_magnitude_at(data, some).tobytes() == want[some].tobytes()
    assert convsep.sobel_magnitude_at(data, np.zeros(0, np.int64)).shape == (0,)


def test_sobel_pointwise_equals_whole_field_in_default_chunks(rng):
    from tomoseg._kernels.convsep import sobel_magnitude_at

    data = rng.integers(0, 65536, (20, 40, 30)).astype(np.uint16)
    want = sobel_whole_volume(data).ravel()
    assert sobel_magnitude_at(data, np.arange(data.size)).tobytes() == want.tobytes()


def test_correlate_separable_matches_axis_oracle(rng):
    from tomoseg._kernels.convsep import correlate_separable, gaussian_kernel

    # an asymmetric kernel tells correlation from convolution; on the
    # 2x3x2 volume the radius-3 Gaussian is longer than every axis, so
    # indices fold more than once
    for shape, k in (((6, 7, 8), rng.normal(size=5)), ((6, 7, 8), gaussian_kernel(1.3)),
                     ((2, 3, 2), gaussian_kernel(1.0))):
        vol = rng.normal(size=shape)
        want = vol
        for axis in range(3):
            weights = [None, None, None]
            weights[axis] = k
            np.testing.assert_allclose(correlate_separable(vol, weights),
                                       correlate_axis_oracle(vol, k, axis), rtol=1e-12, atol=1e-12)
            want = correlate_axis_oracle(want, k, axis)
        np.testing.assert_allclose(correlate_separable(vol, (k, k, k)), want,
                                   rtol=1e-12, atol=1e-12)


def test_features_constant_volume():
    lab = two_region_volume()
    gray = scalar(np.full((10, 10, 10), 5000))
    g = build_region_graph(lab)
    f = extract_edge_features(g, gray, lab)[(1, 2)]
    assert f.shape == (FEATURE_DIM,)
    np.testing.assert_allclose(f[0], 5000.0)
    np.testing.assert_allclose(f[1:8], 0.0, atol=1e-9)  # std/skw/kurt and grad block
    np.testing.assert_allclose(f[15], 0.0, atol=1e-9)  # region means coincide


def test_features_flat_interface_geometry():
    lab = two_region_volume(shape=(12, 12, 12), split=6)
    gray = scalar(np.full((12, 12, 12), 900))  # gradient exactly 0
    g = build_region_graph(lab)
    f = extract_edge_features(g, gray, lab)[(1, 2)]
    ev = f[8:11]
    assert ev[0] >= ev[1] >= ev[2]
    np.testing.assert_allclose(ev.sum(), 1.0)
    assert ev[2] < 0.02  # planar: smallest direction carries almost nothing
    assert abs(f[11]) < 0.02  # curvature of a plane


def spherical_cap_labels(r=9.0, n=27):
    """Two regions split by a spherical shell: region 1 = inside the ball of
    radius r, centred on the middle voxel of an odd-sized cube."""
    zz, yy, xx = np.mgrid[0:n, 0:n, 0:n]
    c = (n - 1) / 2.0
    ball = (zz - c) ** 2 + (yy - c) ** 2 + (xx - c) ** 2 <= r * r
    return labels(np.where(ball, 1, 2))


def test_features_spherical_cap_curvature():
    r, n = 9.0, 27
    lab = spherical_cap_labels(r, n)
    gray = scalar(np.full((n, n, n), 100))  # gradient exactly 0
    g = build_region_graph(lab)
    f = extract_edge_features(g, gray, lab)[(1, 2)]
    assert abs(f[11] - 1.0 / r) / (1.0 / r) < 0.2


def voronoi_labels(n=16, cells=24, seed=2):
    """Nearest-seed cells of random seeds: about a hundred curved, digitized
    interfaces, some with only a few fitted centres."""
    pts = np.random.default_rng(seed).uniform(0, n, (cells, 3))
    grid = np.stack(np.mgrid[0:n, 0:n, 0:n], axis=-1)
    return labels(((grid[..., None, :] - pts) ** 2).sum(axis=-1).argmin(axis=-1) + 1)


def row_pair_labels(length):
    """Regions 1 and 2 are adjacent one-voxel rows along x: every voxel is an
    interface voxel, and a row centre has at most 7 same-side neighbours, all
    on one line, so its quadric normal equations are singular."""
    lab = np.zeros((1, 2, length), np.int32)
    lab[0, 0] = 1
    lab[0, 1] = 2
    return labels(lab)


def few_voxel_interface_labels():
    lab = np.zeros((3, 3, 5), np.int32)
    lab[1, 1, 1:3] = 1
    lab[1, 1, 3] = 2
    return labels(lab)


def fit_counts(lab):
    """Neighbour count of every sampled centre, and the interface sizes."""
    ifaces = list(build_region_graph(lab).interfaces.values())
    offsets = np.argwhere(ball_footprint(3.0)) - 3
    k = _fit_neighborhoods(ifaces, lab.data.ravel(), lab.data.shape, offsets, 120)[3]
    return k, [len(i) for i in ifaces]


@pytest.mark.parametrize("case", ["phantom", "voronoi", "spherical_cap", "few_voxels",
                                  "short_rows", "singular_rows"])
def test_curvature_bitwise_equal_to_per_centre_oracle(case, monkeypatch):
    # the phantom and Voronoi cases hold enough fitted centres that an array
    # ``** 1.5`` in the curvature denominator (1 ulp off scalar pow on ~5% of
    # inputs) changes some edge
    lab = {
        "phantom": small_phantom_labels,
        "voronoi": voronoi_labels,
        "spherical_cap": spherical_cap_labels,
        "few_voxels": few_voxel_interface_labels,
        "short_rows": lambda: row_pair_labels(4),
        "singular_rows": lambda: row_pair_labels(12),
    }[case]()
    k, sizes = fit_counts(lab)
    if case == "phantom":
        assert (k < 7).any() and (k >= 7).any() and min(sizes) < 7
    if case == "few_voxels":
        assert max(sizes) < 7  # no centre is fitted at all
    if case == "short_rows":
        assert min(sizes) >= 7 and (k < 7).all()  # centres exist, none has 7 neighbours
    lstsq_calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: lstsq_calls.append(1) or lstsq(*a, **kw))
    shape = lab.data.shape
    gray = scalar(np.full(shape, 100))  # gradient exactly 0
    g = build_region_graph(lab)
    feats = extract_edge_features(g, gray, lab)
    if case in ("phantom", "singular_rows"):
        assert lstsq_calls  # a singular Gram matrix took the least-squares fallback
    lab_flat = lab.data.ravel()
    got = np.array([feats[e][11] for e in g.edges])
    want = np.array([
        curvature_oracle(np.column_stack(np.unravel_index(iface, shape)).astype(np.int64),
                         lab_flat[iface])
        for iface in g.interfaces.values()
    ])
    assert len(got) > 0
    assert got.tobytes() == want.tobytes()


def _phantom_labels():
    from tomoseg import phantom, watershed
    from tomoseg.volgrid import BinaryVolume

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=10, size_range_um=(36, 56), aspect_range=(1.0, 2.5),
        noise_std=2000.0, contact_fraction=0.5, n_sections=0, rng_seed=7,
    )
    out = phantom.generate(spec)
    mask = BinaryVolume(out.labels.data > 0, 1.0)
    return out.gray, watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=0.5))


def test_features_without_field_on_a_phantom_and_their_memory():
    # no gradient field: the guarded labels (about 4 bytes per voxel) and
    # foreground-sized arrays. The full-volume gray copy and whole-volume
    # region counts took 16 beside a 40-byte Sobel field, and region sizes
    # counted over the whole volume 9 in the region graph.
    gray, lab = _phantom_labels()
    g, peak = traced_peak(lambda: build_region_graph(lab))
    assert len(g.edges) >= 2
    assert peak / lab.data.size <= 6.5, peak / lab.data.size
    feats, peak = traced_peak(lambda: extract_edge_features(g, gray, lab))
    assert peak / lab.data.size <= 8, peak / lab.data.size
    assert_moments_match_oracle(g, gray, lab, feats)


def test_region_sizes_count_every_voxel(rng):
    for shape in THIN_SHAPES + [(9, 10, 11)]:
        lab = labels(face_touching(shape, rng))
        g = build_region_graph(lab)
        assert g.region_sizes.dtype == np.int64
        np.testing.assert_array_equal(g.region_sizes, np.bincount(lab.data.ravel()))


def test_merge_no_weights_identity_partition():
    lab = two_region_volume()
    g = build_region_graph(lab)
    merged = merge_regions(lab, g, {(1, 2): 0.0}, 0.5)
    assert merged.n_labels == 2
    # same partition, relabeled deterministically
    np.testing.assert_array_equal(merged.data, lab.data)


def test_merge_all_weights_one_single_particle():
    lab = two_region_volume()
    g = build_region_graph(lab)
    merged = merge_regions(lab, g, {(1, 2): 1.0}, 0.5)
    assert merged.n_labels == 1


def test_merge_requires_all_weights():
    lab = two_region_volume()
    g = build_region_graph(lab)
    with pytest.raises(ValueError, match="missing"):
        merge_regions(lab, g, {}, 0.5)


def csgraph_merge(lab, graph, weights, lam):
    """The merge through scipy.sparse's graph components, the formulation
    before the union-find, and its oracle."""
    from scipy.sparse import coo_matrix, csgraph

    kept = np.array([e for e in graph.edges if weights[e] >= lam], np.int64).reshape(-1, 2)
    n = graph.n_regions + 1
    adjacency = coo_matrix((np.ones(len(kept), np.int8), (kept[:, 0], kept[:, 1])), shape=(n, n))
    _, component = csgraph.connected_components(adjacency, directed=False)
    remap = component.astype(np.int32) + 1
    remap[0] = 0  # background stays background
    return _canonicalize(remap[lab.data])


# random labels on a line: runs of neighbouring regions are chained by edges
# that the sorted edge list visits out of chain order; and random labels in
# a block, with background voxels and denser adjacency
@pytest.mark.parametrize("shape, n", [((1, 1, 60), 40), ((6, 6, 6), 30)])
def test_merge_matches_csgraph_oracle(rng, shape, n):
    for _ in range(5):
        lab = labels(_canonicalize(rng.integers(0, n + 1, shape)))
        g = build_region_graph(lab)
        weights = {e: float(rng.random()) for e in g.edges}
        for lam in (0.0, 0.3, 0.6, 0.9, 1.0):
            merged = merge_regions(lab, g, weights, lam)
            np.testing.assert_array_equal(merged.data, csgraph_merge(lab, g, weights, lam))


def test_merge_does_not_load_scipy_sparse():
    # loading scipy.sparse keeps about 11 MB resident in the process; no
    # tomoseg module may import it, the merge included
    import os
    import subprocess
    import sys

    import tomoseg

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tomoseg.__file__)))
    code = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import tomoseg, tomoseg.cli\n"
        "for m in pkgutil.walk_packages(tomoseg.__path__, 'tomoseg.'):\n"
        "    importlib.import_module(m.name)\n"
        "from tomoseg.mergegraph import build_region_graph, merge_regions\n"
        "from tomoseg.volgrid import LabelVolume\n"
        "lab = LabelVolume(np.repeat(np.arange(1, 4, dtype=np.int32), 4).reshape(1, 3, 4), 1.0)\n"
        "g = build_region_graph(lab)\n"
        "assert merge_regions(lab, g, {e: 1.0 for e in g.edges}, 0.5).n_labels == 1\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"


def test_merge_monotone_in_lambda(rng):
    from tomoseg._kernels.cc import connected_components_mask

    for _ in range(5):
        mask = rng.random((12, 12, 12)) > 0.55
        lab = labels(connected_components_mask(mask, 6))
        if lab.n_labels < 3:
            continue
        g = build_region_graph(lab)
        weights = {e: float(rng.random()) for e in g.edges}
        lam1, lam2 = sorted(rng.random(2))
        coarse = merge_regions(lab, g, weights, lam1)
        fine = merge_regions(lab, g, weights, lam2)
        # partition at lam1 must coarsen partition at lam2: every fine class
        # maps into exactly one coarse class
        pairs = set(zip(fine.data.ravel()[mask.ravel()], coarse.data.ravel()[mask.ravel()]))
        fine_ids = {}
        for f_id, c_id in pairs:
            assert fine_ids.setdefault(f_id, c_id) == c_id


def test_merge_never_splits(rng):
    lab = two_region_volume()
    g = build_region_graph(lab)
    for lam in (0.2, 0.8):
        merged = merge_regions(lab, g, {(1, 2): 0.5}, lam)
        # voxel partition refined: all voxels of an input region share one output label
        for v in (1, 2):
            assert len(np.unique(merged.data[lab.data == v])) == 1


def test_features_invariant_under_relabeling(rng):
    from tomoseg import phantom, watershed
    from tomoseg.volgrid import BinaryVolume, LabelVolume

    spec = phantom.PhantomSpec(
        dims=(48, 48, 48), count=6, size_range_um=(28, 44), aspect_range=(1.0, 2.0),
        noise_std=300.0, rng_seed=21, n_sections=0, contact_fraction=0.5,
    )
    out = phantom.generate(spec)
    mask = BinaryVolume(out.labels.data > 0, 1.0)
    lab = watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=0.5))
    if lab.n_labels < 2:
        pytest.skip("phantom produced a single region")
    g = build_region_graph(lab)
    feats = extract_edge_features(g, out.gray, lab)

    perm = np.r_[0, np.random.default_rng(3).permutation(lab.n_labels) + 1]
    relabeled = LabelVolume(perm[lab.data], 1.0)
    g2 = build_region_graph(relabeled)
    feats2 = extract_edge_features(g2, out.gray, relabeled)
    for (v1, v2), f in feats.items():
        e2 = (min(perm[v1], perm[v2]), max(perm[v1], perm[v2]))
        np.testing.assert_allclose(feats2[e2], f, rtol=1e-9, atol=1e-12)


def test_gradient_block_shift_invariant(rng):
    lab = two_region_volume(shape=(8, 8, 8), split=4)
    base = rng.integers(500, 1500, (8, 8, 8)).astype(np.uint16)
    g = build_region_graph(lab)
    f1 = extract_edge_features(g, scalar(base), lab)
    f2 = extract_edge_features(g, scalar(base + 700), lab)
    np.testing.assert_allclose(f1[(1, 2)][4:8], f2[(1, 2)][4:8], rtol=1e-9)


def test_csv_roundtrip(tmp_path, rng):
    lab = two_region_volume()
    gray = scalar(rng.integers(0, 4000, (10, 10, 10)).astype(np.uint16))
    g = build_region_graph(lab)
    feats = extract_edge_features(g, gray, lab)
    path = tmp_path / "edges.csv"
    features_to_csv(path, g, feats, {(1, 2): 1})
    header = path.read_text().splitlines()[0]
    assert header == "v1,v2," + ",".join(f"f{i}" for i in range(1, 19)) + ",label"
    edges, x, y = read_features_csv(path)
    assert edges == [(1, 2)]
    np.testing.assert_array_equal(x[0], feats[(1, 2)])
    assert y[0] == 1.0
