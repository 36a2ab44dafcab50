"""Region adjacency graph of a watershed labeling, per-edge features, and
threshold-based merging of oversegmented regions.

Each edge carries an 18-entry feature vector describing the dividing surface
between two regions and its surroundings:

    f1-f4    mean, std, skewness, kurtosis of the grayscale values in the
             interface neighborhood (interface voxels dilated by a ball of
             radius 2, clipped to the union of the two regions)
    f5-f8    the same four moments of the absolute Sobel gradient there
    f9-f11   eigenvalues of the PCA of the interface voxel coordinates,
             sorted descending and normalized to sum 1
    f12      mean absolute local curvature of the interface surface
             (quadric fit over radius-3 neighborhoods, 1/voxel units)
    f13      log interface voxel count
    f14-f15  log region voxel counts, sorted ascending
    f16      absolute difference of the two region mean grayscales
    f17-f18  region mean grayscales, sorted ascending
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels.cc import _canonicalize
from ._kernels.convsep import sobel_magnitude_field
from ._kernels.recon import _shifted_slices, _split_scan_offsets, neighbor_offsets
from .volgrid import LabelVolume, ScalarVolume, _atomic_text

FEATURE_DIM = 18


def _ball_offsets(radius: float) -> np.ndarray:
    r = int(np.ceil(radius))
    ax = np.arange(-r, r + 1)
    gz, gy, gx = np.meshgrid(ax, ax, ax, indexing="ij")
    offs = np.column_stack([gz.ravel(), gy.ravel(), gx.ravel()])
    keep = (offs**2).sum(axis=1) <= radius * radius
    return offs[keep].astype(np.int64)


@dataclass(frozen=True)
class RegionGraph:
    n_regions: int
    edges: tuple  # ((v1, v2), ...) with v1 < v2, lexicographically sorted
    interfaces: dict  # edge -> sorted flat voxel indices of the dividing surface
    region_sizes: np.ndarray  # voxel count per region id (index 0 = background)
    shape: tuple


def build_region_graph(labels: LabelVolume) -> RegionGraph:
    """Vertices are region ids; an edge joins every 26-adjacent region pair.
    Interface voxels are the voxels of either region that touch the other."""
    lab = labels.data
    n = labels.n_labels
    flat = np.arange(lab.size, dtype=np.int64).reshape(lab.shape)
    keys = []
    voxels = []
    # scanning the 13 offsets after the center covers all 26 neighbor pairs once
    for d in _split_scan_offsets(neighbor_offsets(26))[1]:
        ctr, nbr = _shifted_slices(lab.shape, d)
        a = lab[ctr]
        b = lab[nbr]
        m = (a > 0) & (b > 0) & (a != b)
        if not m.any():
            continue
        av = a[m].astype(np.int64)
        bv = b[m].astype(np.int64)
        lo = np.minimum(av, bv)
        hi = np.maximum(av, bv)
        key = lo * (n + 1) + hi
        keys.append(np.concatenate([key, key]))
        voxels.append(np.concatenate([flat[ctr][m], flat[nbr][m]]))
    sizes = np.bincount(lab.ravel(), minlength=n + 1).astype(np.int64)
    if not keys:
        return RegionGraph(n, (), {}, sizes, lab.shape)
    key = np.concatenate(keys)
    vox = np.concatenate(voxels)
    order = np.lexsort((vox, key))
    key, vox = key[order], vox[order]
    keep = np.ones(len(key), bool)
    keep[1:] = (key[1:] != key[:-1]) | (vox[1:] != vox[:-1])
    key, vox = key[keep], vox[keep]
    bounds = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    edges = []
    interfaces = {}
    for s, e in zip(bounds[:-1], bounds[1:]):
        k = int(key[s])
        edge = (k // (n + 1), k % (n + 1))
        edges.append(edge)
        interfaces[edge] = vox[s:e]
    return RegionGraph(n, tuple(edges), interfaces, sizes, lab.shape)


def sobel_gradient_magnitude(vol: ScalarVolume) -> np.ndarray:
    """Per-voxel Euclidean norm of the three 3D Sobel responses."""
    return sobel_magnitude_field(vol.data.astype(np.float64))


def _moments(vals: np.ndarray):
    if vals.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    mu = float(vals.mean())
    sd = float(vals.std())
    if sd == 0.0:
        return mu, 0.0, 0.0, 0.0
    z = (vals - mu) / sd
    return mu, sd, float(np.mean(z**3)), float(np.mean(z**4))


def _pca_eigenvalues(coords: np.ndarray):
    if coords.shape[0] < 2:
        return np.full(3, 1.0 / 3.0)
    cov = np.cov(coords.T.astype(np.float64), bias=True)
    ev = np.linalg.eigvalsh(cov)[::-1]
    ev = np.maximum(ev, 0.0)
    total = ev.sum()
    if total <= 0.0:
        return np.full(3, 1.0 / 3.0)
    return ev / total


def _fit_neighborhoods(interfaces, lab_flat: np.ndarray, shape: tuple, offsets: np.ndarray,
                       max_centers: int):
    """Sampled fit centres of every interface and their same-side neighbours.

    Returns ``(pts, centre_edge, centre_row, k, hits)``: the float64 coordinates
    of all interface voxels, interface after interface; per centre its
    interface's position, its row in ``pts`` and its neighbour count; and the
    neighbour rows of every centre, centre after centre. ``offsets`` must be
    in lexicographic order, which is flat-index order, so each centre's
    neighbours come in the row order of its interface.
    """
    flat_offsets = offsets @ np.array([shape[1] * shape[2], shape[2], 1], np.int64)
    size = shape[0] * shape[1] * shape[2]
    coords_all, centre_edge, centre_row, ks, hits = [], [], [], [], []
    base = 0
    for e, iface in enumerate(interfaces):
        m = len(iface)
        coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
        coords_all.append(coords)
        if m >= 7:
            # key (side, flat index) sorts each side's voxels in flat order
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


def _mean_abs_curvature(interfaces, lab_flat: np.ndarray, shape: tuple, fit_radius: float = 3.0,
                        max_centers: int = 120) -> np.ndarray:
    """Mean |H| of each interface surface (sorted flat voxel indices into a
    volume of ``shape`` labelled by ``lab_flat``): per sampled voxel, fit a
    local quadric height field in the PCA frame of its radius-3 neighborhood.

    Neighborhoods stay on the voxel's own side of the interface (the
    two-layer interface slab would otherwise thicken every fit), points are
    Gaussian distance-weighted (sigma = fit_radius/2, which trims the
    flattening bias of the estimated tangent frame), and up to
    ``max_centers`` evenly strided voxels are sampled to keep feature
    extraction cheap on large interfaces. A centre with fewer than 7
    neighbours, and an interface under 7 voxels, is skipped; an interface
    with no fitted centre reads 0.

    The fits of every centre of every interface run batched: centres with
    the same neighbour count k are stacked, and each step is one numpy call
    on the stack. The result is bitwise that of fitting one centre at a
    time, because each step does the same arithmetic in the same order per
    centre: neighbours keep their row order, elementwise ufuncs act per
    element, axis sums reduce a length-3 or length-k axis as the per-centre
    sums do, and stacked matmul, eigh and solve make the same BLAS/LAPACK
    call per matrix. Two steps need care. The ``** 1.5`` of the curvature
    denominator is a scalar ``pow`` per centre, since numpy's array power
    differs from scalar ``pow`` in the last bit on some inputs. And each
    interface's |H| values are summed one by one in centre order. A stack
    with a singular Gram matrix is solved centre by centre, through
    least squares where the matrix is singular.
    """
    offsets = _ball_offsets(fit_radius)
    pts, centre_edge, centre_row, k, hits = _fit_neighborhoods(
        interfaces, lab_flat, shape, offsets, max_centers)
    start = np.cumsum(k) - k
    fitted = np.flatnonzero(k >= 7)
    habs = np.zeros(len(k))
    sigma2 = (fit_radius / 2.0) ** 2
    for size in np.unique(k[fitted]):
        group = fitted[k[fitted] == size]
        nb = pts[hits[start[group][:, None] + np.arange(size)]]
        p = pts[centre_row[group]]
        wgt = np.exp(-((nb - p[:, None]) ** 2).sum(axis=2) / (2.0 * sigma2))
        mu = (nb * wgt[..., None]).sum(axis=1) / wgt.sum(axis=1)[:, None]
        q = nb - mu[:, None]
        _, vecs = np.linalg.eigh((q * wgt[..., None]).transpose(0, 2, 1) @ q)
        e1, e2, nrm = vecs[..., 2:3], vecs[..., 1:2], vecs[..., 0:1]
        u = (q @ e1)[..., 0]
        v = (q @ e2)[..., 0]
        w = q @ nrm
        design = np.stack([np.ones_like(u), u, v, u * u, u * v, v * v], axis=-1)
        dw = (design * wgt[..., None]).transpose(0, 2, 1)
        gram = dw @ design
        rhs = dw @ w
        try:
            coef = np.linalg.solve(gram, rhs)[..., 0]
        except np.linalg.LinAlgError:
            coef = np.array([_solve_or_lstsq(*a) for a in zip(gram, rhs[..., 0], design, wgt, w[..., 0])])
        pq = (p - mu)[:, None, :]
        up, vp = (pq @ e1)[:, 0, 0], (pq @ e2)[:, 0, 0]
        c = coef.T
        fu = c[1] + 2.0 * c[3] * up + c[4] * vp
        fv = c[2] + c[4] * up + 2.0 * c[5] * vp
        fuu, fuv, fvv = 2.0 * c[3], c[4], 2.0 * c[5]
        base = 1.0 + fu * fu + fv * fv
        denom = 2.0 * np.fromiter(map(math.pow, base, itertools.repeat(1.5)), np.float64, len(base))
        h = ((1.0 + fv * fv) * fuu - 2.0 * fu * fv * fuv + (1.0 + fu * fu) * fvv) / denom
        habs[group] = np.abs(h)
    # per interface, sum |H| one centre at a time in centre order
    n = len(interfaces)
    counts = np.bincount(centre_edge[fitted], minlength=n)
    table = np.zeros((n, max(1, int(counts.max(initial=0)))))
    rank = np.arange(len(fitted)) - (np.cumsum(counts) - counts)[centre_edge[fitted]]
    table[centre_edge[fitted], rank] = habs[fitted]
    totals = np.add.accumulate(table, axis=1)[:, -1]
    return np.divide(totals, counts, out=np.zeros(n), where=counts > 0)


def _solve_or_lstsq(gram, rhs, design, wgt, w):
    """One centre's quadric coefficients: the normal equations, or weighted
    least squares where they are singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(design * np.sqrt(wgt)[:, None], w * np.sqrt(wgt), rcond=None)
        return coef


def extract_edge_features(
    graph: RegionGraph, gray: ScalarVolume, grad: np.ndarray, labels: LabelVolume
) -> dict:
    """Feature vector per edge; see the module docstring for the layout."""
    lab = labels.data
    shape = lab.shape
    gray_flat = gray.data.astype(np.float64).ravel()
    grad_flat = np.asarray(grad, np.float64).ravel()
    lab_flat = lab.ravel()
    counts = graph.region_sizes
    sums = np.bincount(lab_flat, weights=gray_flat, minlength=graph.n_regions + 1)
    region_mean = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    ball = _ball_offsets(2.0)
    curvature = _mean_abs_curvature(list(graph.interfaces.values()), lab_flat, shape)
    features = {}
    for (edge, iface), curv in zip(graph.interfaces.items(), curvature):
        v1, v2 = edge
        coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
        nb = coords[:, None, :] + ball[None, :, :]
        nb = nb.reshape(-1, 3)
        ok = ((nb >= 0) & (nb < np.array(shape))).all(axis=1)
        nb_flat = np.unique(np.ravel_multi_index(tuple(nb[ok].T), shape))
        sel = (lab_flat[nb_flat] == v1) | (lab_flat[nb_flat] == v2)
        nb_flat = nb_flat[sel]
        g1, g2, g3, g4 = _moments(gray_flat[nb_flat])
        a1, a2, a3, a4 = _moments(grad_flat[nb_flat])
        ev = _pca_eigenvalues(coords)
        vol_lo, vol_hi = sorted((counts[v1], counts[v2]))
        mean_lo, mean_hi = sorted((region_mean[v1], region_mean[v2]))
        features[edge] = np.array(
            [
                g1, g2, g3, g4,
                a1, a2, a3, a4,
                ev[0], ev[1], ev[2],
                curv,
                np.log(float(len(iface))),
                np.log(float(vol_lo)), np.log(float(vol_hi)),
                mean_hi - mean_lo,
                mean_lo, mean_hi,
            ],
            np.float64,
        )
    return features


def merge_regions(labels: LabelVolume, graph: RegionGraph, weights: dict, lam: float) -> LabelVolume:
    """Merge regions joined by edges with weight >= lam; connected components
    of the kept edges become one region each. Output labels are contiguous,
    numbered by first voxel occurrence in scan order."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    missing = [e for e in graph.edges if e not in weights]
    if missing:
        raise ValueError(f"weights missing for {len(missing)} edges, e.g. {missing[0]}")
    # imported here: loading scipy.sparse adds about 11 MB of resident
    # memory to every process that imports this module
    from scipy.sparse import coo_matrix, csgraph

    kept = np.array([e for e in graph.edges if weights[e] >= lam], np.int64).reshape(-1, 2)
    n = graph.n_regions + 1
    adjacency = coo_matrix((np.ones(len(kept), np.int8), (kept[:, 0], kept[:, 1])), shape=(n, n))
    _, component = csgraph.connected_components(adjacency, directed=False)
    remap = component.astype(np.int32) + 1
    remap[0] = 0  # background stays background
    merged = remap[labels.data]
    return LabelVolume(_canonicalize(merged), labels.spacing)


def features_to_csv(path, graph: RegionGraph, features: dict, edge_labels: dict) -> None:
    """Training dump: one row per edge, header v1,v2,f1..f18,label."""
    cols = ",".join(f"f{i}" for i in range(1, FEATURE_DIM + 1))
    with _atomic_text(path) as fh:
        fh.write(f"v1,v2,{cols},label\n")
        for edge in graph.edges:
            if edge not in edge_labels:
                continue
            vals = ",".join(repr(float(v)) for v in features[edge])
            fh.write(f"{edge[0]},{edge[1]},{vals},{int(edge_labels[edge])}\n")


def read_features_csv(path):
    """Inverse of features_to_csv: (edges, X, y)."""
    edges = []
    rows = []
    labels = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = ["v1", "v2"] + [f"f{i}" for i in range(1, FEATURE_DIM + 1)] + ["label"]
        if header != expected:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(expected):
                raise ValueError(f"{path}: malformed row {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
            rows.append([float(v) for v in parts[2:-1]])
            labels.append(float(parts[-1]))
    return edges, np.array(rows, np.float64).reshape(len(rows), FEATURE_DIM), np.array(labels)
