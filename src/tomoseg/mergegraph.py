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
from ._kernels.convsep import sobel_magnitude_at
from ._kernels.recon import GuardedWalk, forward_offsets
from .binarize import ball_footprint
from .volgrid import LabelVolume, ScalarVolume, finite_float, read_table, write_table

FEATURE_DIM = 18
FEATURES_HEADER = ",".join(["v1,v2"] + [f"f{i}" for i in range(1, FEATURE_DIM + 1)] + ["label"])


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
    flat = lab.ravel()
    keys, voxels = [], []
    # the 13 offsets after the center cover all 26 neighbor pairs once
    for a, b in GuardedWalk(lab.shape, forward_offsets(26)).pairs(lab > 0):
        la, lb = flat[a], flat[b]
        m = la != lb
        la, lb = la[m].astype(np.int64), lb[m].astype(np.int64)
        key = np.minimum(la, lb) * (n + 1) + np.maximum(la, lb)
        keys.append(np.concatenate([key, key]))
        voxels.append(np.concatenate([a[m], b[m]]))
    # counted on the foreground: bincount casts what it counts to int64
    sizes = np.bincount(flat[flat > 0], minlength=n + 1)
    sizes[0] = flat.size - sizes.sum()
    key = np.concatenate(keys)
    vox = np.concatenate(voxels)
    if not len(key):
        return RegionGraph(n, (), {}, sizes, lab.shape)
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
    walk = GuardedWalk(shape, offsets)
    coords_all, centre_edge, centre_row, ks, hits = [], [], [], [], []
    base = 0
    for e, iface in enumerate(interfaces):
        m = len(iface)
        coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
        coords_all.append(coords)
        if m >= 7:
            # key (side, guarded index) sorts each side in flat order
            other = (lab_flat[iface] != lab_flat[iface[0]]).astype(np.int64)
            order = np.argsort(other, kind="stable")
            key = other * math.prod(walk.shape) + walk.index(coords)
            centres = np.arange(0, m, max(1, int(np.ceil(m / max_centers))))
            ckey = key[centres, None] + walk.steps
            key = key[order]
            pos = np.minimum(np.searchsorted(key, ckey), m - 1)
            hit = key[pos] == ckey
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
    offsets = np.argwhere(ball_footprint(fit_radius)) - math.ceil(fit_radius)
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


def extract_edge_features(graph: RegionGraph, gray: ScalarVolume, labels: LabelVolume) -> dict:
    """Feature vector per edge; see the module docstring for the layout.

    The Sobel magnitude is computed only at the union of the interface
    neighborhoods (``sobel_magnitude_at``). Gray values are converted to
    float64 only where a moment reads them; the region sums are exact
    integer sums over the foreground."""
    lab = labels.data
    shape = lab.shape
    gray_flat = gray.data.ravel()
    lab_flat = lab.ravel()
    counts = graph.region_sizes
    fg = np.flatnonzero(lab_flat)
    # edges join foreground regions only, so the background's mean is never read
    sums = np.bincount(lab_flat[fg], weights=gray_flat[fg].astype(np.float64),
                       minlength=graph.n_regions + 1)
    del fg
    region_mean = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    walk = GuardedWalk(shape, np.argwhere(ball_footprint(2.0)) - 2)
    guarded = walk.copy(lab)
    neighborhoods, eigenvalues = [], []
    for (v1, v2), iface in graph.interfaces.items():
        coords = np.column_stack(np.unravel_index(iface, shape)).astype(np.int64)
        # the guard's label 0 keeps every step outside the volume out
        nb = guarded[walk.index(coords)[:, None] + walk.steps]
        neighborhoods.append(np.unique((iface[:, None] + walk.volume_steps)[(nb == v1) | (nb == v2)]))
        eigenvalues.append(_pca_eigenvalues(coords))
    del guarded
    where = np.unique(np.concatenate(neighborhoods or [np.zeros(0, np.int64)]))
    grad = sobel_magnitude_at(gray.data, where)
    curvature = _mean_abs_curvature(list(graph.interfaces.values()), lab_flat, shape)
    features = {}
    for (edge, iface), curv, nb_flat, ev in zip(graph.interfaces.items(), curvature,
                                                neighborhoods, eigenvalues):
        v1, v2 = edge
        g1, g2, g3, g4 = _moments(gray_flat[nb_flat].astype(np.float64))
        a1, a2, a3, a4 = _moments(grad[np.searchsorted(where, nb_flat)])
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
    # union-find over the kept edges, the smaller root winning; scipy.sparse's
    # graph components would add about 11 MB of resident memory to the
    # process for a graph of a few hundred edges. _canonicalize renumbers
    # the regions by first voxel, so the component numbering does not matter.
    parent = list(range(graph.n_regions + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for v1, v2 in graph.edges:
        if weights[v1, v2] >= lam:
            r1, r2 = find(v1), find(v2)
            parent[max(r1, r2)] = min(r1, r2)
    remap = np.array([find(v) for v in range(graph.n_regions + 1)], np.int32)
    merged = remap[labels.data]
    return LabelVolume(_canonicalize(merged), labels.spacing)


def _edge_label(text) -> float:
    value = float(text)
    if value not in (0.0, 1.0):
        raise ValueError(f"label must be 0 or 1, got {text!r}")
    return value


def features_to_csv(path, graph: RegionGraph, features: dict, edge_labels: dict) -> None:
    """Training dump: one row per edge, header v1,v2,f1..f18,label."""
    rows = ((*edge, *map(float, features[edge]), int(edge_labels[edge]))
            for edge in graph.edges if edge in edge_labels)
    write_table(path, FEATURES_HEADER, rows)


def read_features_csv(path):
    """Inverse of features_to_csv (``read_table``): (edges, X, y). Vertex ids
    must be integers, features finite and labels 0 or 1."""
    converters = (int, int) + (finite_float,) * FEATURE_DIM + (_edge_label,)
    rows = [values for _, values in read_table(path, FEATURES_HEADER, converters)]
    edges = [(v1, v2) for v1, v2, *_ in rows]
    x = np.array([values[2:-1] for values in rows], np.float64).reshape(len(rows), FEATURE_DIM)
    return edges, x, np.array([values[-1] for values in rows])
