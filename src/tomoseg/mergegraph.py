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

from dataclasses import dataclass

import numpy as np

from ._kernels.cc import _canonicalize
from ._kernels.convsep import sobel_magnitude_field
from .volgrid import LabelVolume, ScalarVolume

FEATURE_DIM = 18

# the 13 offsets after the center in raster order; scanning them covers all
# 26 neighbor pairs once
_HALF_OFFSETS = np.array(
    [
        (a, b, c)
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        for c in (-1, 0, 1)
        if a * 9 + b * 3 + c > 0
    ],
    np.int64,
)


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
    for dz, dy, dx in _HALF_OFFSETS:
        a_lo = [max(0, -d) for d in (dz, dy, dx)]
        a_hi = [s - max(0, d) for s, d in zip(lab.shape, (dz, dy, dx))]
        ctr = tuple(slice(lo, hi) for lo, hi in zip(a_lo, a_hi))
        nbr = tuple(slice(lo + d, hi + d) for lo, hi, d in zip(a_lo, a_hi, (dz, dy, dx)))
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


def _mean_abs_curvature(coords: np.ndarray, side: np.ndarray, fit_radius: float = 3.0,
                        max_centers: int = 120):
    """Mean |H| of the surface sampled by ``coords``: per voxel, fit a local
    quadric height field in the PCA frame of its radius-3 neighborhood.

    Neighborhoods stay on the voxel's own side of the interface (the
    two-layer interface slab would otherwise thicken every fit), points are
    Gaussian distance-weighted (sigma = fit_radius/2, which trims the
    flattening bias of the estimated tangent frame), and up to
    ``max_centers`` evenly strided voxels are sampled to keep feature
    extraction cheap on large interfaces.
    """
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
    features = {}
    for edge, iface in graph.interfaces.items():
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
        curv = _mean_abs_curvature(coords, lab_flat[iface])
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


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def merge_regions(labels: LabelVolume, graph: RegionGraph, weights: dict, lam: float) -> LabelVolume:
    """Merge regions joined by edges with weight >= lam; connected components
    of the kept edges become one region each. Output labels are contiguous,
    numbered by first voxel occurrence in scan order."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    missing = [e for e in graph.edges if e not in weights]
    if missing:
        raise ValueError(f"weights missing for {len(missing)} edges, e.g. {missing[0]}")
    uf = _UnionFind(graph.n_regions + 1)
    for edge in graph.edges:
        if weights[edge] >= lam:
            uf.union(edge[0], edge[1])
    remap = np.zeros(graph.n_regions + 1, np.int32)
    for v in range(1, graph.n_regions + 1):
        remap[v] = uf.find(v)
    merged = remap[labels.data]
    return LabelVolume(_canonicalize(merged), labels.spacing)


def features_to_csv(path, graph: RegionGraph, features: dict, edge_labels: dict) -> None:
    """Training dump: one row per edge, header v1,v2,f1..f18,label."""
    cols = ",".join(f"f{i}" for i in range(1, FEATURE_DIM + 1))
    with open(path, "w", encoding="utf-8") as fh:
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
