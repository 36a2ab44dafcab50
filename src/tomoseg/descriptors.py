"""Per-particle size and shape characteristics on planar cross-sections.

A particle section is a set of pixels, treated geometrically as the union of
unit squares centered on the pixel centers. The boundary-length estimator
and the width/hull computations therefore carry explicit half-pixel
corrections; without them every estimate would be biased low by one pixel.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass

import numpy as np
from scipy import ndimage

from .volgrid import write_table

# chain-code moves (dy, dx), counterclockwise starting east; even index =
# axis-aligned step, odd = diagonal
_CHAIN = ((0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1))

# corner-count weights for straight and diagonal chain steps (unbiased for
# straight boundaries of random orientation)
W_STRAIGHT = 0.948
W_DIAGONAL = 1.340


@dataclass(frozen=True)
class ParticleSection:
    """Pixel coordinates (N, 2) as (x, y) of one 8-connected particle."""

    particle_id: int
    coords: np.ndarray
    spacing: float

    def __post_init__(self):
        c = np.asarray(self.coords, np.int64).reshape(-1, 2)
        if c.shape[0] == 0:
            raise ValueError("particle section must be non-empty")
        if not self.spacing > 0:
            raise ValueError("pixel spacing must be positive")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    def local_mask(self):
        """Boolean mask of the section with a 1-pixel margin, plus the
        (x0, y0) offset of the mask origin."""
        x0, y0 = self.coords.min(axis=0) - 1
        x1, y1 = self.coords.max(axis=0) + 2
        mask = np.zeros((y1 - y0, x1 - x0), bool)
        mask[self.coords[:, 1] - y0, self.coords[:, 0] - x0] = True
        return mask, (x0, y0)


@dataclass(frozen=True)
class DescriptorRow:
    particle_id: int
    area: float
    perimeter: float
    mean_width: float
    sphericity: float
    convexity: float
    elongation: float


@dataclass
class ClampStats:
    sphericity_clamped: int = 0
    convexity_clamped: int = 0


def particles_from_labels(labels_2d: np.ndarray, spacing: float) -> list[ParticleSection]:
    """Split a 2D labeling into 8-connected particle sections.

    A label whose pixels fall apart in the plane yields one section per
    connected piece; section ids are assigned sequentially in (label,
    component) order.
    """
    labels_2d = np.asarray(labels_2d)
    sections = []
    next_id = 1
    for lab in np.unique(labels_2d):
        if lab == 0:
            continue
        comp, n = ndimage.label(labels_2d == lab, structure=np.ones((3, 3), bool))
        for c in range(1, n + 1):
            ys, xs = np.nonzero(comp == c)
            sections.append(ParticleSection(next_id, np.column_stack([xs, ys]), spacing))
            next_id += 1
    return sections


def area(section: ParticleSection) -> float:
    """Pixel count times the squared pixel spacing."""
    return section.coords.shape[0] * section.spacing**2


def boundary_chain(section: ParticleSection) -> list[int]:
    """Chain code of the outer boundary (Moore trace, 8-connected); empty for
    a single pixel. Interior holes are not traced."""
    mask, _ = section.local_mask()
    if section.coords.shape[0] == 1:
        return []
    ys, xs = np.nonzero(mask)
    order = np.lexsort((xs, ys))
    start = (int(ys[order[0]]), int(xs[order[0]]))

    def next_move(cur, backtrack):
        for k in range(1, 9):
            idx = (backtrack + k) % 8
            dy, dx = _CHAIN[idx]
            ny, nx = cur[0] + dy, cur[1] + dx
            if mask[ny, nx]:
                return (ny, nx), idx
        return None, None

    # The walk is a deterministic cycle over (pixel, entering-move) states;
    # one full lap ends when the first state reappears.
    cur, idx = next_move(start, 4)  # begin scanning from the west neighbor
    if cur is None:
        return []
    first_state = (cur, idx)
    chain = [idx]
    limit = 8 * section.coords.shape[0] + 8
    while True:
        cur, idx = next_move(cur, (idx + 4) % 8)
        if (cur, idx) == first_state:
            break
        chain.append(idx)
        if len(chain) > limit:
            raise RuntimeError("boundary trace failed to close")
    return chain


def perimeter_cornercount(section: ParticleSection) -> float:
    """Boundary length from the chain code: straight steps weigh 0.948,
    diagonal steps 1.340, plus four straight steps for the half-pixel skin
    around the traced pixel-center path (a single pixel is a 1x1 square with
    perimeter 4 * 0.948 * spacing)."""
    chain = boundary_chain(section)
    n_straight = sum(1 for c in chain if c % 2 == 0) + 4
    n_diagonal = len(chain) - (n_straight - 4)
    return (W_STRAIGHT * n_straight + W_DIAGONAL * n_diagonal) * section.spacing


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counterclockwise, degenerate-safe
    (collinear inputs give the two extreme points)."""
    pts = np.unique(np.asarray(points, np.float64), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                a = out[-1] - out[-2]
                b = p - out[-2]
                if a[0] * b[1] - a[1] * b[0] <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull


def mean_width(section: ParticleSection, n_angles: int = 180) -> float:
    """Rotational average of the directional extent, over ``n_angles``
    equally spaced directions. Projection extremes are taken on the convex
    hull of the pixel centers; each direction adds the extent of the unit
    pixel square (|cos| + |sin|) so the value describes the pixel region,
    not the center lattice."""
    hull = convex_hull(section.coords)
    theta = (np.arange(n_angles) + 0.5) * np.pi / n_angles
    c, s = np.cos(theta), np.sin(theta)
    proj = hull @ np.vstack([c, s])
    widths = proj.max(axis=0) - proj.min(axis=0) + np.abs(c) + np.abs(s)
    return float(widths.mean()) * section.spacing


def _polygon_area_perimeter(hull: np.ndarray) -> tuple[float, float]:
    if hull.shape[0] < 3:
        if hull.shape[0] == 2:
            return 0.0, 2.0 * float(np.hypot(*(hull[1] - hull[0])))
        return 0.0, 0.0
    x, y = hull[:, 0], hull[:, 1]
    a = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    p = float(np.sum(np.hypot(np.diff(np.r_[x, x[0]]), np.diff(np.r_[y, y[0]]))))
    return float(a), p


def shape_factors(section: ParticleSection, stats: ClampStats | None = None):
    """(sphericity, convexity, elongation), each in (0, 1].

    sphericity = 4*pi*area / perimeter^2; convexity = area over the hull area
    inflated by the half-pixel skin (Steiner correction 0.5*l*sp + pi/4*sp^2);
    elongation = sqrt of the ratio of the PCA eigenvalues of the pixel
    coordinates, each eigenvalue carrying the 1/12 within-pixel variance.
    Values pushed above 1 by discretization are clamped and counted.
    """
    sp = section.spacing
    if section.coords.shape[0] == 1:
        return 1.0, 1.0, 1.0
    a = area(section)
    l = perimeter_cornercount(section)
    s = 4.0 * np.pi * a / (l * l)
    if s > 1.0:
        s = 1.0
        if stats is not None:
            stats.sphericity_clamped += 1
    hull = convex_hull(section.coords)
    hull_a, hull_l = _polygon_area_perimeter(hull * sp)
    hull_area = hull_a + 0.5 * hull_l * sp + np.pi / 4.0 * sp * sp
    c = a / hull_area
    if c > 1.0:
        c = 1.0
        if stats is not None:
            stats.convexity_clamped += 1
    pts = section.coords.astype(np.float64) * sp
    cov = np.cov(pts.T, bias=True) + np.eye(2) * (sp * sp / 12.0)
    ev = np.linalg.eigvalsh(cov)
    e = float(np.sqrt(ev[0] / ev[1]))
    return float(s), float(c), min(e, 1.0)


def compute_descriptors(sections) -> tuple[list[DescriptorRow], ClampStats]:
    stats = ClampStats()
    rows = []
    for sec in sections:
        s, c, e = shape_factors(sec, stats)
        rows.append(
            DescriptorRow(
                particle_id=sec.particle_id,
                area=area(sec),
                perimeter=perimeter_cornercount(sec),
                mean_width=mean_width(sec),
                sphericity=s,
                convexity=c,
                elongation=e,
            )
        )
    return rows, stats


CSV_HEADER = "id,area,perimeter,mean_width,sphericity,convexity,elongation"


def rows_to_csv(rows, path) -> None:
    write_table(path, CSV_HEADER, map(astuple, rows))


_DESCRIPTOR_FIELDS = ("area", "perimeter", "mean_width", "sphericity", "convexity", "elongation")


def export_distributions(rows, bins: int, out_dir) -> dict:
    """Relative-frequency histograms per descriptor, one CSV each with
    columns (bin center, relative frequency). Binning is deterministic:
    ``bins`` equal-width bins spanning [min, max]; a constant sample becomes
    a single unit-mass bin."""
    if not rows:
        raise ValueError("no descriptor rows to export")
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for field in _DESCRIPTOR_FIELDS:
        vals = np.array([getattr(r, field) for r in rows], np.float64)
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            centers = np.array([lo])
            freq = np.array([1.0])
        else:
            edges = np.linspace(lo, hi, bins + 1)
            counts, _ = np.histogram(vals, bins=edges)
            centers = 0.5 * (edges[:-1] + edges[1:])
            freq = counts / counts.sum()
        path = os.path.join(out_dir, f"{field}_hist.csv")
        write_table(path, "bin_center,rel_freq", zip(centers.tolist(), freq.tolist()))
        written[field] = path
    return written
