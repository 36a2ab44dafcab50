"""Synthetic ground-truth volumes: superellipsoid particle packings rendered
as noisy grayscale with per-voxel particle labels, mineral-coded planar
sections under known rigid transforms, and labeled edge datasets for
training the merge classifier.

The grayscale response is an affine "instrument line" fitted so that the
bundled minerals land on their reference mean grayscales; running the
attenuation calibration end-to-end on a phantom must therefore recover that
line (up to noise).
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels.render import stamp_superellipsoid
from ._kernels.rotate import guard_volume
from .attenuation import REFERENCE_MEAN_GRAY, MineralTable, load_mineral_table
from .mergegraph import RegionGraph
from .register import SAMPLER_CHUNK, RigidTransform, sample_plane
from .volgrid import (
    BinaryVolume, LabelPlane, LabelVolume, ScalarVolume, key_value, read_key_values,
)

# voxels per z-slab of the gray volume's build (at least one plane): the
# slab's float64 values and its noise draw take 256 KiB each
SLAB_VOXELS = 1 << 15

DEFAULT_MINERAL_FRACTIONS = {
    "quartz": 0.40,
    "kaolinite": 0.15,
    "muscovite": 0.15,
    "zinnwaldite": 0.15,
    "topaz": 0.15,
}


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (128, 128, 128)
    spacing: float = 4.5
    count: int = 30
    size_range_um: tuple[float, float] = (40.0, 70.0)
    exponent_range: tuple[float, float] = (2.0, 4.0)
    aspect_range: tuple[float, float] = (1.0, 4.0)
    elongated_fraction: float = 0.3  # particles forced to aspect >= 2.5
    mineral_fractions: dict[str, float] = field(default_factory=DEFAULT_MINERAL_FRACTIONS.copy)
    noise_std: float = 400.0
    ring_amplitude: float = 0.0
    ring_period: float = 17.0
    # near-black background like the byte-scaled reconstructions; local
    # thresholding expects particles bright against a dark matrix
    background_gray: float = 0.0
    contact_fraction: float = 0.3  # particles placed touching an earlier one
    max_contact_voxels: int = 60  # cap on any touching patch; keeps contacts
    # facet-like instead of side-by-side welds no segmenter could split
    n_sections: int = 2
    section_max_angle_deg: float = 5.0
    section_max_shift: float = 8.0
    section_extent: float = 0.85  # plane width as a fraction of the volume
    mla_spacing_um: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        total = sum(self.mineral_fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mineral fractions must sum to 1, got {total}")
        if self.count < 1:
            raise ValueError("count must be positive")
        lo, hi = self.size_range_um
        if not 0 < lo <= hi:
            raise ValueError("invalid size range")
        if self.aspect_range[0] < 1.0 or self.aspect_range[0] > self.aspect_range[1]:
            raise ValueError("invalid aspect range")


@dataclass(frozen=True)
class Section:
    transform: RigidTransform
    plane: LabelPlane  # mineral codes at MLA resolution
    mla_spacing_um: float


@dataclass(frozen=True)
class Particle:
    label: int
    center: tuple[float, float, float]  # (x, y, z) voxels
    semi_axes: tuple[float, float, float]  # local (a, b, c), a = long axis
    rotation: np.ndarray  # world -> local
    exponent: float
    mineral_code: int

    @property
    def aspect(self) -> float:
        return self.semi_axes[0] / self.semi_axes[1]


@dataclass(frozen=True)
class PhantomOutput:
    gray: ScalarVolume
    labels: LabelVolume  # ground-truth particle ids
    particles: tuple[Particle, ...]
    mineral_of_label: np.ndarray  # (L+1,) mineral code per particle id
    sections: tuple[Section, ...]
    instrument_line: tuple[float, float]  # gray = a_gen * rho_mu + b_gen
    spec: PhantomSpec

    @property
    def pixel_to_voxel(self) -> float:
        return self.spec.mla_spacing_um / self.spec.spacing


def instrument_line(table: MineralTable) -> tuple[float, float]:
    """Least-squares line through (rho*mu_m, reference mean gray); the five
    reference minerals are not exactly collinear, so the phantom renders
    every mineral ON this line to keep calibration recoverable."""
    pairs = [(m.rho_mu, REFERENCE_MEAN_GRAY[m.name]) for m in table.minerals if m.name in REFERENCE_MEAN_GRAY]
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    mx, my = x.mean(), y.mean()
    a = float(np.sum((x - mx) * (y - my)) / np.sum((x - mx) ** 2))
    b = float(my - a * mx)
    return a, b


def _euler_matrix(angles) -> np.ndarray:
    return RigidTransform(tuple(angles), (0.0, 0.0, 0.0)).rotation()


def _random_unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-9:
            return v / n


def generate(spec: PhantomSpec, table: MineralTable | None = None) -> PhantomOutput:
    """Build one phantom; deterministic for a fixed seed.

    Placement is sequential with rejection of voxel-level overlap; a
    ``contact_fraction`` of particles is slid up against an earlier particle
    so that the binarized volume contains genuinely fused clumps (the case
    the merge classifier must handle).
    """
    table = table or load_mineral_table()
    nx, ny, nz = spec.dims
    rng = np.random.default_rng(spec.rng_seed)
    labels = np.zeros((nz, ny, nx), np.int32)

    lo_um, hi_um = spec.size_range_um
    n_elong = int(math.ceil(spec.elongated_fraction * spec.count))
    min_aspect_elong = max(2.5, spec.aspect_range[0])
    max_aspect = max(spec.aspect_range[1], 1.0)
    if n_elong > 0:
        max_aspect = max(max_aspect, min_aspect_elong)
    max_reach = (hi_um / (2.0 * spec.spacing)) * max_aspect
    if 2.0 * max_reach + 6.0 > min(spec.dims):
        raise ValueError(
            f"particles up to {hi_um} um with aspect {max_aspect} cannot fit "
            f"inside dims {spec.dims} at spacing {spec.spacing}; shrink the size range"
        )

    names = sorted(spec.mineral_fractions)
    fracs = np.array([spec.mineral_fractions[n] for n in names])
    codes = np.array([table.by_name(n).code for n in names], np.int64)

    particles = []
    for i in range(spec.count):
        size_vox = rng.uniform(lo_um, hi_um) / (2.0 * spec.spacing)  # short semi-axis
        if i < n_elong:
            aspect = rng.uniform(min_aspect_elong, max(spec.aspect_range[1], min_aspect_elong))
        else:
            aspect = rng.uniform(spec.aspect_range[0], min(2.5, spec.aspect_range[1]))
        semi = (size_vox * aspect, size_vox, size_vox)
        exponent = rng.uniform(*spec.exponent_range)
        rot = _euler_matrix(rng.uniform(-math.pi, math.pi, 3))
        mineral = int(rng.choice(codes, p=fracs))
        reach = semi[0] + 1.5
        lo_bound = np.full(3, reach)
        hi_bound = np.array([nx, ny, nz], np.float64) - 1 - reach
        if np.any(lo_bound > hi_bound):
            raise ValueError(
                f"particle of reach {reach:.1f} voxels cannot fit inside dims {spec.dims}"
            )

        def overlaps(cand):
            return stamp_superellipsoid(labels, rot, cand, semi, exponent, i + 1, check_only=True)

        def contact_patch(cand):
            # claimed voxels within ~one voxel of the candidate surface
            inflated = tuple(s + 1.2 for s in semi)
            return stamp_superellipsoid(labels, rot, cand, inflated, exponent, i + 1, check_only=True)

        placed = False
        for _ in range(2000):
            touch = particles and rng.uniform() < spec.contact_fraction
            if touch:
                # slide along a random ray from an earlier particle; bisect
                # between "overlapping" and "bounding spheres disjoint" to
                # land just touching
                other = particles[int(rng.integers(len(particles)))]
                direction = _random_unit(rng)
                base = np.asarray(other.center)
                hi = other.semi_axes[0] + semi[0] + 1.0
                cand_hi = base + direction * hi
                if np.any(cand_hi < lo_bound) or np.any(cand_hi > hi_bound):
                    continue
                lo = other.semi_axes[1] + semi[1] - 1.0
                if overlaps(base + direction * max(lo, 0.0)) == 0:
                    center = base + direction * max(lo, 0.0)
                else:
                    while hi - lo > 0.5:
                        mid = 0.5 * (lo + hi)
                        if overlaps(base + direction * mid):
                            lo = mid
                        else:
                            hi = mid
                    center = base + direction * hi
                if np.any(center < lo_bound) or np.any(center > hi_bound) or overlaps(center):
                    continue
                if contact_patch(center) > spec.max_contact_voxels:
                    continue
            else:
                center = rng.uniform(lo_bound, hi_bound)
                if overlaps(center) or contact_patch(center) > spec.max_contact_voxels:
                    continue
            stamp_superellipsoid(labels, rot, center, semi, exponent, i + 1)
            particles.append(
                Particle(i + 1, tuple(center), semi, rot, exponent, mineral)
            )
            placed = True
            break
        if not placed:
            raise RuntimeError(
                f"could not place particle {i + 1} of {spec.count}; "
                "lower the count or shrink the size range"
            )

    mineral_of_label = np.zeros(spec.count + 1, np.uint8)
    for p in particles:
        mineral_of_label[p.label] = p.mineral_code

    a_gen, b_gen = instrument_line(table)
    mean_of_code = {m.code: a_gen * m.rho_mu + b_gen for m in table.minerals}
    mean_of_label = np.full(spec.count + 1, spec.background_gray, np.float64)
    for p in particles:
        mean_of_label[p.label] = mean_of_code[p.mineral_code]

    gray_vol = ScalarVolume(_render_gray(spec, labels, mean_of_label, rng), spec.spacing)
    label_vol = LabelVolume(labels, spec.spacing)

    out = PhantomOutput(
        gray=gray_vol,
        labels=label_vol,
        particles=tuple(particles),
        mineral_of_label=mineral_of_label,
        sections=(),
        instrument_line=(a_gen, b_gen),
        spec=spec,
    )
    sections = []
    guarded = _guarded_codes(out) if spec.n_sections else None  # shared by the sections
    for _ in range(spec.n_sections):
        ang = np.radians(rng.uniform(-spec.section_max_angle_deg, spec.section_max_angle_deg, 3))
        tx, ty = rng.uniform(-spec.section_max_shift, spec.section_max_shift, 2)
        tz = rng.uniform(0.35, 0.65) * (nz - 1)
        transform = RigidTransform(tuple(ang), (float(tx), float(ty), float(tz)))
        plane = render_mla_section(out, transform, spec.mla_spacing_um, guarded=guarded)
        sections.append(Section(transform, plane, spec.mla_spacing_um))
    return replace(out, sections=tuple(sections))


def _render_gray(spec: PhantomSpec, labels: np.ndarray, mean_of_label: np.ndarray, rng):
    """The uint16 gray volume, z-slab by z-slab: each voxel's label mean,
    plus the ring term, plus Gaussian noise, rounded half up and clipped to
    16 bits. Each slab draws its noise in one call; the Generator's normal
    stream is sequential, so the slabs draw in raster order what one
    whole-volume call would, and every voxel sees the same float64 ops in
    the same order."""
    nz, ny, nx = labels.shape
    ring = None
    if spec.ring_amplitude > 0:
        yy, xx = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
        rr = np.hypot(xx - (nx - 1) / 2.0, yy - (ny - 1) / 2.0)
        ring = spec.ring_amplitude * np.cos(2.0 * math.pi * rr / spec.ring_period)
    gray = np.empty(labels.shape, np.uint16)
    step = max(1, SLAB_VOXELS // max(1, ny * nx))
    for z0 in range(0, nz, step):
        slab = mean_of_label[labels[z0 : z0 + step]]
        if ring is not None:
            slab += ring
        if spec.noise_std > 0:
            slab += rng.normal(0.0, spec.noise_std, slab.shape)
        slab += 0.5
        np.floor(slab, out=slab)
        np.clip(slab, 0, 65535, out=slab)
        gray[z0 : z0 + step] = slab
    return gray


def _guarded_codes(out: PhantomOutput) -> np.ndarray:
    """Each voxel's mineral code (uint8, 0 on background) with the one-voxel
    zero guard that the section sampler reads (``guard_volume``)."""
    return guard_volume(out.mineral_of_label[out.labels.data])


def _sample_section(out: PhantomOutput, transform: RigidTransform, ratio: float, plane_dims,
                    guarded=None) -> np.ndarray:
    """Mineral codes at the nearest voxel of each pixel of a section whose
    pixel i lies at i * ratio voxels (``sample_plane``); (ph, pw). Label 0,
    which pixels outside the volume read too, is code 0. The plane is cut a
    block of rows at a time from one guarded code volume, ``guarded``
    (``_guarded_codes(out)``, built here when not given)."""
    nx, ny, _ = out.spec.dims
    if plane_dims is None:
        pw = int(out.spec.section_extent * nx / ratio)
        ph = int(out.spec.section_extent * ny / ratio)
    else:
        pw, ph = plane_dims
    if guarded is None:
        guarded = _guarded_codes(out)
    codes = guarded[1:-1, 1:-1, 1:-1]  # a view; the sampler reads ``guarded``
    plane = np.empty((ph, pw), np.uint8)
    rows = max(1, SAMPLER_CHUNK // max(1, pw))
    u = np.arange(pw) * ratio
    hit = False
    for j0 in range(0, ph, rows):
        j1 = min(ph, j0 + rows)
        uv = np.empty(((j1 - j0) * pw, 2))
        uv[:, 0] = np.tile(u, j1 - j0)
        uv[:, 1] = np.repeat(np.arange(j0, j1) * ratio, pw)
        values, inside = sample_plane(codes, transform, uv, guarded)
        plane[j0:j1] = values.reshape(j1 - j0, pw)
        hit = hit or bool(inside.any())
    if not hit:
        raise ValueError("section plane does not intersect the volume")
    return plane


def render_mla_section(
    out: PhantomOutput, transform: RigidTransform, mla_spacing_um: float, plane_dims=None,
    guarded=None,
) -> LabelPlane:
    """Mineral-code image sampled from the ground truth along the transformed
    plane, at the (finer) section resolution (``_sample_section``, which
    takes ``guarded``). The output is already classified, so no noise is
    added."""
    ratio = mla_spacing_um / out.spec.spacing  # voxels per section pixel
    return LabelPlane(_sample_section(out, transform, ratio, plane_dims, guarded), mla_spacing_um)


def section_to_voxel_mask(plane: LabelPlane, pixel_to_voxel: float, spacing: float) -> BinaryVolume:
    """Binarize a mineral-code section and majority-coarsen it onto the voxel
    lattice, as a single-slice BinaryVolume ready for registration.

    Fine pixel i sits at i * pixel_to_voxel in voxel units, as in
    render_mla_section, and votes for the nearest voxel,
    floor(i * pixel_to_voxel + 0.5); a voxel is foreground when more than
    half of its votes are (ties go to background)."""
    binary = plane.data > 0
    factor = 1.0 / pixel_to_voxel
    if factor <= 1.0:
        return BinaryVolume(binary[None, :, :], spacing)
    ph, pw = binary.shape
    out_ny = max(1, int(np.ceil(ph / factor)))
    out_nx = max(1, int(np.ceil(pw / factor)))
    iy = np.floor(np.arange(ph) * pixel_to_voxel + 0.5).astype(np.int64)
    ix = np.floor(np.arange(pw) * pixel_to_voxel + 0.5).astype(np.int64)
    # the last fine pixels may round past the last voxel; their votes drop
    keep = (iy < out_ny)[:, None] & (ix < out_nx)[None, :]
    cell = (iy[:, None] * out_nx + ix[None, :])[keep]
    votes = np.bincount(cell, minlength=out_ny * out_nx)
    fg_votes = np.bincount(cell, weights=binary[keep], minlength=out_ny * out_nx)
    coarse = (2 * fg_votes > votes).reshape(out_ny, out_nx)
    return BinaryVolume(coarse[None, :, :], spacing)


@dataclass(frozen=True)
class EdgeTrainingSet:
    edges: tuple
    features: np.ndarray  # (n_edges, FEATURE_DIM)
    labels: np.ndarray  # (n_edges,) 1 = same particle, 0 = different
    n_excluded: int  # edges dropped for ambiguous region-to-particle majority

    @property
    def class_balance(self) -> float:
        return float(self.labels.mean()) if len(self.labels) else math.nan


def region_majorities(watershed_labels: LabelVolume, truth: LabelVolume, min_purity: float = 0.6):
    """Majority ground-truth particle id per watershed region, with purity;
    regions below ``min_purity`` are marked ambiguous (id -1)."""
    n_regions = watershed_labels.n_labels
    n_truth = truth.n_labels
    # keys of the foreground only, the one int64 array
    sel = watershed_labels.data > 0
    key = watershed_labels.data[sel].astype(np.int64) * (n_truth + 1) + truth.data[sel]
    counts = np.bincount(key, minlength=(n_regions + 1) * (n_truth + 1))
    counts = counts.reshape(n_regions + 1, n_truth + 1)
    majority = counts.argmax(axis=1)
    totals = counts.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        purity = np.where(totals > 0, counts.max(axis=1) / np.maximum(totals, 1), 0.0)
    majority = majority.astype(np.int64)
    majority[(purity < min_purity) | (totals == 0)] = -1
    return majority, purity


def edge_training_set(
    truth: LabelVolume,
    watershed_labels: LabelVolume,
    graph: RegionGraph,
    features: dict,
    min_purity: float = 0.6,
) -> EdgeTrainingSet:
    """Label each graph edge from the ``truth`` labeling: 1 when both
    regions' majority particle ids coincide, 0 otherwise; edges touching an
    ambiguous region are excluded and counted."""
    majority, _ = region_majorities(watershed_labels, truth, min_purity)
    edges = []
    rows = []
    labs = []
    excluded = 0
    for edge in graph.edges:
        m1, m2 = majority[edge[0]], majority[edge[1]]
        if m1 < 0 or m2 < 0:
            excluded += 1
            continue
        edges.append(edge)
        rows.append(features[edge])
        labs.append(1.0 if m1 == m2 else 0.0)
    x = np.array(rows, np.float64).reshape(len(rows), -1)
    return EdgeTrainingSet(tuple(edges), x, np.array(labs, np.float64), excluded)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two labelings of the same voxel set."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValueError("labelings must have equal size")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na = ai.max() + 1
    nb = bi.max() + 1
    cont = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(x):
        x = np.asarray(x, np.float64)
        return x * (x - 1.0) / 2.0

    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def parse_spec_file(path) -> PhantomSpec:
    """``key = value`` phantom description; the keys are the PhantomSpec
    fields, each read as its type hint (``volgrid.read_value``: ``dims = 32,40,48``,
    ``mineral_fractions = quartz:0.4,topaz:0.6``). An unknown key, a tuple of
    the wrong length or a value that does not parse raises ValueError naming
    the file and the key."""
    types = typing.get_type_hints(PhantomSpec)
    vals = read_key_values(path)
    for key in vals:
        if key not in types:
            raise ValueError(f"{path}: unknown phantom spec key {key!r}")
    return PhantomSpec(**{key: key_value(path, vals, key, types[key]) for key in vals})
