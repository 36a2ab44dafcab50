"""Locate a 2D binary section inside a 3D binary volume.

The transform model: the volume is rotated by R about its center, the 2D
image lives on the z=0 lattice plane and is shifted by an integer vector x.
The overlap objective

    sum_q B_R(q + x) * B_plane(q)

is maximized exactly over x for fixed angles via zero-padded FFT
cross-correlation, and a Nelder-Mead search handles the three rotation
angles, coarse-to-fine over a block-OR pyramid. Splitting the search this
way removes the three translation dimensions from the simplex search
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from ._kernels.rotate import rotate_nearest
from .volgrid import BinaryVolume


def _wrap_angle(a: float) -> float:
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class RigidTransform:
    """Rotation (Z-Y-X intrinsic Euler angles, radians) plus a shift of the
    2D image (voxel units)."""

    angles: tuple[float, float, float]
    translation: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(_wrap_angle(float(a)) for a in self.angles))
        object.__setattr__(self, "translation", tuple(float(t) for t in self.translation))

    def rotation(self) -> np.ndarray:
        a, b, g = self.angles
        ca, sa = math.cos(a), math.sin(a)
        cb, sb = math.cos(b), math.sin(b)
        cg, sg = math.cos(g), math.sin(g)
        rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
        rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
        return rz @ ry @ rx

    def map_plane_points(self, uv: np.ndarray, vol_shape) -> np.ndarray:
        """Map plane lattice coordinates (N, 2) of (u, v) into (x, y, z)
        coordinates of the unrotated volume with shape (nz, ny, nx)."""
        nz, ny, nx = vol_shape
        center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0])
        uv = np.atleast_2d(np.asarray(uv, np.float64))
        q = np.column_stack(
            [uv[:, 0] + self.translation[0], uv[:, 1] + self.translation[1],
             np.full(len(uv), self.translation[2])]
        )
        return (q - center) @ self.rotation() + center


def volume_center(shape) -> tuple[float, float, float]:
    nz, ny, nx = shape
    return ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)


def rotate_volume(vol: BinaryVolume, angles) -> BinaryVolume:
    """Nearest-neighbor rotation about the volume center; samples falling
    outside the original window become background."""
    t = RigidTransform(tuple(angles), (0.0, 0.0, 0.0))
    rinv = t.rotation().T
    out = rotate_nearest(vol.data, rinv, volume_center(vol.data.shape))
    return BinaryVolume(out, vol.spacing)


@dataclass(frozen=True)
class TranslationResult:
    shift: tuple[int, int, int]
    overlap: int
    empty_plane: bool = False


def _as_plane_array(plane) -> np.ndarray:
    if isinstance(plane, BinaryVolume):
        if plane.data.shape[0] != 1:
            raise ValueError("plane BinaryVolume must have nz == 1")
        return plane.data[0]
    return np.asarray(plane, bool)


class TranslationSolver:
    """FFT cross-correlation solver with the plane spectrum precomputed, for
    repeated solves against rotated copies of a fixed-shape volume.

    The plane is a single slice, so the correlation along z is the identity:
    each volume slice is correlated with the plane by a 2-D transform over
    (y, x)."""

    def __init__(self, vol_shape, plane):
        p = _as_plane_array(plane)
        nz, ny, nx = vol_shape
        ph, pw = p.shape
        if pw > nx or ph > ny:
            raise ValueError("plane must not exceed the volume in x or y")
        self.vol_shape = (nz, ny, nx)
        self.plane_shape = (ph, pw)
        self.empty = not p.any()
        if self.empty:
            return
        self.pad = (
            sfft.next_fast_len(ny + ph - 1, real=True),
            sfft.next_fast_len(nx + pw - 1, real=True),
        )
        self.fp_conj = np.conj(sfft.rfft2(p.astype(np.float64), s=self.pad))

    def solve(self, vol: np.ndarray) -> TranslationResult:
        if vol.shape != self.vol_shape:
            raise ValueError(f"expected volume shape {self.vol_shape}, got {vol.shape}")
        if self.empty:
            return TranslationResult((0, 0, 0), 0, empty_plane=True)
        ph, pw = self.plane_shape
        _, ny, nx = self.vol_shape
        pad_y, pad_x = self.pad
        fv = sfft.rfft2(vol.astype(np.float64), s=self.pad)
        fv *= self.fp_conj
        corr = sfft.irfft2(fv, s=self.pad)
        # entries outside the window of shifts -(pw-1)..nx-1, -(ph-1)..ny-1
        # have no overlap and hold only FFT noise around 0
        best = int(np.rint(corr.max()))
        if best <= 0:  # no overlap anywhere: the smallest shift wins
            return TranslationResult((-(pw - 1), -(ph - 1), 0), 0)
        zs, ys, xs = np.nonzero(corr > best - 0.5)
        sx = np.where(xs < nx, xs, xs - pad_x)
        sy = np.where(ys < ny, ys, ys - pad_y)
        k = np.lexsort((zs, sy, sx))[0]  # smallest (x, y, z)
        return TranslationResult((int(sx[k]), int(sy[k]), int(zs[k])), best)


def best_translation(volR, plane) -> TranslationResult:
    """Exact integer-shift maximizer of the overlap, via zero-padded FFT
    cross-correlation (values are integers; FFT noise stays far below 0.5 at
    these sizes, so rounding restores them exactly). Ties resolve to the
    lexicographically smallest (x, y, z) shift."""
    vol = volR.data if isinstance(volR, BinaryVolume) else np.asarray(volR, bool)
    return TranslationSolver(vol.shape, plane).solve(vol)


def brute_force_translation(volR, plane) -> TranslationResult:
    """Reference enumeration over every shift; used to cross-check the FFT
    path on small instances."""
    vol = volR.data if isinstance(volR, BinaryVolume) else np.asarray(volR, bool)
    p = _as_plane_array(plane)
    nz, ny, nx = vol.shape
    ph, pw = p.shape
    if not p.any():
        return TranslationResult((0, 0, 0), 0, empty_plane=True)
    best = None
    for tx in range(-(pw - 1), nx):
        for ty in range(-(ph - 1), ny):
            for tz in range(nz):
                x0, x1 = max(0, tx), min(nx, tx + pw)
                y0, y1 = max(0, ty), min(ny, ty + ph)
                if x0 >= x1 or y0 >= y1:
                    ov = 0
                else:
                    sub = vol[tz, y0:y1, x0:x1]
                    psub = p[y0 - ty : y1 - ty, x0 - tx : x1 - tx]
                    ov = int(np.sum(sub & psub))
                if best is None or ov > best[1]:
                    best = ((tx, ty, tz), ov)
    return TranslationResult(best[0], best[1])


def block_or_downsample(mask: np.ndarray, factor: int) -> np.ndarray:
    """OR-pool over factor^d blocks (padding with background)."""
    if factor == 1:
        return mask.copy()
    shape = mask.shape
    padded_shape = tuple(-(-s // factor) * factor for s in shape)
    padded = np.zeros(padded_shape, bool)
    padded[tuple(slice(0, s) for s in shape)] = mask
    view = padded
    for ax in range(mask.ndim):
        new = view.shape[:ax] + (view.shape[ax] // factor, factor) + view.shape[ax + 1 :]
        view = view.reshape(new).any(axis=ax + 1)
    return view


def nelder_mead(f, x0, step: float, max_iter: int, ftol: float):
    """Downhill simplex with standard coefficients (reflect 1, expand 2,
    contract 0.5, shrink 0.5); stops when the simplex value spread drops
    below ``ftol`` or after ``max_iter`` iterations. Fully deterministic."""
    x0 = np.asarray(x0, np.float64)
    n = len(x0)
    simplex = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    values = [f(tuple(v)) for v in simplex]
    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] < ftol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = f(tuple(refl))
        if f_refl < values[0]:
            expa = centroid + 2.0 * (centroid - worst)
            f_expa = f(tuple(expa))
            if f_expa < f_refl:
                simplex[-1], values[-1] = expa, f_expa
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl < values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            if f_refl < values[-1]:
                base, f_base = refl, f_refl
            else:
                base, f_base = worst, values[-1]
            contr = centroid + 0.5 * (base - centroid)
            f_contr = f(tuple(contr))
            if f_contr < f_base:
                simplex[-1], values[-1] = contr, f_contr
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(tuple(simplex[i]))
    order = np.argsort(values, kind="stable")
    return simplex[order[0]], values[order[0]]


def plane_points(plane) -> np.ndarray:
    """(u, v) lattice coordinates (N, 2) of the plane's foreground pixels."""
    ys, xs = np.nonzero(_as_plane_array(plane))
    return np.column_stack([xs, ys]).astype(np.float64)


def direct_overlap(vol: BinaryVolume, plane, transform: RigidTransform, uv=None) -> int:
    """Overlap evaluated by mapping the plane's foreground pixels through the
    transform and sampling the volume at the nearest voxel; supports
    fractional shifts, unlike the lattice correlation. ``uv``, when given,
    is ``plane_points(plane)``, computed once by a caller that evaluates
    the same plane many times."""
    if uv is None:
        uv = plane_points(plane)
    if len(uv) == 0:
        return 0
    pts = transform.map_plane_points(uv, vol.data.shape)
    idx = np.floor(pts + 0.5).astype(np.int64)
    nz, ny, nx = vol.data.shape
    ok = (
        (idx[:, 0] >= 0) & (idx[:, 0] < nx)
        & (idx[:, 1] >= 0) & (idx[:, 1] < ny)
        & (idx[:, 2] >= 0) & (idx[:, 2] < nz)
    )
    return int(vol.data[idx[ok, 2], idx[ok, 1], idx[ok, 0]].sum())


@dataclass(frozen=True)
class RegisterOptions:
    pyramid: tuple[int, ...] = (4, 2, 1)
    max_iter: int = 200
    simplex_step_deg: tuple[float, ...] = (5.0, 2.5, 1.0)  # one per pyramid level
    coarse_seed_deg: float = 10.0  # seed grid half-width at the coarsest level
    # final joint simplex over (angles, shift) with subvoxel sampling; the
    # integer lattice alone biases the tilt angles when the true shift is
    # fractional
    joint_polish: bool = True
    polish_iter: int = 200
    # the polish restarts from its best point, and from that point with one
    # axis nudged by +-1 degree, while the first polish still looks weak
    polish_restart_below: float = 0.98

    def __post_init__(self):
        if len(self.simplex_step_deg) != len(self.pyramid):
            raise ValueError("need one simplex step per pyramid level")
        if sorted(self.pyramid, reverse=True) != list(self.pyramid) or self.pyramid[-1] != 1:
            raise ValueError("pyramid must be decreasing and end at 1")


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    overlap: int
    normalized_overlap: float
    trace: tuple = field(repr=False, default=())
    flagged: bool = False


# Simplex starts taken from the ranked coarse seed grid and carried down the
# pyramid. At the coarsest level a wrong basin can outscore the true one
# (from a single start, the section of
# test_register_three_starts_escape_wrong_coarse_basin ended 15 degrees
# off), so the runner-up basins are kept until a finer level separates them.
COARSE_STARTS = 3


def _prefer(key, res):
    """Sort key of a lattice evaluation: larger overlap first; ties prefer
    the smallest rotation, so flat stretches stay centered, then
    lexicographic order."""
    return (-res.overlap, sum(abs(v) for v in key), key)


class _BandObjective:
    """Negated lattice overlap at one pyramid level, with the translation's
    z searched in the band [z0, z1) of the rotated volume; the full height
    is rotated and solved only when the band edge wins."""

    def __init__(self, vol_l: np.ndarray, plane_l: np.ndarray, z0: int, z1: int, trace: list):
        self.vol = vol_l
        self.plane = plane_l
        self.z0, self.z1 = z0, z1
        self.center = volume_center(vol_l.shape)
        self.solver = TranslationSolver((z1 - z0,) + vol_l.shape[1:], plane_l)
        self.full_solver = self.solver if (z0, z1) == (0, vol_l.shape[0]) else None
        self.trace = trace
        self.cache = {}
        self.touched = set()  # keys evaluated or looked up by the current run

    def result(self, a3) -> TranslationResult:
        key = tuple(round(v, 12) for v in a3)
        self.touched.add(key)
        if key not in self.cache:
            z0, z1, nz = self.z0, self.z1, self.vol.shape[0]
            rinv = RigidTransform(a3, (0.0, 0.0, 0.0)).rotation().T
            res = self.solver.solve(rotate_nearest(self.vol, rinv, self.center, z0, z1))
            sx, sy, sz = res.shift
            if z0 > 0 or z1 < nz:
                # re-solve over the full height if the band boundary wins
                if (sz == 0 and z0 > 0) or (sz == z1 - z0 - 1 and z1 < nz):
                    if self.full_solver is None:
                        self.full_solver = TranslationSolver(self.vol.shape, self.plane)
                    res = self.full_solver.solve(rotate_nearest(self.vol, rinv, self.center))
                else:
                    res = TranslationResult((sx, sy, sz + z0), res.overlap, res.empty_plane)
            self.cache[key] = res
            self.trace.append((len(self.trace), res.overlap))
        return self.cache[key]

    def __call__(self, a3) -> int:
        return -self.result(a3).overlap

    def simplex(self, start, step: float, max_iter: int):
        """Run the simplex from ``start``; return the best (key, result) the
        run evaluated."""
        self.touched = set()
        nelder_mead(self, start, step, max_iter, ftol=1.0)
        key = min(self.touched, key=lambda k: _prefer(k, self.cache[k]))
        return key, self.cache[key]


def register_section(vol: BinaryVolume, plane, opts: RegisterOptions = RegisterOptions()):
    """Coarse-to-fine rotation search with the exact translation solve inside.

    The coarsest level ranks a small angle grid and runs the simplex from
    the best COARSE_STARTS seeds; each finer level runs it again from every
    carried optimum, each with its own z band. At full resolution every
    carried optimum is scored once and only the best is refined, so the
    final overlap can never fall below the best carried optimum re-evaluated
    at full resolution.
    """
    p = _as_plane_array(plane)
    if not p.any():
        raise ValueError("plane is empty")
    plane_count = int(p.sum())
    trace = []
    starts = None  # (angles, z estimate at this level's scale or None)

    for level, factor in enumerate(opts.pyramid):
        vol_l = block_or_downsample(vol.data, factor)
        plane_l = block_or_downsample(p, factor)
        if not plane_l.any():
            raise ValueError(f"plane vanished at pyramid factor {factor}")
        nz_l = vol_l.shape[0]
        diag = math.hypot(*plane_l.shape)
        margin = max(12, int(0.12 * diag))
        bands = {}

        def objective_at(tz):
            if tz is None:
                z0, z1 = 0, nz_l
            else:
                z0 = max(0, int(round(tz)) - margin)
                z1 = min(nz_l, int(round(tz)) + margin + 1)
            if (z0, z1) not in bands:
                bands[z0, z1] = _BandObjective(vol_l, plane_l, z0, z1, trace)
            return bands[z0, z1]

        if starts is None:
            full = objective_at(None)
            s = math.radians(opts.coarse_seed_deg)
            steps = (-s, -0.5 * s, 0.0, 0.5 * s, s)
            seeds = [(za, yb, xg) for za in steps for yb in steps for xg in steps]
            ranked = sorted(seeds, key=lambda a: _prefer(a, full.result(a)))
            starts = [(a, None) for a in ranked[:COARSE_STARTS]]
        if level == len(opts.pyramid) - 1:
            # score each carried optimum once; refine only the best
            starts = [min(starts, key=lambda st: _prefer(st[0], objective_at(st[1]).result(st[0])))]
        step = math.radians(opts.simplex_step_deg[level])
        optima = [objective_at(tz).simplex(angles, step, opts.max_iter) for angles, tz in starts]
        next_factor = opts.pyramid[level + 1] if level + 1 < len(opts.pyramid) else factor
        starts = list(dict.fromkeys(
            (key, res.shift[2] * factor / next_factor) for key, res in optima
        ))

    final_angles, final_res = min(optima, key=lambda o: _prefer(*o))
    transform = RigidTransform(final_angles, tuple(float(v) for v in final_res.shift))
    overlap = final_res.overlap

    if opts.joint_polish:
        polish_cache = {}
        uv = plane_points(p)

        def joint_objective(params):
            key = tuple(round(v, 12) for v in params)
            if key not in polish_cache:
                t = RigidTransform(tuple(params[:3]), tuple(params[3:]))
                ov = direct_overlap(vol, p, t, uv)
                polish_cache[key] = ov
                trace.append((len(trace), ov))
            return -polish_cache[key]

        # anisotropic steps: radians for angles, voxels for the shift
        x0 = np.array(list(final_angles) + list(transform.translation), np.float64)
        scale = np.array([math.radians(0.5)] * 3 + [0.5] * 3)

        def polish_from(start):
            def scaled_objective(u):
                return joint_objective(tuple(start + scale * np.asarray(u)))

            u, neg = nelder_mead(
                scaled_objective, np.zeros(6), step=1.0, max_iter=opts.polish_iter, ftol=1.0
            )
            return start + scale * np.asarray(u), int(-neg)

        best_params, best_ov = polish_from(x0)
        if best_ov < opts.polish_restart_below * plane_count:
            # the overlap is piecewise constant, so a simplex stalls on
            # plateaus; restart it from the best point, then from the best
            # point nudged by 1 degree about each axis, until no start gains
            nudge = math.radians(1.0)

            def starts_around(center):
                yield center
                for axis in range(3):
                    for sign in (-1.0, 1.0):
                        start = center.copy()
                        start[axis] += sign * nudge
                        yield start

            improved = True
            while improved:
                improved = False
                for start in starts_around(best_params):
                    params, ov = polish_from(start)
                    if ov > best_ov:
                        best_params, best_ov, improved = params, ov, True
                        break
        if best_ov >= overlap:
            transform = RigidTransform(tuple(best_params[:3]), tuple(best_params[3:]))
            overlap = best_ov

    norm = overlap / plane_count
    return RegistrationResult(
        transform=transform,
        overlap=overlap,
        normalized_overlap=norm,
        trace=tuple(trace),
        flagged=norm < 0.5,
    )


def write_result(result: RegistrationResult, path) -> None:
    a = [math.degrees(v) for v in result.transform.angles]
    t = result.transform.translation
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"angles_deg = {a[0]!r} {a[1]!r} {a[2]!r}\n")
        fh.write(f"translation = {t[0]!r} {t[1]!r} {t[2]!r}\n")
        fh.write(f"overlap = {result.overlap}\n")
        fh.write(f"normalized_overlap = {result.normalized_overlap!r}\n")
        fh.write(f"flagged = {int(result.flagged)}\n")


def read_transform(path) -> RigidTransform:
    vals = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, _, rest = line.partition("=")
                vals[key.strip()] = rest.split()
    angles = tuple(math.radians(float(v)) for v in vals["angles_deg"])
    translation = tuple(float(v) for v in vals["translation"])
    return RigidTransform(angles, translation)
