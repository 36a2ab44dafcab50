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

The correlation runs in float32. Its values are integer overlaps, but at
the finest level the proven float32 error bound (``_fft_error_bound``)
exceeds 0.5, so the rounded maximum alone could be wrong. The float32
values therefore only nominate the shifts within twice the bound of the
computed maximum, which always include every true maximizer; each nominee's
overlap is counted exactly in integers. A solve with more than
MAX_CANDIDATES nominees reruns in float64, whose bound is below 1e-6 here,
so rounding it is exact.

Each solve correlates only over the shifts that can still win, on a cyclic
length short of the full zero padding where it can. A summed-area table of
the plane gives, per in-plane shift, the plane foreground that lands inside
the slice: an upper bound on the overlap there. The exact overlap at the
solver's last result is a lower bound on the maximum, so every maximizer
lies in the box of shifts whose bound reaches it; the length is chosen so
that no shift in the box aliases (``TranslationSolver``). The results do
not depend on that hint or on the order of solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from ._kernels.rotate import guard_volume, rotate_nearest
from .volgrid import BinaryVolume, _atomic_files, key_value, read_key_values


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


def volume_center(shape) -> tuple[float, float, float]:
    """(x, y, z) center of a volume of shape (nz, ny, nx)."""
    nz, ny, nx = shape
    return ((nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0)


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


# A float32 solve nominating more candidate shifts than this reruns in
# float64 (a tie plateau, or a correlation with no clear peak).
MAX_CANDIDATES = 64

# First-order FFT error terms in units of the unit roundoff u: ETA per
# transform stage (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., Thm 24.2), and the spectrum rounding, the complex product and the
# 1/N scaling together; SAFETY covers the second-order terms and the
# mixed-radix real-input transforms scipy runs, which the radix-2 theorem
# does not.
_FFT_ETA = 8.0
_FFT_PRODUCT = 5.0
_FFT_SAFETY = 4.0


def _fft_error_bound(a: int, b: int, n: int, unit: float) -> float:
    """Bound on |computed - exact| over every entry of the correlation of
    one slice with ``b`` foreground pixels and a plane with ``a``, over a
    padded transform of ``n`` points, in a precision of unit roundoff
    ``unit``.

    With L = log2(n), Thm 24.2 gives a forward error of at most
    L*eta*||x||_2 for a transform of x, eta = mu + gamma_4*(sqrt(2) + mu)
    <= 8u with twiddles accurate to u. The slice's spectrum S has
    ||S||_2 = sqrt(n*b) (Parseval) and the plane's |P_k| <= ||p||_1 = a, so
    the product S*conj(P) is off by at most a*sqrt(n*b)*(L*eta + 5u): the
    forward transform, rounding P, and the complex product with its
    sqrt(2)*gamma_2 (Lemma 3.5). The inverse transform scales 2-norms by
    1/sqrt(n) and adds its own L*eta, and the max norm is at most the 2-norm,
    so every entry is off by at most a*sqrt(b)*(2*L*eta + 5u). The float64
    error of P itself is about 2e-9 of that and left to the safety factor:

        E = SAFETY * u * a * sqrt(b) * (2*L*ETA + PRODUCT),

    with ETA and PRODUCT in units of u. At the finest registration level
    (a = 1 335, b = 1 841, n = 192^2) E is 3.4 in float32, too large to
    round the float32 maximum, and 6e-9 in float64.
    """
    return _FFT_SAFETY * unit * a * math.sqrt(b) * (
        2.0 * _FFT_ETA * math.log2(n) + _FFT_PRODUCT
    )


class TranslationSolver:
    """FFT cross-correlation solver for repeated solves against rotated bands
    of volumes with the same (ny, nx); the band height may change from solve
    to solve.

    The plane is a single slice, so the correlation along z is the identity:
    each volume slice is correlated with the plane by a 2-D transform over
    (y, x). The float32 correlation nominates every entry within 2E of its
    maximum, E being ``_fft_error_bound``: each true maximizer's computed
    value is at most E below the exact maximum, and the computed maximum at
    most E above it, so every maximizer is nominated.

    Each solve correlates only over the shifts that can still win. Along an
    axis with slice length n and plane length p the shifts with any overlap
    are [-(p-1), n-1]. ``reach[y, x]``, from a summed-area table of the
    plane, counts the plane's foreground pixels that land inside the slice at
    shift (x, y): an upper bound on the overlap at that shift on any slice.
    ``hint`` is the (x, y) of the last result with a positive overlap; its
    exact overlap, maximized over the band's slices, is a lower bound LB on
    the maximum. Every maximizer lies in the box B = [lo, hi] per axis
    bounding {reach >= LB}. A cyclic length N >= max(n, p, n - lo, hi + p)
    has no alias in B: for s in B, s + N > n - 1 and s - N < -(p - 1), so the
    shifts s +- kN lie outside the support, and the entries of B are the
    linear correlation. Without a hint, or with LB = 0, B is the whole
    support and N is the full zero-padded length.

    The hint moves only LB, and LB is an overlap the band attains, so B
    always holds every maximizer: the shift, the overlap and the tie-break
    do not depend on the hint or on the order of solves."""

    def __init__(self, vol_shape, plane):
        p = _as_plane_array(plane)
        ny, nx = vol_shape[-2:]
        ph, pw = p.shape
        if pw > nx or ph > ny:
            raise ValueError("plane must not exceed the volume in x or y")
        self.slice_shape = (ny, nx)
        self.plane = p
        self.empty = not p.any()
        self.hint = None
        if self.empty:
            return
        self.count = int(np.count_nonzero(p))
        self.pad = self._length(ny, ph, -(ph - 1), ny - 1), self._length(nx, pw, -(pw - 1), nx - 1)
        self._spectra = {}
        # reach[y + ph - 1, x + pw - 1]: plane foreground inside the slice at
        # shift (x, y), from the summed-area table of the plane
        sat = np.zeros((ph + 1, pw + 1), np.int64)
        sat[1:, 1:] = p.cumsum(0).cumsum(1)
        sy, sx = np.arange(-(ph - 1), ny), np.arange(-(pw - 1), nx)
        y0, y1 = np.clip(-sy, 0, ph)[:, None], np.clip(ny - sy, 0, ph)[:, None]
        x0, x1 = np.clip(-sx, 0, pw), np.clip(nx - sx, 0, pw)
        reach = sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]
        # B's extent per axis only needs the best reach of each row and column
        self._reach_y, self._reach_x = reach.max(axis=1), reach.max(axis=0)

    @staticmethod
    def _length(n: int, p: int, lo: int, hi: int) -> int:
        """Cyclic length with no alias for the shifts [lo, hi] of an axis
        with slice length n and plane length p."""
        return sfft.next_fast_len(max(n, p, n - lo, hi + p), real=True)

    def _spectrum(self, pad, dtype) -> np.ndarray:
        """Conjugate plane spectrum over ``pad`` in the complex type of
        ``dtype``, computed once per length in float64."""
        if pad not in self._spectra:
            conj64 = np.conj(sfft.rfft2(self.plane.astype(np.float64), s=pad))
            self._spectra[pad] = {np.float64: conj64, np.float32: conj64.astype(np.complex64)}
        return self._spectra[pad][dtype]

    def _correlate(self, vol: np.ndarray, pad, dtype, offset=(0, 0)) -> np.ndarray:
        """Cyclic correlation over ``pad`` of every slice with the plane, in
        ``dtype`` (np.float32 or np.float64), each slice placed at ``offset``
        (y, x) in the zero-padded frame: entry [z, y, x] is the overlap at
        shift (x - offset[1], y - offset[0], z), shifts taken modulo ``pad``
        and, where ``pad`` is short of the support, aliases added."""
        nz, ny, nx = vol.shape
        oy, ox = offset
        frame = np.zeros((nz, *pad), dtype)
        frame[:, oy : oy + ny, ox : ox + nx] = vol
        fv = sfft.rfft2(frame)
        fv *= self._spectrum(pad, dtype)
        return sfft.irfft2(fv, s=pad)

    def _no_overlap(self) -> TranslationResult:
        ph, pw = self.plane.shape
        return TranslationResult((-(pw - 1), -(ph - 1), 0), 0)

    def _overlap(self, vol: np.ndarray, sx: int, sy: int):
        """Exact overlap at in-plane shift (sx, sy) on each slice of ``vol``
        (on the one slice, when ``vol`` is 2-D)."""
        ny, nx = self.slice_shape
        ph, pw = self.plane.shape
        x0, x1 = max(0, sx), min(nx, sx + pw)
        y0, y1 = max(0, sy), min(ny, sy + ph)
        if x0 >= x1 or y0 >= y1:
            return 0
        window = self.plane[y0 - sy : y1 - sy, x0 - sx : x1 - sx]
        return np.count_nonzero(vol[..., y0:y1, x0:x1] & window, axis=(-2, -1))

    def _window(self, vol: np.ndarray):
        """The box B holding every maximizer of ``vol``, from the hint's
        overlap and the reach, as its cyclic lengths and its (y, x) corners
        ``lo`` and ``hi``."""
        lb = 0 if self.hint is None else int(np.max(self._overlap(vol, *self.hint)))
        (ny, nx), (ph, pw) = self.slice_shape, self.plane.shape
        ys = np.flatnonzero(self._reach_y >= lb) - (ph - 1)
        xs = np.flatnonzero(self._reach_x >= lb) - (pw - 1)
        lo, hi = (int(ys[0]), int(xs[0])), (int(ys[-1]), int(xs[-1]))
        pad = self._length(ny, ph, lo[0], hi[0]), self._length(nx, pw, lo[1], hi[1])
        return pad, lo, hi

    def _correlate_window(self, vol, pad, lo, hi, dtype) -> np.ndarray:
        """The correlation over B: entry [z, i, j] is the overlap at shift
        (lo[1] + j, lo[0] + i, z). A negative corner is offset by -lo, so
        B's entries are one block of the cyclic frame, not wrapped; the
        slice still fits, as the length is at least n - lo."""
        (y0, x0), (y1, x1) = lo, hi
        oy, ox = max(0, -y0), max(0, -x0)
        corr = self._correlate(vol, pad, dtype, (oy, ox))
        return corr[:, y0 + oy : y1 + oy + 1, x0 + ox : x1 + ox + 1]

    def _solve_float64(self, vol: np.ndarray, pad, lo, hi) -> TranslationResult:
        corr = self._correlate_window(vol, pad, lo, hi, np.float64)
        best = int(np.rint(corr.max()))
        if best <= 0:
            return self._no_overlap()
        zi, yi, xi = np.nonzero(corr > best - 0.5)
        k = np.lexsort((zi, yi, xi))[0]  # smallest (x, y, z)
        return TranslationResult((lo[1] + int(xi[k]), lo[0] + int(yi[k]), int(zi[k])), best)

    def _solve(self, vol: np.ndarray, b: int) -> TranslationResult:
        pad, lo, hi = self._window(vol)
        corr = self._correlate_window(vol, pad, lo, hi, np.float32)
        err = _fft_error_bound(self.count, b, pad[0] * pad[1], 2.0**-24)
        thr = np.nextafter(np.float32(float(corr.max()) - 2.0 * err), np.float32(-np.inf))
        hits = np.flatnonzero(corr >= thr)
        if hits.size > MAX_CANDIDATES:
            return self._solve_float64(vol, pad, lo, hi)
        zi, yi, xi = np.unravel_index(hits, corr.shape)
        shifts = list(zip((xi + lo[1]).tolist(), (yi + lo[0]).tolist(), zi.tolist()))
        counts = [int(self._overlap(vol[sz], sx, sy)) for sx, sy, sz in shifts]
        best = max(counts)
        if best == 0:  # no overlap anywhere: the smallest shift wins
            return self._no_overlap()
        return TranslationResult(min(s for s, c in zip(shifts, counts) if c == best), best)

    def solve(self, vol: np.ndarray) -> TranslationResult:
        if vol.ndim != 3 or vol.shape[1:] != self.slice_shape:
            raise ValueError(f"expected volume slices of shape {self.slice_shape}, got {vol.shape}")
        if self.empty:
            return TranslationResult((0, 0, 0), 0, empty_plane=True)
        b = int(np.count_nonzero(vol, axis=(1, 2)).max(initial=0))
        if b == 0:
            return self._no_overlap()
        res = self._solve(vol, b)
        if res.overlap > 0:
            self.hint = res.shift[:2]
        return res


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


class _PlaneSampler:
    """The section-to-volume rule for many transforms of one set of plane
    points ``uv`` (N, 2) of (u, v) and one volume ``vol`` (nz, ny, nx) of
    any dtype, prepared: the volume with a one-voxel zero guard
    (``guard_volume``), flattened, and buffers for every step.

    The point (u, v) sits at q = (u + tx, v + ty, tz), maps to
    p = (q - c) @ R + c about the volume's center c, and reads its nearest
    voxel floor(p + 0.5), or 0 outside the volume. The (N, 3) @ R product
    runs on a C-contiguous q (BLAS may fuse its multiply-adds, so a
    hand-written sum would differ in the last bit); the rest on a (3, N)
    copy, whose clip to [-1, n] sends every point outside the volume onto a
    guard voxel. The flat index is summed in float64, exactly, as every
    term is an integer far below 2**53, and one gather reads every
    sample."""

    def __init__(self, vol: np.ndarray, uv):
        nz, ny, nx = self.shape = vol.shape
        uv = np.asarray(uv, np.float64).reshape(-1, 2)
        self.u, self.v = uv[:, 0].copy(), uv[:, 1].copy()
        self.center = np.array(volume_center(vol.shape))
        self.volume = guard_volume(vol).ravel()
        self.top = np.array([[nx], [ny], [nz]], np.float64)
        # guarded strides of (x, y, z); the offset of guard index 1 on each axis
        self.strides = np.array([1.0, nx + 2.0, (ny + 2.0) * (nx + 2.0)])
        self.offset = float((ny + 3) * (nx + 2) + 1)
        n = len(self.u)
        self.q = np.empty((n, 3))
        self.m = np.empty((n, 3))
        self.p = np.empty((3, n))
        self.flat = np.empty(n)

    def _gather(self, transform: RigidTransform) -> np.ndarray:
        """The value each point reads; leaves its clipped voxel in ``p``."""
        cx, cy, cz = self.center
        tx, ty, tz = transform.translation
        q, p = self.q, self.p
        np.add(self.u, tx, out=q[:, 0])
        q[:, 0] -= cx
        np.add(self.v, ty, out=q[:, 1])
        q[:, 1] -= cy
        q[:, 2] = tz - cz
        np.matmul(q, transform.rotation(), out=self.m)
        np.add(self.m.T, self.center[:, None], out=p)
        p += 0.5
        np.floor(p, out=p)
        np.clip(p, -1.0, self.top, out=p)
        np.dot(self.strides, p, out=self.flat)
        self.flat += self.offset
        # a NaN casts to an index outside the array, which "clip" sends to
        # the first or last voxel: both are guard voxels
        return self.volume.take(self.flat.astype(np.intp), mode="clip")

    def overlap(self, transform: RigidTransform) -> int:
        return int(np.count_nonzero(self._gather(transform)))

    def sample(self, transform: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
        """The values, and the mask of points inside the volume: 0 <= p < n
        on every axis, which a NaN fails."""
        values = self._gather(transform)
        return values, ((self.p >= 0.0) & (self.p < self.top)).all(axis=0)


def sample_plane(data: np.ndarray, transform: RigidTransform, uv) -> tuple[np.ndarray, np.ndarray]:
    """Plane points ``uv`` (N, 2) of (u, v) read at their nearest voxel of
    ``data`` (nz, ny, nx) through ``transform`` (``_PlaneSampler``).
    Returns the values, in the dtype of ``data``, and the mask of points
    whose voxel lies inside the volume; points outside read 0."""
    return _PlaneSampler(data, uv).sample(transform)


def direct_overlap(vol: BinaryVolume, plane, transform: RigidTransform, sampler=None) -> int:
    """Overlap evaluated by sampling the volume at the nearest voxel of each
    of the plane's foreground pixels; supports fractional shifts, unlike the
    lattice correlation. ``sampler``, when given, is a ``_PlaneSampler`` of
    ``plane_points(plane)`` and ``vol``, built once by a caller that
    evaluates the same plane many times."""
    if sampler is None:
        sampler = _PlaneSampler(vol.data, plane_points(plane))
    elif sampler.shape != vol.data.shape:
        raise ValueError(f"sampler built for volume shape {sampler.shape}, got {vol.data.shape}")
    return sampler.overlap(transform)


@dataclass(frozen=True)
class RegisterOptions:
    pyramid: tuple[int, ...] = (4, 2, 1)
    max_iter: int = 200

    def __post_init__(self):
        for f in self.pyramid:
            if f not in SIMPLEX_STEP_DEG:
                raise ValueError(
                    f"pyramid factor {f} has no simplex step (steps for {tuple(SIMPLEX_STEP_DEG)})"
                )
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
COARSE_SEED_DEG = 10.0  # seed grid half-width at the coarsest level
SIMPLEX_STEP_DEG = {4: 5.0, 2: 2.5, 1: 1.0}  # initial simplex step per pyramid factor
# Registration ends in the polish, a joint simplex over (angles, shift) with
# subvoxel sampling: the integer lattice alone biases the tilt angles when
# the true shift is fractional. POLISH_ITER caps each polish run; the
# polish restarts from its best point, and from that point with one
# axis nudged by +-1 degree, while the first polish still looks weak (below
# POLISH_RESTART_BELOW of the plane's pixels).
POLISH_ITER = 200
POLISH_RESTART_BELOW = 0.98


def _prefer(key, res):
    """Sort key of a lattice evaluation: larger overlap first; ties prefer
    the smallest rotation, so flat stretches stay centered, then
    lexicographic order."""
    return (-res.overlap, sum(abs(v) for v in key), key)


class _BandObjective:
    """Negated lattice overlap at one pyramid level, with the translation's
    z searched in the band [z0, z1) of the rotated volume; the full height
    is rotated and solved only when the band edge wins."""

    def __init__(self, vol_l: np.ndarray, guarded: np.ndarray, solver: TranslationSolver,
                 z0: int, z1: int, trace: list):
        self.vol = vol_l
        # shared by every band of the level: guard_volume(vol_l) and the solver
        self.guarded = guarded
        self.solver = solver
        self.z0, self.z1 = z0, z1
        self.center = volume_center(vol_l.shape)
        self.trace = trace
        self.cache = {}
        self.touched = set()  # keys evaluated or looked up by the current run

    def result(self, a3) -> TranslationResult:
        key = tuple(round(v, 12) for v in a3)
        self.touched.add(key)
        if key not in self.cache:
            z0, z1, nz = self.z0, self.z1, self.vol.shape[0]
            rinv = RigidTransform(a3, (0.0, 0.0, 0.0)).rotation().T
            band = rotate_nearest(self.vol, rinv, self.center, z0, z1, self.guarded)
            res = self.solver.solve(band)
            sx, sy, sz = res.shift
            if z0 > 0 or z1 < nz:
                # re-solve over the full height if the band boundary wins
                if (sz == 0 and z0 > 0) or (sz == z1 - z0 - 1 and z1 < nz):
                    res = self.solver.solve(
                        rotate_nearest(self.vol, rinv, self.center, guarded=self.guarded)
                    )
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


def _lattice_search(vol: BinaryVolume, p: np.ndarray, opts: RegisterOptions, trace: list):
    """Coarse-to-fine rotation search with the exact translation solve
    inside; returns the best (angles, TranslationResult) at full resolution
    and appends every evaluation to ``trace``.

    The coarsest level ranks a small angle grid and runs the simplex from
    the best COARSE_STARTS seeds; each finer level runs it again from every
    carried optimum, each with its own z band. At full resolution every
    carried optimum is scored once and only the best is refined, so the
    result can never fall below the best carried optimum re-evaluated at
    full resolution.
    """
    starts = None  # (angles, z estimate at this level's scale or None)

    for level, factor in enumerate(opts.pyramid):
        vol_l = block_or_downsample(vol.data, factor)
        plane_l = block_or_downsample(p, factor)
        if not plane_l.any():
            raise ValueError(f"plane vanished at pyramid factor {factor}")
        nz_l = vol_l.shape[0]
        diag = math.hypot(*plane_l.shape)
        margin = max(12, int(0.12 * diag))
        solver = TranslationSolver(vol_l.shape, plane_l)
        guarded = guard_volume(vol_l)
        bands = {}

        def objective_at(tz):
            if tz is None:
                z0, z1 = 0, nz_l
            else:
                z0 = max(0, int(round(tz)) - margin)
                z1 = min(nz_l, int(round(tz)) + margin + 1)
            if (z0, z1) not in bands:
                bands[z0, z1] = _BandObjective(vol_l, guarded, solver, z0, z1, trace)
            return bands[z0, z1]

        if starts is None:
            full = objective_at(None)
            s = math.radians(COARSE_SEED_DEG)
            steps = (-s, -0.5 * s, 0.0, 0.5 * s, s)
            seeds = [(za, yb, xg) for za in steps for yb in steps for xg in steps]
            ranked = sorted(seeds, key=lambda a: _prefer(a, full.result(a)))
            starts = [(a, None) for a in ranked[:COARSE_STARTS]]
        if level == len(opts.pyramid) - 1:
            # score each carried optimum once; refine only the best
            starts = [min(starts, key=lambda st: _prefer(st[0], objective_at(st[1]).result(st[0])))]
        step = math.radians(SIMPLEX_STEP_DEG[factor])
        optima = [objective_at(tz).simplex(angles, step, opts.max_iter) for angles, tz in starts]
        next_factor = opts.pyramid[level + 1] if level + 1 < len(opts.pyramid) else factor
        starts = list(dict.fromkeys(
            (key, res.shift[2] * factor / next_factor) for key, res in optima
        ))

    return min(optima, key=lambda o: _prefer(*o))


def _polish(vol: BinaryVolume, p: np.ndarray, x0: np.ndarray, trace: list):
    """Joint simplex over (angles, shift) from ``x0``, sampling the plane at
    subvoxel shifts (``direct_overlap``); returns the best parameters and
    their overlap and appends every evaluation to ``trace``."""
    polish_cache = {}
    sampler = _PlaneSampler(vol.data, plane_points(p))

    def joint_objective(params):
        key = tuple(round(v, 12) for v in params)
        if key not in polish_cache:
            t = RigidTransform(tuple(params[:3]), tuple(params[3:]))
            ov = direct_overlap(vol, p, t, sampler)
            polish_cache[key] = ov
            trace.append((len(trace), ov))
        return -polish_cache[key]

    # anisotropic steps: radians for angles, voxels for the shift
    scale = np.array([math.radians(0.5)] * 3 + [0.5] * 3)

    def polish_from(start):
        def scaled_objective(u):
            return joint_objective(tuple(start + scale * np.asarray(u)))

        u, neg = nelder_mead(scaled_objective, np.zeros(6), step=1.0, max_iter=POLISH_ITER, ftol=1.0)
        return start + scale * np.asarray(u), int(-neg)

    best_params, best_ov = polish_from(x0)
    if best_ov < POLISH_RESTART_BELOW * int(p.sum()):
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
    return best_params, best_ov


def register_section(vol: BinaryVolume, plane, opts: RegisterOptions = RegisterOptions()):
    """The lattice search (``_lattice_search``), then the joint polish from
    its optimum (``_polish``), kept when it does not lower the overlap. The
    result's trace holds the evaluations of both stages."""
    p = _as_plane_array(plane)
    if not p.any():
        raise ValueError("plane is empty")
    plane_count = int(p.sum())
    trace = []
    angles, lattice = _lattice_search(vol, p, opts, trace)
    shift = tuple(float(v) for v in lattice.shift)
    params, overlap = _polish(vol, p, np.array(angles + shift, np.float64), trace)
    transform = RigidTransform(tuple(params[:3]), tuple(params[3:]))
    if overlap < lattice.overlap:
        transform, overlap = RigidTransform(angles, shift), lattice.overlap
    norm = overlap / plane_count
    return RegistrationResult(
        transform=transform,
        overlap=overlap,
        normalized_overlap=norm,
        trace=tuple(trace),
        flagged=norm < 0.5,
    )


def write_result(result: RegistrationResult, path) -> None:
    """Write the result as ``key = value`` lines; a failed write leaves no
    partial file at ``path``."""
    a = [math.degrees(v) for v in result.transform.angles]
    t = result.transform.translation
    with _atomic_files(path) as (fh,):
        fh.write(f"angles_deg = {a[0]!r} {a[1]!r} {a[2]!r}\n".encode())
        fh.write(f"translation = {t[0]!r} {t[1]!r} {t[2]!r}\n".encode())
        fh.write(f"overlap = {result.overlap}\n".encode())
        fh.write(f"normalized_overlap = {result.normalized_overlap!r}\n".encode())
        fh.write(f"flagged = {int(result.flagged)}\n".encode())


def read_transform(path) -> RigidTransform:
    """The transform of a ``write_result`` file; a missing or malformed
    ``angles_deg`` or ``translation`` raises ValueError naming the file and
    the key."""
    vals = read_key_values(path)
    angles = key_value(path, vals, "angles_deg", float, 3)
    translation = key_value(path, vals, "translation", float, 3)
    return RigidTransform(tuple(math.radians(a) for a in angles), translation)
