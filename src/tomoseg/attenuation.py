"""Transfer mineral identity from a registered 2D section into the volume
and calibrate a linear map from grayscale to the product of mass density and
mass attenuation coefficient (rho * mu_m, the quantity driving local X-ray
absorption).

The key fit is rho*mu_m = a*I + b over per-mineral mean grayscales; a
mu_m-only variant is provided because it demonstrably fits much worse when
mineral densities differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .register import RigidTransform, sample_plane
from .volgrid import (
    BinaryVolume, LabelPlane, ScalarVolume, _atomic_text, finite_float, key_value,
    read_key_values,
)


@dataclass(frozen=True)
class Mineral:
    name: str
    code: int
    rho: float  # mass density, g/cm^3
    mu_m: float  # mass attenuation coefficient, cm^2/g

    def __post_init__(self):
        # the comparisons are False for nan
        if not (0 < self.rho < math.inf and 0 < self.mu_m < math.inf):
            raise ValueError(f"{self.name}: rho and mu_m must be positive and finite")

    @property
    def rho_mu(self) -> float:
        return self.rho * self.mu_m


@dataclass(frozen=True)
class MineralTable:
    minerals: tuple[Mineral, ...]

    def __post_init__(self):
        codes = [m.code for m in self.minerals]
        if len(set(codes)) != len(codes):
            raise ValueError("mineral codes must be unique")

    def by_code(self, code: int) -> Mineral:
        for m in self.minerals:
            if m.code == code:
                return m
        raise KeyError(f"no mineral with code {code}")

    def by_name(self, name: str) -> Mineral:
        for m in self.minerals:
            if m.name == name:
                return m
        raise KeyError(f"no mineral named {name!r}")

    @property
    def codes(self):
        return tuple(m.code for m in self.minerals)


def load_mineral_table(path=None) -> MineralTable:
    """CSV with header name,code,rho,mu_m; defaults to the bundled table.
    Blank lines are skipped; a file without the header, a row without four
    fields, with a code that is not a number or with rho or mu_m not a
    positive finite number, or two rows with one code, raise ValueError
    naming the file (and the rows' line numbers)."""
    if path is None:
        path = resources.files("tomoseg").joinpath("data/minerals.csv")
        text = path.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    rows = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not rows or rows[0][1] != "name,code,rho,mu_m":
        raise ValueError(f"{path}: mineral table must start with header name,code,rho,mu_m")
    minerals, code_lines = [], {}
    for lineno, ln in rows[1:]:
        fields = ln.split(",")
        where = f"{path} line {lineno}"
        if len(fields) != 4:
            raise ValueError(f"{where}: expected name,code,rho,mu_m, got {len(fields)} fields")
        name, code, rho, mu = fields
        try:
            minerals.append(Mineral(name, int(code), float(rho), float(mu)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        code = minerals[-1].code
        if code in code_lines:
            raise ValueError(f"{path} lines {code_lines[code]} and {lineno}: "
                             f"mineral code {code} appears twice")
        code_lines[code] = lineno
    return MineralTable(tuple(minerals))


# Mean grayscale levels paired with the bundled mineral table; the phantom
# generator anchors its synthetic grayscale response to these, and the
# regression self-tests fit against them.
REFERENCE_MEAN_GRAY = {
    "quartz": 19274.0,
    "kaolinite": 19225.0,
    "muscovite": 21213.0,
    "zinnwaldite": 27943.0,
    "topaz": 21615.0,
}


def extract_phase(plane: LabelPlane, code: int, table: MineralTable) -> np.ndarray:
    """Pixel coordinates (N, 2) as (u, v) carrying the given mineral code.
    Unknown codes raise; a known but absent code yields an empty set."""
    table.by_code(code)
    ys, xs = np.nonzero(plane.data == code)
    return np.column_stack([xs, ys]).astype(np.int64)


def erode_phase(plane: LabelPlane, code: int, table: MineralTable, radius_px: int) -> np.ndarray:
    """Phase pixels with a ``radius_px`` boundary band peeled off.

    Voxel-scale registration error flips boundary pixels onto neighboring
    material, which biases phase means toward the surroundings; eroding by
    about one voxel's worth of section pixels removes that partial-volume
    band. A phase present only in slivers thinner than the band has no
    interior: erosion empties it and the result is empty, so callers skip
    it rather than average a boundary-biased sliver."""
    from scipy import ndimage

    if radius_px <= 0:
        return extract_phase(plane, code, table)
    table.by_code(code)
    mask = plane.data == code
    yy, xx = np.mgrid[-radius_px : radius_px + 1, -radius_px : radius_px + 1]
    footprint = yy * yy + xx * xx <= radius_px * radius_px
    eroded = ndimage.binary_erosion(mask, structure=footprint)
    ys, xs = np.nonzero(eroded)
    return np.column_stack([xs, ys]).astype(np.int64)


def mean_phase_gray(
    vol: ScalarVolume,
    transform: RigidTransform,
    phase: np.ndarray,
    pixel_to_voxel: float = 1.0,
):
    """Mean volume grayscale over the transformed phase pixels.

    ``pixel_to_voxel`` scales plane pixel indices into voxel units (the
    section is usually on a finer grid). Pixels mapping outside the volume
    are skipped and counted; several pixels may legitimately land in one
    voxel and each keeps its weight.
    Returns (mean, n_used, n_skipped).
    """
    phase = np.asarray(phase, np.float64).reshape(-1, 2)
    if len(phase) == 0:
        raise ValueError("phase is empty")
    values, inside = sample_plane(vol.data, transform, phase * pixel_to_voxel)
    n_used = int(inside.sum())
    if n_used == 0:
        raise ValueError("every phase pixel maps outside the volume")
    return float(values[inside].astype(np.float64).mean()), n_used, int(len(phase) - n_used)


def phase_means(
    vol: ScalarVolume,
    transform: RigidTransform,
    plane: LabelPlane,
    table: MineralTable,
    pixel_to_voxel: float = 1.0,
    erode_px: int = 0,
):
    """Mean grayscale of each mineral's phase on a registered section.

    Each phase loses an ``erode_px`` boundary band first (``erode_phase``).
    Returns ([(mineral, mean, n_used), ...], skipped names): a mineral
    absent from the section, or present only in slivers that erosion
    empties, is skipped."""
    means = []
    skipped = []
    for mineral in table.minerals:
        phase = erode_phase(plane, mineral.code, table, erode_px)
        if len(phase) == 0:
            skipped.append(mineral.name)
            continue
        mean, n_used, _ = mean_phase_gray(vol, transform, phase, pixel_to_voxel)
        means.append((mineral, mean, n_used))
    return means, tuple(skipped)


@dataclass(frozen=True)
class AttenuationModel:
    slope: float  # a in rho*mu_m = a*I + b
    intercept: float  # b
    gray_min: float  # calibration interval; predictions outside are flagged
    gray_max: float
    r_squared: float
    residuals: tuple  # (name, fitted - true) per calibration sample

    def predict(self, gray):
        return self.slope * np.asarray(gray, np.float64) + self.intercept


def save_model(model: AttenuationModel, path) -> None:
    """Write the line and its interval as ``key = value`` lines; the
    residuals are not stored."""
    with _atomic_text(path) as fh:
        fh.write(f"slope = {model.slope!r}\n")
        fh.write(f"intercept = {model.intercept!r}\n")
        fh.write(f"gray_min = {model.gray_min!r}\n")
        fh.write(f"gray_max = {model.gray_max!r}\n")
        fh.write(f"r_squared = {model.r_squared!r}\n")


def load_model(path) -> AttenuationModel:
    """A ``save_model`` file; ``r_squared`` may be absent or NaN. A missing
    or malformed key, or a line or interval bound that is not finite,
    raises ValueError naming the file and the key."""
    vals = read_key_values(path)
    keys = ("slope", "intercept", "gray_min", "gray_max")
    slope, intercept, gray_min, gray_max = (key_value(path, vals, k, finite_float) for k in keys)
    r2 = key_value(path, vals, "r_squared", float) if "r_squared" in vals else math.nan
    return AttenuationModel(slope, intercept, gray_min, gray_max, r2, ())


def _ols(x: np.ndarray, y: np.ndarray, w: np.ndarray | None):
    if w is None:
        w = np.ones_like(x)
    wsum = w.sum()
    mx = np.sum(w * x) / wsum
    my = np.sum(w * y) / wsum
    sxx = np.sum(w * (x - mx) ** 2)
    if sxx == 0.0:
        raise ValueError("all grayscale values coincide; the fit is rank-deficient")
    sxy = np.sum(w * (x - mx) * (y - my))
    slope = sxy / sxx
    intercept = my - slope * mx
    pred = slope * x + intercept
    ss_res = np.sum(w * (y - pred) ** 2)
    ss_tot = np.sum(w * (y - my) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2), pred


def fit_attenuation(samples, weights=None) -> AttenuationModel:
    """Least squares of rho*mu_m on mean grayscale.

    ``samples``: iterable of (name, mean_gray, rho, mu_m). ``weights``:
    optional per-sample weights (e.g. phase voxel counts); unweighted by
    default. The valid interval is the grayscale span of the calibration
    samples; the line must not be extrapolated.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    names = [s[0] for s in samples]
    gray = np.array([s[1] for s in samples], np.float64)
    rho_mu = np.array([s[2] * s[3] for s in samples], np.float64)
    w = None if weights is None else np.asarray(weights, np.float64)
    slope, intercept, r2, pred = _ols(gray, rho_mu, w)
    residuals = tuple((n, float(p - t)) for n, p, t in zip(names, pred, rho_mu))
    return AttenuationModel(slope, intercept, float(gray.min()), float(gray.max()), r2, residuals)


def predict_map(vol: ScalarVolume, model: AttenuationModel, mask: BinaryVolume):
    """Per-voxel predicted rho*mu_m on the mask plus an out-of-range flag
    mask (voxels whose grayscale leaves the calibration interval; their
    values are still emitted)."""
    gray = vol.data.astype(np.float64)
    pred = np.where(mask.data, model.predict(gray), 0.0)
    out_of_range = mask.data & ((gray < model.gray_min) | (gray > model.gray_max))
    return pred, out_of_range


@dataclass(frozen=True)
class ValidationRow:
    name: str
    mean_gray: float
    n_pixels: int
    predicted: float
    true: float

    @property
    def rel_error(self) -> float:
        return abs(self.predicted - self.true) / abs(self.true)


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    skipped: tuple[str, ...]  # minerals absent from the section or eroded away

    @property
    def max_rel_error(self) -> float:
        return max((r.rel_error for r in self.rows), default=math.nan)


def validate_section(
    vol: ScalarVolume,
    model: AttenuationModel,
    transform: RigidTransform,
    plane: LabelPlane,
    table: MineralTable,
    pixel_to_voxel: float = 1.0,
    erode_px: int = 0,
) -> ValidationReport:
    """Predicted vs true rho*mu_m per mineral present on a held-out section.

    ``erode_px`` peels a boundary band off each phase before averaging (see
    erode_phase); 0 uses the phases verbatim. Minerals absent from the
    section, or present only in slivers that erosion empties, are listed in
    ``skipped``.
    """
    means, skipped = phase_means(vol, transform, plane, table, pixel_to_voxel, erode_px)
    rows = tuple(
        ValidationRow(m.name, mean, n_used, float(model.predict(mean)), m.rho_mu)
        for m, mean, n_used in means
    )
    return ValidationReport(rows, skipped)


def write_scatter(report: ValidationReport, path) -> None:
    with _atomic_text(path) as fh:
        fh.write("mineral,predicted,true\n")
        for r in report.rows:
            fh.write(f"{r.name},{r.predicted!r},{r.true!r}\n")


@dataclass(frozen=True)
class MuOnlyFit:
    c1: float
    c2: float
    r_squared: float


def mu_only_fit(samples) -> MuOnlyFit:
    """Least squares of mu_m alone on mean grayscale. Kept as a diagnostic:
    with differing mineral densities its fit quality falls well below the
    rho*mu_m regression, which is the reason the product is calibrated."""
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    gray = np.array([s[1] for s in samples], np.float64)
    mu = np.array([s[3] for s in samples], np.float64)
    c1, c2, r2, _ = _ols(gray, mu, None)
    return MuOnlyFit(c1, c2, r2)


def reference_samples(table: MineralTable):
    """(name, mean_gray, rho, mu_m) rows pairing the bundled table with the
    reference mean grayscales; the calibration self-test input."""
    return [
        (m.name, REFERENCE_MEAN_GRAY[m.name], m.rho, m.mu_m)
        for m in table.minerals
        if m.name in REFERENCE_MEAN_GRAY
    ]
