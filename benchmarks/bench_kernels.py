#!/usr/bin/env python3
"""Times each hot kernel: the four with a numba twin on both paths, the
rest through their public entry points.

Usage:
    python benchmarks/bench_kernels.py [--size N] [--repeats K]

Non-local means, grayscale reconstruction, regional minima and flooding
have a numba twin and a numpy path. Regional minima (plateau components)
and flooding (a bucket queue) use their own algorithms on the numpy path,
with results identical to the numba twins; flooding is the one numpy kernel
that still steps voxel by voxel in Python. Non-local means on the numpy
path splits its z-rows over worker threads (the usable CPUs); its row names
the worker count. Separable correlation, the Sauvola field, the exact EDT,
connected components, rotation, superellipsoid rendering, the ball
opening, the registration's polish sampler and its translation solve
(float32 FFT correlation plus an exact count of each candidate shift) have
one numpy/scipy implementation, so their rows have a numpy column only.
Rotation reads a guarded copy of the volume built once, as the
registration does. The opening rows time radius 1 and 2 on the ball
footprint, beside the distance-threshold formulation that radii above
``BALL_FOOTPRINT_MAX_RADIUS`` use. The polish row times one prepared
``direct_overlap`` evaluation of a plane of about 15% foreground; rows
under a millisecond print in microseconds. The solve runs at the band and
plane shapes of the three pyramid levels of a 96^3 registration, twice: cold,
over the full zero-padded length, and hinted, with the plane planted in
the band and the solver's hint at its shift, so the transform shrinks to
the few shifts that keep the whole plane inside the slice. The edge
features row builds the region graph and extracts the 18 per-edge features
(curvature fits included) of a 64^3 phantom's foreground, at every size,
split into cells around 96 random seed voxels. Without numba only the
numpy column is printed.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np


def timed(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fmt(t):
    """Seconds as ms, or as us below a millisecond."""
    return f"{t * 1e3:9.1f}ms" if t >= 1e-3 else f"{t * 1e6:9.1f}us"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=64, help="volume edge length")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    os.environ.pop("TOMOSEG_BACKEND", None)
    import tomoseg.backend as backend

    have_numba = backend.HAVE_NUMBA

    from tomoseg._kernels import cc, convsep, edt, flood, nlm, recon, render, rotate, sauvola
    from tomoseg._kernels.recon import neighbor_offsets

    n = args.size
    rng = np.random.default_rng(0)
    img = rng.integers(0, 65536, (n, n, n)).astype(np.uint16)
    imgf = img.astype(np.float64)
    mask = rng.random((n, n, n)) > 0.4
    offs26 = neighbor_offsets(26)

    rows = []

    def add(name, f_numba, f_numpy):
        t_nb = None
        if have_numba:
            f_numba()  # compile
            t_nb = timed(f_numba, args.repeats)
        t_np = timed(f_numpy, args.repeats)
        rows.append((name, t_nb, t_np))

    def add_numpy(name, f_numpy):
        rows.append((name, None, timed(f_numpy, args.repeats)))

    k = convsep.gaussian_kernel(1.5)
    add_numpy("separable correlate (3 axes)", lambda: convsep.correlate_separable(imgf, (k, k, k)))

    nlm_img = imgf[: min(n, 32), : min(n, 32), : min(n, 32)]
    g1 = np.exp(-(np.arange(-1, 2) ** 2) / 2.0)
    g1 = g1 / g1.sum()
    nlm_workers = nlm._slab_workers(nlm_img.shape[0], 1)
    add(
        f"non-local means ({nlm_img.shape[0]}^3, search 2, numpy {nlm_workers} workers)",
        lambda: nlm._nlm_numba(nlm_img, 800.0**2, g1, 2),
        lambda: nlm._nlm_numpy(nlm_img, 800.0**2, 1, 1.0, 2),
    )

    add_numpy("sauvola threshold field",
              lambda: sauvola.sauvola_threshold_field(img, 15, 0.34, 32768.0))
    add_numpy("exact EDT", lambda: edt.edt(mask))

    inv = -edt.edt(mask)
    inv[~mask] = 0.0
    fwd, bwd = recon._split_scan_offsets(offs26)

    def recon_numba():
        recon._recon_sweeps_numba(
            np.where(mask, inv + 1.0, recon._WALL),
            np.where(mask, inv, recon._WALL),
            fwd, bwd,
        )

    def recon_numpy():
        os.environ["TOMOSEG_BACKEND"] = "numpy"
        try:
            recon.reconstruct_erosion(inv + 1.0, inv, mask, 26)
        finally:
            del os.environ["TOMOSEG_BACKEND"]

    add("grayscale reconstruction", recon_numba, recon_numpy)

    add(
        "regional minima",
        lambda: recon._minima_numba(inv, mask, offs26),
        lambda: recon._minima_numpy(inv, mask, offs26),
    )

    add_numpy("connected components", lambda: cc.connected_components_mask(mask, 26))

    markers = np.zeros(mask.shape, np.int32)
    seeds = np.argwhere(mask)[:: max(1, mask.sum() // 40)]
    for i, (z, y, x) in enumerate(seeds, start=1):
        markers[z, y, x] = i

    add(
        "watershed flood",
        lambda: flood._flood_numba(inv, markers, mask, offs26),
        lambda: flood._flood_numpy(inv, markers, mask, offs26),
    )

    from tomoseg.register import RigidTransform, volume_center

    rinv = RigidTransform((0.05, -0.03, 0.04), (0, 0, 0)).rotation().T
    center = volume_center(mask.shape)
    z0 = max(0, n // 2 - 16)
    z1 = min(n, z0 + 33)
    guarded = rotate.guard_volume(mask)
    for label, lo, hi in (("full height", 0, n), (f"{z1 - z0}-slice band", z0, z1)):
        add_numpy(f"rotate ({label})",
                  lambda lo=lo, hi=hi: rotate.rotate_nearest(mask, rinv, center, lo, hi, guarded))

    from tomoseg import binarize
    from tomoseg.register import _PlaneSampler, direct_overlap, plane_points
    from tomoseg.volgrid import BinaryVolume

    bmask = BinaryVolume(mask, 1.0)
    for r in (1.0, 2.0):
        add_numpy(f"opening r={r:g} (ball footprint)",
                  lambda r=r: binarize.morphological_opening(bmask, r))
        add_numpy(f"opening r={r:g} (distance thresholds, for reference)",
                  lambda r=r: binarize._ball_dilate(binarize._ball_erode(mask, r), r))

    plane = rng.random((n - n // 16, n - n // 16)) > 0.85
    sampler = _PlaneSampler(mask, plane_points(plane))
    pose = RigidTransform((0.01, -0.02, 0.015), (n / 32 + 0.3, n / 32 - 0.2, n / 2 + 0.4))
    add_numpy(f"direct overlap, prepared ({len(sampler.u)} plane points)",
              lambda: direct_overlap(bmask, plane, pose, sampler))

    grid = np.zeros(mask.shape, np.int32)
    rot = RigidTransform((0.4, 0.1, -0.3), (0, 0, 0)).rotation()
    semi = np.array([n / 4, n / 6, n / 5])
    add_numpy("superellipsoid stamp (exponent 3.5)",
              lambda: render.stamp_superellipsoid(grid, rot, center, semi, 3.5, 1))

    from scipy import ndimage

    from tomoseg import mergegraph, phantom
    from tomoseg.volgrid import LabelVolume

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=10, size_range_um=(36, 56),
        aspect_range=(1.0, 2.5), noise_std=2000.0, contact_fraction=0.5, n_sections=0, rng_seed=7,
    )
    phan = phantom.generate(spec)
    fg = phan.labels.data > 0
    seeds = np.zeros(fg.shape, np.int32)
    picks = np.flatnonzero(fg)[rng.permutation(int(fg.sum()))[:96]]
    seeds.ravel()[picks] = np.arange(1, len(picks) + 1)
    nearest = ndimage.distance_transform_edt(seeds == 0, return_distances=False, return_indices=True)
    cells = LabelVolume(np.where(fg, seeds[tuple(nearest)], 0), 1.0)
    grad = mergegraph.sobel_gradient_magnitude(phan.gray)

    def edge_features():
        graph = mergegraph.build_region_graph(cells)
        return mergegraph.extract_edge_features(graph, phan.gray, grad, cells)

    n_edges = len(mergegraph.build_region_graph(cells).edges)
    add_numpy(f"edge features (64^3 phantom, {n_edges} edges)", edge_features)

    from tomoseg.register import TranslationSolver

    def solve_from(solver, band, hint):
        solver.hint = hint
        return solver.solve(band)

    for (bz, by, bx), (ph, pw) in (
        ((24, 24, 24), (23, 23)), ((25, 48, 48), (46, 46)), ((31, 96, 96), (92, 92)),
    ):
        band = rng.random((bz, by, bx)) > 0.85
        solver = TranslationSolver(band.shape, rng.random((ph, pw)) > 0.85)
        add_numpy(f"translation solve ({bz}x{by}x{bx} band, {ph}x{pw} plane)",
                  lambda solver=solver, band=band: solve_from(solver, band, None))
        # the plane planted in the band, the hint at its shift
        planted = band.copy()
        planted[bz // 2, 1 : 1 + ph, 1 : 1 + pw] = solver.plane
        solve_from(solver, planted, (1, 1))  # fill the spectrum cache
        add_numpy(f"translation solve ({bz}x{by}x{bx} band, {ph}x{pw} plane, hinted)",
                  lambda solver=solver, band=planted: solve_from(solver, band, (1, 1)))

    width = max(len(r[0]) for r in rows)
    print(f"\nkernel benchmark at {n}^3 ({args.repeats} repeats, best of)")
    if not have_numba:
        print("numba is not importable; numpy path only")
        print(f"{'kernel'.ljust(width)}  {'numpy':>10}")
        for name, _, t_np in rows:
            print(f"{name.ljust(width)}  {fmt(t_np)}")
        return
    print(f"{'kernel'.ljust(width)}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for name, t_nb, t_np in rows:
        if t_nb is None:
            print(f"{name.ljust(width)}  {'-':>10}  {fmt(t_np)}")
            continue
        print(f"{name.ljust(width)}  {fmt(t_nb)}  {fmt(t_np)}  {t_np / t_nb:7.1f}x")


if __name__ == "__main__":
    main()
