#!/usr/bin/env python3
"""Times each hot kernel, each on its one numpy/scipy implementation.

Usage:
    python benchmarks/bench_kernels.py [--size N] [--repeats K]

Flooding (a bucket queue) is the one kernel that still steps voxel by
voxel in Python. Non-local means splits its z-rows over worker threads
(the usable CPUs); its rows name the worker count. It has two rows. The
random uint16 row (h = 800, search 2) sees almost no similar patches:
every weight but the centre's has an exponent far below -104 and comes
out 0, so it times the patch passes more than the weights. The phantom row
is the `cli` workload's regime: the 64^3 phantom the edge-features row
uses (ten particles, noise std 2000), h from the noise estimate as
`tomoseg denoise` sets it, search 5. There float32 ``np.exp`` has one slow
band: exponents in (-103.97, -87.34), whose results are subnormal, cost
about 6.7 ns per element against 0.48 ns elsewhere (numpy 2.4.6 on a
2-core AVX-512 x86-64), and hold under 1% of that workload's weights.
The translation solve is a float32 FFT correlation plus an exact count of
each candidate shift. Rotation reads a guarded copy of the volume built
once, as the registration does. The opening rows time radius 1 and 2 on the ball
footprint, beside the distance-threshold formulation that radii above
``BALL_FOOTPRINT_MAX_RADIUS`` use. The polish row times one
``direct_overlap`` evaluation of a plane of about 15% foreground on a
sampler prepared once, as the polish runs it; rows under a millisecond
print in microseconds. The solve runs at the band and
plane shapes of the three pyramid levels of a 96^3 registration, twice: cold,
over the full zero-padded length, and hinted, with the plane planted in
the band and the solver's hint at its shift, so the transform shrinks to
the few shifts that keep the whole plane inside the slice. The edge
features row builds the region graph and extracts the 18 per-edge features
(curvature fits included) of a 64^3 phantom's foreground, at every size,
split into cells around 96 random seed voxels.
"""

from __future__ import annotations

import argparse
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

    from tomoseg._kernels import cc, convsep, edt, flood, nlm, recon, render, rotate, sauvola
    from tomoseg._kernels.recon import neighbor_offsets

    n = args.size
    rng = np.random.default_rng(0)
    img = rng.integers(0, 65536, (n, n, n)).astype(np.uint16)
    imgf = img.astype(np.float64)
    mask = rng.random((n, n, n)) > 0.4
    offs26 = neighbor_offsets(26)

    rows = []

    def add(name, fn):
        rows.append((name, timed(fn, args.repeats)))

    k = convsep.gaussian_kernel(1.5)
    add("separable correlate (3 axes)", lambda: convsep.correlate_separable(imgf, (k, k, k)))

    from tomoseg import phantom, prefilter

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=10, size_range_um=(36, 56),
        aspect_range=(1.0, 2.5), noise_std=2000.0, contact_fraction=0.5, n_sections=0, rng_seed=7,
    )
    phan = phantom.generate(spec)

    nlm_img = img[: min(n, 32), : min(n, 32), : min(n, 32)]
    nlm_workers = nlm._slab_workers(nlm_img.shape[0], 1)
    add(f"non-local means (random u16 {nlm_img.shape[0]}^3, search 2, {nlm_workers} workers)",
        lambda: nlm.nlm_field(nlm_img, 800.0, 1, 1.0, 2))
    nlm_h = prefilter.default_nlm_params(phan.gray).h
    nlm_workers = nlm._slab_workers(phan.gray.data.shape[0], 1)
    add(f"non-local means (64^3 phantom, h {nlm_h:.0f}, search 5, {nlm_workers} workers)",
        lambda: nlm.nlm_field(phan.gray.data, nlm_h, 1, 1.0, 5))

    add("sauvola threshold field",
        lambda: sauvola.sauvola_threshold_field(img, 15, 0.34, 32768.0))
    add("exact EDT", lambda: edt.edt(mask))

    inv = -edt.edt(mask)
    inv[~mask] = 0.0
    add("grayscale reconstruction", lambda: recon.reconstruct_erosion(inv + 1.0, inv, mask, 26))
    add("regional minima", lambda: recon.regional_minima(inv, mask, 26))

    add("connected components", lambda: cc.connected_components_mask(mask, 26))

    markers = np.zeros(mask.shape, np.int32)
    seeds = np.argwhere(mask)[:: max(1, mask.sum() // 40)]
    for i, (z, y, x) in enumerate(seeds, start=1):
        markers[z, y, x] = i

    add("watershed flood", lambda: flood.priority_flood(inv, markers, mask, offs26))

    from tomoseg.register import RigidTransform, volume_center

    rinv = RigidTransform((0.05, -0.03, 0.04), (0, 0, 0)).rotation().T
    center = volume_center(mask.shape)
    z0 = max(0, n // 2 - 16)
    z1 = min(n, z0 + 33)
    guarded = rotate.guard_volume(mask)
    for label, lo, hi in (("full height", 0, n), (f"{z1 - z0}-slice band", z0, z1)):
        add(f"rotate ({label})",
            lambda lo=lo, hi=hi: rotate.rotate_nearest(mask, rinv, center, lo, hi, guarded))

    from tomoseg import binarize
    from tomoseg.register import _PlaneSampler, direct_overlap, plane_points
    from tomoseg.volgrid import BinaryVolume

    bmask = BinaryVolume(mask, 1.0)
    for r in (1.0, 2.0):
        add(f"opening r={r:g} (ball footprint)",
            lambda r=r: binarize.morphological_opening(bmask, r))
        add(f"opening r={r:g} (distance thresholds, for reference)",
            lambda r=r: binarize._ball_dilate(binarize._ball_erode(mask, r), r))

    plane = rng.random((n - n // 16, n - n // 16)) > 0.85
    sampler = _PlaneSampler(mask, plane_points(plane))
    pose = RigidTransform((0.01, -0.02, 0.015), (n / 32 + 0.3, n / 32 - 0.2, n / 2 + 0.4))
    add(f"direct overlap ({len(sampler.u)} plane points)",
        lambda: direct_overlap(bmask, plane, pose, sampler))

    grid = np.zeros(mask.shape, np.int32)
    rot = RigidTransform((0.4, 0.1, -0.3), (0, 0, 0)).rotation()
    semi = np.array([n / 4, n / 6, n / 5])
    add("superellipsoid stamp (exponent 3.5)",
        lambda: render.stamp_superellipsoid(grid, rot, center, semi, 3.5, 1))

    from scipy import ndimage

    from tomoseg import mergegraph
    from tomoseg.volgrid import LabelVolume

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
    add(f"edge features (64^3 phantom, {n_edges} edges)", edge_features)

    from tomoseg.register import TranslationSolver

    def solve_from(solver, band, hint):
        solver.hint = hint
        return solver.solve(band)

    for (bz, by, bx), (ph, pw) in (
        ((24, 24, 24), (23, 23)), ((25, 48, 48), (46, 46)), ((31, 96, 96), (92, 92)),
    ):
        band = rng.random((bz, by, bx)) > 0.85
        solver = TranslationSolver(band.shape, rng.random((ph, pw)) > 0.85)
        add(f"translation solve ({bz}x{by}x{bx} band, {ph}x{pw} plane)",
            lambda solver=solver, band=band: solve_from(solver, band, None))
        # the plane planted in the band, the hint at its shift
        planted = band.copy()
        planted[bz // 2, 1 : 1 + ph, 1 : 1 + pw] = solver.plane
        solve_from(solver, planted, (1, 1))  # fill the spectrum cache
        add(f"translation solve ({bz}x{by}x{bx} band, {ph}x{pw} plane, hinted)",
            lambda solver=solver, band=planted: solve_from(solver, band, (1, 1)))

    width = max(len(r[0]) for r in rows)
    print(f"\nkernel benchmark at {n}^3 ({args.repeats} repeats, best of)")
    print(f"{'kernel'.ljust(width)}  {'time':>11}")
    for name, t in rows:
        print(f"{name.ljust(width)}  {fmt(t)}")


if __name__ == "__main__":
    main()
