#!/usr/bin/env python3
"""Times each dual-backend kernel on its numba path and its numpy fallback.

Usage:
    python benchmarks/bench_kernels.py [--size N] [--repeats K]

Regional minima (plateau components) and flooding (a bucket queue) use
their own algorithms on the numpy path, with results identical to the
numba twins; flooding is the one numpy kernel that still steps voxel by
voxel in Python. Non-local means on the numpy path splits its z-rows over
worker threads (the usable CPUs); its row names the worker count. Without
numba only the numpy column is printed.
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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=64, help="volume edge length")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    os.environ.pop("TOMOSEG_BACKEND", None)
    import tomoseg.backend as backend

    have_numba = backend.HAVE_NUMBA

    from tomoseg._kernels import cc, convsep, edt, flood, nlm, recon, rotate, sauvola
    from tomoseg._kernels.recon import neighbor_offsets
    from scipy import ndimage

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

    k = convsep.gaussian_kernel(1.5)
    add(
        "separable correlate (3 axes)",
        lambda: [convsep._correlate_axis_numba(imgf, k, ax) for ax in range(3)],
        lambda: [convsep._correlate_axis_numpy(imgf, k, ax) for ax in range(3)],
    )

    nlm_img = imgf[: min(n, 32), : min(n, 32), : min(n, 32)]
    g1 = np.exp(-(np.arange(-1, 2) ** 2) / 2.0)
    g1 = g1 / g1.sum()
    nlm_workers = nlm._slab_workers(nlm_img.shape[0], 1)
    add(
        f"non-local means ({nlm_img.shape[0]}^3, search 2, numpy {nlm_workers} workers)",
        lambda: nlm._nlm_numba(nlm_img, 800.0**2, g1, 2),
        lambda: nlm._nlm_numpy(nlm_img, 800.0**2, 1, 1.0, 2),
    )

    s1, s2 = sauvola._integral_tables(img)

    def sauvola_numba():
        out = np.empty(img.shape, np.float64)
        sauvola._threshold_numba(s1, s2, n, n, n, 15, 0.34, 32768.0, out)

    def sauvola_numpy():
        a1, cnt = sauvola._window_sums_numpy(s1, img.shape, 15)
        a2, _ = sauvola._window_sums_numpy(s2, img.shape, 15)
        mean = a1 / cnt
        var = a2 / cnt - mean * mean
        mean * (1.0 + 0.34 * (np.sqrt(np.maximum(var, 0.0)) / 32768.0 - 1.0))

    add("sauvola threshold field", sauvola_numba, sauvola_numpy)

    add(
        "exact EDT",
        lambda: edt._edt_sq_numba(mask),
        lambda: ndimage.distance_transform_edt(mask),
    )

    inv = -ndimage.distance_transform_edt(mask)
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

    def cc_numpy():
        os.environ["TOMOSEG_BACKEND"] = "numpy"
        try:
            cc.connected_components_mask(mask, 26)
        finally:
            del os.environ["TOMOSEG_BACKEND"]

    add("connected components", lambda: cc._cc_numba(mask, offs26), cc_numpy)

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
    for label, lo, hi in (("full height", 0, n), (f"{z1 - z0}-slice band", z0, z1)):
        add(
            f"rotate ({label})",
            lambda lo=lo, hi=hi: rotate._rotate_numba(mask, rinv, *center, lo, hi),
            lambda lo=lo, hi=hi: rotate._rotate_numpy(mask, rinv, *center, lo, hi),
        )

    width = max(len(r[0]) for r in rows)
    print(f"\nkernel benchmark at {n}^3 ({args.repeats} repeats, best of)")
    if not have_numba:
        print("numba is not importable; numpy path only")
        print(f"{'kernel'.ljust(width)}  {'numpy':>10}")
        for name, _, t_np in rows:
            print(f"{name.ljust(width)}  {t_np * 1e3:9.1f}ms")
        return
    print(f"{'kernel'.ljust(width)}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for name, t_nb, t_np in rows:
        print(f"{name.ljust(width)}  {t_nb * 1e3:9.1f}ms  {t_np * 1e3:9.1f}ms  {t_np / t_nb:7.1f}x")


if __name__ == "__main__":
    main()
