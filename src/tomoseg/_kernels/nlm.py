"""Patch-weighted averaging kernel for the non-local means filter.

Semantics shared by both paths: for voxels x in the volume and y in the
search window around x (intersected with the volume), the patch distance is

    d(x, y) = sum_z G(z) * (I(x+z) - I(y+z))^2

over patch offsets z where BOTH x+z and y+z fall inside the volume; offsets
falling outside are simply dropped, without reweighting. The output is

    out(x) = sum_y w(x,y) I(y) / sum_y w(x,y),   w = exp(-d / h^2).

Both paths accumulate offset-major: for each search offset s, in a fixed
order, the squared differences are patch-weighted by a separable zero-fill
Gaussian correlation (z, then y, then x) and the weights are added into the
per-voxel sums.

The numpy path does each offset only on its valid box, the voxels x where
both x and x+s lie in the volume; outside it the weight is exactly zero, so
skipping those voxels drops only additions of 0.0. The output z-rows are
split into disjoint slabs, one per worker thread. The worker count
(``backend.worker_count``) is the least of the ``--threads`` bound, the
usable CPUs and nz // (2 * patch_radius + 1); the last keeps every slab at
least as thick as its halo. Each worker runs every offset in the original order over its own rows, reading
patch-radius halo rows for the z pass, so every voxel sees the same sequence
of floating-point operations as in a single full-volume pass, and the result
is bitwise independent of the worker count. numpy ufuncs and scipy's
correlate1d release the GIL, so the slabs run in parallel. Workers call only
private functions (perfbench's span tracer wraps the public ones on a single,
thread-unsafe stack) and write into buffers the calling thread allocated.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import ndimage

from ..backend import njit, use_numba, worker_count


def patch_weights(patch_radius: int, sigma: float):
    """3D Gaussian patch weights normalized to sum 1, as (offsets, weights)."""
    r = patch_radius
    ax = np.arange(-r, r + 1)
    gz, gy, gx = np.meshgrid(ax, ax, ax, indexing="ij")
    offs = np.column_stack([gz.ravel(), gy.ravel(), gx.ravel()]).astype(np.int64)
    w = np.exp(-(offs[:, 0] ** 2 + offs[:, 1] ** 2 + offs[:, 2] ** 2) / (2.0 * sigma * sigma))
    return offs, w / w.sum()


@njit(cache=True)
def _correlate_axis_zero(vol, weights, axis, out):
    # correlation along one axis with zero fill outside the volume
    nz, ny, nx = vol.shape
    rad = weights.shape[0] // 2
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                acc = 0.0
                for k in range(weights.shape[0]):
                    if axis == 0:
                        i = z + k - rad
                        if 0 <= i < nz:
                            acc += weights[k] * vol[i, y, x]
                    elif axis == 1:
                        i = y + k - rad
                        if 0 <= i < ny:
                            acc += weights[k] * vol[z, i, x]
                    else:
                        i = x + k - rad
                        if 0 <= i < nx:
                            acc += weights[k] * vol[z, y, i]
                out[z, y, x] = acc


@njit(cache=True)
def _nlm_numba(img, h2, g1, search):
    # offset-major accumulation: per search offset, squared differences are
    # patch-weighted by a separable zero-fill Gaussian correlation, which
    # drops out-of-volume patch offsets exactly as the definition requires
    nz, ny, nx = img.shape
    norm = np.zeros((nz, ny, nx), np.float64)
    acc = np.zeros((nz, ny, nx), np.float64)
    dsq = np.empty((nz, ny, nx), np.float64)
    tmp = np.empty((nz, ny, nx), np.float64)
    for sz in range(-search, search + 1):
        for sy in range(-search, search + 1):
            for sx in range(-search, search + 1):
                for z in range(nz):
                    bz = z + sz
                    for y in range(ny):
                        by = y + sy
                        for x in range(nx):
                            bx = x + sx
                            if 0 <= bz < nz and 0 <= by < ny and 0 <= bx < nx:
                                diff = img[z, y, x] - img[bz, by, bx]
                                dsq[z, y, x] = diff * diff
                            else:
                                dsq[z, y, x] = 0.0
                _correlate_axis_zero(dsq, g1, 0, tmp)
                _correlate_axis_zero(tmp, g1, 1, dsq)
                _correlate_axis_zero(dsq, g1, 2, tmp)
                for z in range(nz):
                    bz = z + sz
                    if bz < 0 or bz >= nz:
                        continue
                    for y in range(ny):
                        by = y + sy
                        if by < 0 or by >= ny:
                            continue
                        for x in range(nx):
                            bx = x + sx
                            if 0 <= bx < nx:
                                w = math.exp(-tmp[z, y, x] / h2)
                                norm[z, y, x] += w
                                acc[z, y, x] += w * img[bz, by, bx]
    return acc / norm


def _box_view(buf: np.ndarray, shape) -> np.ndarray:
    """Contiguous array of ``shape`` over the front of the flat buffer."""
    return buf[: math.prod(shape)].reshape(shape)


def _nlm_slab(img, h2, g1, search, norm, acc, z0, z1, buf_a, buf_b):
    # Every search offset in order, for output rows [z0, z1) only, on the box
    # where both x and x+s lie in the volume. dsq is computed on the own rows
    # plus the patch-radius halo rows the z pass reads; the y and x passes and
    # the weight updates touch the own rows alone.
    nz, ny, nx = img.shape
    r = g1.shape[0] // 2
    rng = range(-search, search + 1)
    for sz in rng:
        lo, hi = max(0, -sz), min(nz, nz - sz)
        oz0, oz1 = max(z0, lo), min(z1, hi)
        if oz0 >= oz1:
            continue
        ez0, ez1 = max(lo, oz0 - r), min(hi, oz1 + r)
        for sy in rng:
            y0, y1 = max(0, -sy), min(ny, ny - sy)
            if y0 >= y1:
                continue
            for sx in rng:
                x0, x1 = max(0, -sx), min(nx, nx - sx)
                if x0 >= x1:
                    continue
                ext = (ez1 - ez0, y1 - y0, x1 - x0)
                own = (oz1 - oz0, y1 - y0, x1 - x0)
                dsq = _box_view(buf_a, ext)
                np.subtract(
                    img[ez0:ez1, y0:y1, x0:x1],
                    img[ez0 + sz : ez1 + sz, y0 + sy : y1 + sy, x0 + sx : x1 + sx],
                    out=dsq,
                )
                np.square(dsq, out=dsq)
                zpass = _box_view(buf_b, ext)
                ndimage.correlate1d(dsq, g1, axis=0, mode="constant", cval=0.0, output=zpass)
                dsq = _box_view(buf_a, own)
                ndimage.correlate1d(
                    zpass[oz0 - ez0 : oz1 - ez0], g1, axis=1, mode="constant", cval=0.0, output=dsq
                )
                w = _box_view(buf_b, own)
                ndimage.correlate1d(dsq, g1, axis=2, mode="constant", cval=0.0, output=w)
                # -dsq / h2 == dsq / -h2 bitwise: IEEE division rounds sign-symmetrically
                np.divide(w, -h2, out=w)
                np.exp(w, out=w)
                norm_box = norm[oz0:oz1, y0:y1, x0:x1]
                np.add(norm_box, w, out=norm_box)
                np.multiply(
                    w, img[oz0 + sz : oz1 + sz, y0 + sy : y1 + sy, x0 + sx : x1 + sx], out=w
                )
                acc_box = acc[oz0:oz1, y0:y1, x0:x1]
                np.add(acc_box, w, out=acc_box)


def _slab_workers(nz: int, patch_radius: int) -> int:
    # no slab thinner than its 2 * patch_radius halo rows
    return worker_count(nz // (2 * patch_radius + 1))


def _nlm_numpy(img, h2, patch_radius, patch_sigma, search):
    # Per search offset s: squared differences on the valid box, then a
    # zero-fill separable Gaussian patch correlation. Zero filling reproduces
    # the "invalid patch offsets are dropped" rule exactly. Per-axis
    # normalization makes the 3D product sum to 1 over the patch, matching
    # patch_weights().
    g1 = np.exp(-(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2))
    g1 = g1 / g1.sum()
    nz, ny, nx = img.shape
    n = _slab_workers(nz, patch_radius)
    cuts = [nz * i // n for i in range(n + 1)]
    norm = np.zeros(img.shape, np.float64)
    acc = np.zeros(img.shape, np.float64)
    # all buffers are allocated here, not in the workers: memory a worker
    # thread allocates lands in a glibc per-thread arena that keeps it
    jobs = []
    for z0, z1 in zip(cuts[:-1], cuts[1:]):
        size = min(nz, z1 - z0 + 2 * patch_radius) * ny * nx
        jobs.append((z0, z1, np.empty(size, np.float64), np.empty(size, np.float64)))
    with ThreadPoolExecutor(max_workers=n) as pool:
        futures = [pool.submit(_nlm_slab, img, h2, g1, search, norm, acc, *job) for job in jobs]
        for future in futures:
            future.result()
    return acc / norm


def nlm_field(img: np.ndarray, h: float, patch_radius: int, patch_sigma: float, search: int):
    img = np.asarray(img, np.float64)
    h2 = float(h) * float(h)
    if use_numba():
        g1 = np.exp(
            -(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2)
        )
        g1 = g1 / g1.sum()
        return _nlm_numba(img, h2, g1, search)
    return _nlm_numpy(img, h2, patch_radius, patch_sigma, search)
