"""Patch-weighted averaging kernel for the non-local means filter.

Semantics: for voxels x in the volume and y in the search window around x
(intersected with the volume), the patch distance is

    d(x, y) = sum_z G(z) * (I(x+z) - I(y+z))^2

over patch offsets z where BOTH x+z and y+z fall inside the volume; offsets
falling outside are simply dropped, without reweighting. The output is

    out(x) = sum_y w(x,y) I(y) / sum_y w(x,y),   w = exp(-d / h^2).

The kernel accumulates offset-major: for each search offset s, in a fixed
order, the squared differences are patch-weighted by a separable zero-fill
Gaussian correlation (z, then y, then x) and the weights are added into the
per-voxel sums.

It works on a flat layout: the image, norm and acc are (nz, NY, NX)
planes, NY = ny + r and NX = nx + r for patch radius r, whose r guard rows
and columns are zero; the image copy also has a zero margin on both ends,
as wide as the flat reach of any in-plane shift. For search
offset s, at flat shift f = sz*NY*NX + sy*NX + sx, each step is one numpy
call on a contiguous range: the squared differences I(x) - I(x+f); the z,
y and x passes as shifted-slice sums at flat strides NY*NX, NX and 1, in
the order scipy's correlate1d takes for a symmetric kernel (the centre
term, then each (left + right) pair times its weight, outermost first);
exp; the sums. Before the passes, the rows and columns where x+s leaves
the volume (the invalid strips, next to the guards) are zeroed, and r zero
planes lie on each side of the planes the z pass reads, so every pass
reads the zeros scipy's zero fill would supply. After exp the weights on the
strips and guards are zeroed. There norm += 0.0 and acc += +-0.0 are
exact: both sums start at +0.0, and a sum is -0.0 only when both terms
are. So every voxel sees the same floating-point operations, in the same
order, as zero-fill correlate1d passes over the valid box.

The output z-planes are split into disjoint slabs, one per worker thread
(``backend.worker_count``: the least of the ``--threads`` bound, the usable
CPUs and nz // (2 * patch_radius + 1), so no slab is thinner than its
halo). Each runs every offset in order over its own planes, plus the
patch-radius halo planes the z pass reads, so the result is bitwise
independent of the worker count; numpy ufuncs release the GIL, so the slabs
run in parallel. Workers call only private functions (perfbench's span
tracer wraps the public ones on a single, thread-unsafe stack) and write
into buffers the calling thread allocated.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..backend import worker_count


def _correlate_flat(src, lo, n, stride, g1, out, tmp):
    # src[lo : lo + n] correlated with g1 at a flat stride, in scipy's order
    r = g1.shape[0] // 2
    np.multiply(src[lo : lo + n], g1[r], out=out)
    for k in range(r, 0, -1):
        a, b = lo - k * stride, lo + k * stride
        np.add(src[a : a + n], src[b : b + n], out=tmp)
        np.multiply(tmp, g1[r - k], out=tmp)
        np.add(out, tmp, out=out)


def _zero_outside(planes, y0, y1, x0, x1):
    # zero a (planes, NY, NX) view outside [y0, y1) x [x0, x1), guards included
    planes[:, :y0] = planes[:, y1:] = 0.0
    planes[:, :, :x0] = planes[:, :, x1:] = 0.0


def _nlm_slab(pad, m, shape, h2, g1, search, norm, acc, z0, z1, buf_a, buf_b, buf_c):
    # Every search offset in order, for output planes [z0, z1). dsq (ext planes),
    # w and ypass follow r zero planes, rows and elements, the zeros a pass reads.
    nz, ny, nx = shape
    r = g1.shape[0] // 2
    NY, NX = ny + r, nx + r
    P = NY * NX
    rng = range(-search, search + 1)
    for sz in rng:
        lo, hi = max(0, -sz), min(nz, nz - sz)
        oz0, oz1 = max(z0, lo), min(z1, hi)
        if oz0 >= oz1:
            continue
        ez0, ez1 = max(lo, oz0 - r), min(hi, oz1 + r)
        n_own = (oz1 - oz0) * P
        dsq = buf_a[r * P : (r + ez1 - ez0) * P]
        buf_a[(r + ez1 - ez0) * P :] = 0.0  # the zero planes after ext
        tmp = buf_a[r * P : r * P + n_own]
        w = buf_b[r * NX : r * NX + n_own]
        ypass = buf_c[r : r + n_own]
        own = slice(oz0 * P, oz1 * P)
        for sy in rng:
            y0, y1 = max(0, -sy), min(ny, ny - sy)
            if y0 >= y1:
                continue
            for sx in rng:
                x0, x1 = max(0, -sx), min(nx, nx - sx)
                if x0 >= x1:
                    continue
                f = m + sz * P + sy * NX + sx
                np.subtract(pad[m + ez0 * P : m + ez1 * P], pad[f + ez0 * P : f + ez1 * P], out=dsq)
                np.square(dsq, out=dsq)
                _zero_outside(dsq.reshape(-1, NY, NX), y0, y1, x0, x1)
                _correlate_flat(buf_a, (r + oz0 - ez0) * P, n_own, P, g1, w, ypass)
                _correlate_flat(buf_b, r * NX, n_own, NX, g1, ypass, tmp)
                _correlate_flat(buf_c, r, n_own, 1, g1, w, tmp)
                # -dsq / h2 == dsq / -h2 bitwise: IEEE division rounds sign-symmetrically
                np.divide(w, -h2, out=w)
                np.exp(w, out=w)
                _zero_outside(w.reshape(-1, NY, NX), y0, y1, x0, x1)
                np.add(norm[own], w, out=norm[own])
                np.multiply(w, pad[f + oz0 * P : f + oz1 * P], out=w)
                np.add(acc[own], w, out=acc[own])


def _slab_workers(nz: int, patch_radius: int) -> int:
    # no slab thinner than its 2 * patch_radius halo rows
    return worker_count(nz // (2 * patch_radius + 1))


def _nlm_numpy(img, h2, patch_radius, patch_sigma, search):
    # Per-axis normalization makes the 3D product of g1, the Gaussian patch
    # weights G, sum to 1 over the patch.
    g1 = np.exp(-(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2))
    g1 = g1 / g1.sum()
    nz, ny, nx = img.shape
    r = patch_radius
    NY, NX = ny + r, nx + r
    P = NY * NX
    m = search * (NX + 1)  # |sy * NX + sx| <= m: no shift reads past the margin
    pad = np.zeros(nz * P + 2 * m, np.float64)
    pad[m : m + nz * P].reshape(nz, NY, NX)[:, :ny, :nx] = img
    norm, acc = np.zeros(nz * P), np.zeros(nz * P)
    n = _slab_workers(nz, patch_radius)
    cuts = [nz * i // n for i in range(n + 1)]
    # all buffers are allocated here, not in the workers: memory a worker
    # thread allocates lands in a glibc per-thread arena that keeps it
    jobs = []
    for z0, z1 in zip(cuts[:-1], cuts[1:]):
        own = (z1 - z0) * P
        ext = (min(nz, z1 - z0 + 2 * r) + 2 * r) * P
        jobs.append((z0, z1, np.zeros(ext), np.zeros(own + 2 * r * NX), np.zeros(own + 2 * r)))
    args = (pad, m, img.shape, h2, g1, search, norm, acc)
    with ThreadPoolExecutor(max_workers=n) as pool:
        for future in [pool.submit(_nlm_slab, *args, *job) for job in jobs]:
            future.result()
    valid = (slice(None), slice(ny), slice(nx))
    return acc.reshape(nz, NY, NX)[valid] / norm.reshape(nz, NY, NX)[valid]


def nlm_field(img: np.ndarray, h: float, patch_radius: int, patch_sigma: float, search: int):
    img = np.asarray(img, np.float64)
    h2 = float(h) * float(h)
    return _nlm_numpy(img, h2, patch_radius, patch_sigma, search)
