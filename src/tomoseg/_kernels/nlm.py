"""Patch-weighted averaging kernel for the non-local means filter.

Semantics: for voxels x in the volume and y in the search window around x
(intersected with the volume), the patch distance is

    d(x, y) = sum_z G(z) * (I(x+z) - I(y+z))^2

over patch offsets z where BOTH x+z and y+z fall inside the volume; offsets
falling outside are simply dropped, without reweighting. The output is

    out(x) = sum_y w(x,y) I(y) / sum_y w(x,y),   w = exp(-d / h^2).

The patch distance is symmetric, d(x, x+s) = d(x+s, x) (Darbon et al.,
ISBI 2008; Coupe et al., IEEE TMI 2008), so the kernel computes a weight
field W_s(x) = w(x, x+s) only for the offsets after (0, 0, 0) in
lexicographic order, one of each pair +-s (665 of 1 331 at search 5). For
each, in that order, the squared differences are patch-weighted by a
separable zero-fill Gaussian correlation (z, then y, then x), and W_s is
added twice: forward, norm(x) += W_s(x) and acc(x) += W_s(x) I(x+s); then
mirrored, norm(x+s) += W_s(x) and acc(x+s) += W_s(x) I(x). The sums start
from the centre's weight, exactly 1: norm = 1 and acc = I(x). So each
voxel's sums run in a fixed order: the centre, then for each half offset
its forward term and then its mirrored term.

The mirrored term is bitwise the weight the offset -s would give at x+s:
the squared-difference field of -s is that of s moved by s (subtraction
and squaring are sign-symmetric), and a zero-fill pass commutes with the
move, combining the same values in the same order. So every term is the
one a pass over all 1 331 offsets adds; only the order of the float64 sums
differs from such a pass (by at most about 1e-14 relative on 64^3
phantoms at search 5; the rounded outputs of the `cli` workload are
unchanged). Where h is huge every float32 weight is exactly 1, and sums of
integers are exact in any order.

It works on a flat layout: the image, norm and acc are (nz, NY, NX)
planes, NY = ny + r and NX = nx + r for patch radius r, whose r guard rows
and columns are zero; the image copy also has a zero margin on both ends,
as wide as the flat reach m of any in-plane shift. For search
offset s, at flat shift f = sz*NY*NX + sy*NX + sx, each step is one numpy
call on a contiguous range: the squared differences I(x) - I(x+f); the z,
y and x passes as shifted-slice sums at flat strides NY*NX, NX and 1, in
the order scipy's correlate1d takes for a symmetric kernel (the centre
term, then each (left + right) pair times its weight, outermost first);
exp; the sums. Before the passes, the rows and columns where x+s leaves
the volume (the invalid strips, next to the guards) are zeroed, and r zero
planes lie on each side of the planes the z pass reads, so every pass
reads the zeros scipy's zero fill would supply. After exp the weights on the
strips and guards are zeroed, and the weight buffer has a zero margin of
m + r*NX on both sides. The mirrored sums read W_s at flat index y - f for
each y: where y - s is a voxel that is valid for s, that is its pair's
weight; anywhere else the index lands on a zeroed strip or guard (a shift
that leaves a row or plane wraps onto them) or in the margin, and adds an
exact 0. Adding 0 leaves a sum unchanged, up to the sign of a zero sum,
and every voxel adds its zeros at the same steps for any slab split.

Precision: the image copy, the differences, the patch passes, g1, h^2 and
the weights are float32; norm and acc are float64, and each float32 weight
and product (W_s(x) I(x+s), W_s(x) I(x)) converts to float64 exactly.
Integer inputs below 2**24 (every uint16 volume) are held exactly. Each
step rounds to float32,
so this is not scipy's correlate1d on float32 data, which computes in
double and rounds once. Against the same kernel in float64, the rounded
uint16 output of the `cli` workload's 64^3 volumes (search 5) differs on
1 to 3 voxels in 262 144, by one gray level; across worker counts it is
still bit-identical. float32 exp is slow (about 14x per element) only on
exponents in (-103.97, -87.34), whose results are subnormal; under 1% of
that workload's weights fall there.

The output z-planes are split into disjoint slabs, one per worker thread
(``backend.worker_count``: the least of the ``--threads`` bound, the usable
CPUs and nz // (2 * patch_radius + 1), so no slab is thinner than its
halo). Each runs every half offset in order. It computes W_s on its own
planes plus the sz planes below them (the mirror halo), whose mirrored
terms land in its own planes, and reads the patch-radius halo planes
around those for the z pass. So each slab writes only its own planes, each
voxel's sums run in the order above, and the result is bitwise independent
of the worker count; numpy ufuncs release the GIL, so the slabs run in
parallel. Workers call only private functions (perfbench's span
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
    # The half offsets in order, for output planes [z0, z1). The weights are
    # computed on planes [cz0, cz1): the slab's own and the sz planes below,
    # whose mirrored terms land in its own. dsq (ext planes) and ypass follow
    # r zero planes and elements; w follows a zero margin of M = m + r * NX.
    nz, ny, nx = shape
    r = g1.shape[0] // 2
    NY, NX = ny + r, nx + r
    P = NY * NX
    M = m + r * NX
    rng = range(-search, search + 1)
    for sz in range(search + 1):
        hi = nz - sz  # x and x+s both lie in the volume's planes for x_z < hi
        cz0, cz1 = max(0, z0 - sz), min(z1, hi)
        if cz0 >= cz1:
            continue
        ez0, ez1 = max(0, cz0 - r), min(hi, cz1 + r)
        n_c = (cz1 - cz0) * P
        dsq = buf_a[r * P : (r + ez1 - ez0) * P]
        buf_a[(r + ez1 - ez0) * P :] = 0.0  # the zero planes after ext
        tmp = buf_a[r * P : r * P + n_c]
        w = buf_b[M : M + n_c]
        buf_b[M + n_c :] = 0.0  # the mirrored reads reach up to m past w
        ypass = buf_c[r : r + n_c]
        fwd = slice(z0 * P, cz1 * P)  # x in own planes, x+s in the volume
        n_f = max(0, cz1 - z0) * P
        t0 = max(z0, sz)
        mir = slice(t0 * P, z1 * P)  # x+s in own planes, x in the volume
        n_m = max(0, z1 - t0) * P
        for sy in rng:
            y0, y1 = max(0, -sy), min(ny, ny - sy)
            if y0 >= y1:
                continue
            for sx in rng:
                x0, x1 = max(0, -sx), min(nx, nx - sx)
                if x0 >= x1 or (sz, sy, sx) <= (0, 0, 0):
                    continue
                f = m + sz * P + sy * NX + sx
                np.subtract(pad[m + ez0 * P : m + ez1 * P], pad[f + ez0 * P : f + ez1 * P], out=dsq)
                np.square(dsq, out=dsq)
                _zero_outside(dsq.reshape(-1, NY, NX), y0, y1, x0, x1)
                _correlate_flat(buf_a, (r + cz0 - ez0) * P, n_c, P, g1, w, ypass)
                _correlate_flat(buf_b, M, n_c, NX, g1, ypass, tmp)
                _correlate_flat(buf_c, r, n_c, 1, g1, w, tmp)
                # -dsq / h2 == dsq / -h2 bitwise: IEEE division rounds sign-symmetrically
                np.divide(w, -h2, out=w)
                np.exp(w, out=w)
                _zero_outside(w.reshape(-1, NY, NX), y0, y1, x0, x1)
                if n_f:
                    wf = w[(z0 - cz0) * P :][:n_f]
                    np.add(norm[fwd], wf, out=norm[fwd])
                    np.multiply(wf, pad[f + z0 * P : f + cz1 * P], out=tmp[:n_f])
                    np.add(acc[fwd], tmp[:n_f], out=acc[fwd])
                if n_m:
                    src = t0 * P - (f - m)  # the flat x of the first x+s in mir
                    wm = buf_b[M + src - cz0 * P :][:n_m]
                    np.add(norm[mir], wm, out=norm[mir])
                    np.multiply(wm, pad[m + src : m + src + n_m], out=tmp[:n_m])
                    np.add(acc[mir], tmp[:n_m], out=acc[mir])


def _slab_workers(nz: int, patch_radius: int) -> int:
    # no slab thinner than its 2 * patch_radius halo rows
    return worker_count(nz // (2 * patch_radius + 1))


def nlm_field(img: np.ndarray, h: float, patch_radius: int, patch_sigma: float, search: int):
    """Non-local means of a real-valued volume, as a float64 field (a view
    of the padded sums' valid voxels, which the caller owns).

    The volume is copied straight into the kernel's float32 image, with no
    float64 staging copy: integers below 2**24, so every uint16 volume, are
    held exactly; other values are rounded to float32 first."""
    img = np.asarray(img)
    # Per-axis normalization makes the 3D product of g1, the Gaussian patch
    # weights G, sum to 1 over the patch.
    g1 = np.exp(-(np.arange(-patch_radius, patch_radius + 1) ** 2) / (2.0 * patch_sigma**2))
    g1 = (g1 / g1.sum()).astype(np.float32)
    h2 = np.float32(float(h) * float(h))
    nz, ny, nx = img.shape
    r = patch_radius
    NY, NX = ny + r, nx + r
    P = NY * NX
    m = search * (NX + 1)  # |sy * NX + sx| <= m: no shift reads past the margin
    pad = np.zeros(nz * P + 2 * m, np.float32)
    pad[m : m + nz * P].reshape(nz, NY, NX)[:, :ny, :nx] = img
    # the centre's weight is exactly 1: the sums start at 1 and I(x)
    norm, acc = np.ones(nz * P), pad[m : m + nz * P].astype(np.float64)
    n = _slab_workers(nz, patch_radius)
    cuts = [nz * i // n for i in range(n + 1)]
    # all buffers and the centre term are allocated here, not in the workers:
    # memory a worker thread allocates lands in a glibc per-thread arena that
    # keeps it
    jobs = []
    for z0, z1 in zip(cuts[:-1], cuts[1:]):
        planes = z1 - max(0, z0 - search)  # own planes and the mirror halo
        ext = (min(nz, planes + 2 * r) + 2 * r) * P
        sizes = (ext, planes * P + 2 * (m + r * NX), planes * P + 2 * r)
        jobs.append((z0, z1, *[np.zeros(size, np.float32) for size in sizes]))
    args = (pad, m, img.shape, h2, g1, search, norm, acc)
    with ThreadPoolExecutor(max_workers=n) as pool:
        for future in [pool.submit(_nlm_slab, *args, *job) for job in jobs]:
            future.result()
    del jobs, args, pad
    # the quotient goes into acc's valid voxels: the result is a view of acc
    valid = (slice(None), slice(ny), slice(nx))
    out = acc.reshape(nz, NY, NX)[valid]
    return np.divide(out, norm.reshape(nz, NY, NX)[valid], out=out)
