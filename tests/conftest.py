import builtins
import errno
import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from tomoseg import phantom
from tomoseg.register import TranslationResult, volume_center
from tomoseg.volgrid import BinaryVolume, LabelVolume, ScalarVolume


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def scalar(arr, spacing=1.0):
    return ScalarVolume(np.asarray(arr, np.uint16), spacing)


def binary(arr, spacing=1.0):
    return BinaryVolume(np.asarray(arr, bool), spacing)


def labels(arr, spacing=1.0):
    return LabelVolume(np.asarray(arr, np.int32), spacing)


def ball_mask(shape, center, radius):
    """Digital ball {|x - c| <= r} as a boolean volume (z, y, x)."""
    nz, ny, nx = shape
    zz, yy, xx = np.mgrid[0:nz, 0:ny, 0:nx]
    cz, cy, cx = center
    return (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius


# volumes with a dimension of 1 or 2, on which every voxel lies on a face
THIN_SHAPES = [(1, 9, 11), (3, 1, 8), (2, 2, 2), (5, 6, 1), (1, 1, 7)]


def face_touching(shape, rng, top=3):
    """Random labels 0..top (renumbered 1..L) on ``shape`` with a labelled
    voxel at two opposite corners, so the labelling touches all six faces."""
    lab = rng.integers(0, top + 1, shape)
    lab[0, 0, 0] = lab[-1, -1, -1] = 1
    values, inverse = np.unique(lab, return_inverse=True)
    return (inverse.reshape(shape) + (values[0] != 0)).astype(np.int32)


def split_scan_offsets(offs):
    """Offsets strictly before and after the center in raster order."""
    key = offs[:, 0] * 9 + offs[:, 1] * 3 + offs[:, 2]
    return offs[key < 0], offs[key > 0]


def shifted_slices(shape, d):
    """Slices selecting every voxel whose neighbor at offset ``d`` lies in
    the volume, and those neighbors."""
    ctr = tuple(slice(max(0, -k), n - max(0, k)) for n, k in zip(shape, d))
    nbr = tuple(slice(s.start + k, s.stop + k) for s, k in zip(ctr, d))
    return ctr, nbr


def brute_force_translation(vol, plane) -> TranslationResult:
    """Reference enumeration of the translation solve over every shift.
    Shifts are visited in (x, y, z) order and a later one wins only with a
    strictly larger overlap."""
    p = np.asarray(plane, bool)
    nz, ny, nx = vol.shape
    ph, pw = p.shape
    if not p.any():
        return TranslationResult((0, 0, 0), 0, empty_plane=True)
    best = None
    for tx in range(-(pw - 1), nx):
        for ty in range(-(ph - 1), ny):
            x0, x1 = max(0, tx), min(nx, tx + pw)
            y0, y1 = max(0, ty), min(ny, ty + ph)
            if x0 >= x1 or y0 >= y1:
                ov = np.zeros(nz, np.int64)
            else:
                psub = p[y0 - ty : y1 - ty, x0 - tx : x1 - tx]
                ov = np.count_nonzero(vol[:, y0:y1, x0:x1] & psub, axis=(1, 2))
            tz = int(np.argmax(ov))  # the first slice with the most overlap
            if best is None or ov[tz] > best[1]:
                best = ((tx, ty, tz), int(ov[tz]))
    return TranslationResult(best[0], best[1])


def map_plane_points(transform, uv, vol_shape) -> np.ndarray:
    """Plane lattice coordinates (N, 2) of (u, v) mapped through
    ``transform`` into (x, y, z) coordinates of the unrotated volume with
    shape (nz, ny, nx), before rounding: the oracle of the registration's
    section sampler, in the float64 operations it makes."""
    center = np.array(volume_center(vol_shape))
    uv = np.atleast_2d(np.asarray(uv, np.float64))
    tx, ty, tz = transform.translation
    q = np.column_stack([uv[:, 0] + tx, uv[:, 1] + ty, np.full(len(uv), tz)])
    return (q - center) @ transform.rotation() + center


def whole_plane_sample(vol, uv, transform):
    """The section sampler over every point at once: one (N, 3) @ R product
    and one gather from a guarded copy, the formulation before the sampler
    went by chunks and its oracle. Returns the values, the inside mask and
    the mapped points less the center, (N, 3)."""
    nz, ny, nx = vol.shape
    uv = np.asarray(uv, np.float64).reshape(-1, 2)
    center = np.array(volume_center(vol.shape))
    cx, cy, cz = center
    tx, ty, tz = transform.translation
    q = np.empty((len(uv), 3))
    np.add(uv[:, 0], tx, out=q[:, 0])
    q[:, 0] -= cx
    np.add(uv[:, 1], ty, out=q[:, 1])
    q[:, 1] -= cy
    q[:, 2] = tz - cz
    m = q @ transform.rotation()
    p = m.T + center[:, None]
    p += 0.5
    np.floor(p, out=p)
    top = np.array([[nx], [ny], [nz]], np.float64)
    np.clip(p, -1.0, top, out=p)
    flat = np.array([1.0, nx + 2.0, (ny + 2.0) * (nx + 2.0)]) @ p + float((ny + 3) * (nx + 2) + 1)
    values = np.pad(vol, 1).ravel().take(flat.astype(np.intp), mode="clip")
    return values, ((p >= 0.0) & (p < top)).all(axis=0), m


def traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak of the call in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def predict_map_where(vol, model, mask):
    """The attenuation map over the whole volume in float64, masked by
    ``np.where``: the formulation before it was computed on the mask's
    voxels only, z-slab by z-slab, and rounded to float32."""
    gray = vol.data.astype(np.float64)
    pred = np.where(mask.data, model.predict(gray), 0.0)
    out_of_range = mask.data & ((gray < model.gray_min) | (gray > model.gray_max))
    return pred, out_of_range


def render_section_mask(out, transform, plane_dims=None) -> np.ndarray:
    """Binary section of a phantom's ground-truth foreground sampled directly
    on the voxel lattice (one pixel per voxel edge); the cleanest
    registration input, free of coarsening artifacts."""
    return phantom._sample_section(out, transform, 1.0, plane_dims) > 0


def mirror(i, n):
    """Fold index ``i`` into 0..n-1 by edge-inclusive mirroring (a b c | c b a),
    as often as it takes."""
    while i < 0 or i >= n:
        i = -i - 1 if i < 0 else 2 * n - 1 - i
    return i


def correlate_axis_oracle(f, weights, axis):
    """Per-voxel 1D correlation along one axis, mirror borders."""
    rad = len(weights) // 2
    out = np.zeros(f.shape)
    for idx in np.ndindex(f.shape):
        acc = 0.0
        for k, w in enumerate(weights):
            src = list(idx)
            src[axis] = mirror(idx[axis] + k - rad, f.shape[axis])
            acc += w * f[tuple(src)]
        out[idx] = acc
    return out


def nlm_oracle(img, h, sigma, patch_radius, search_radius):
    """Direct evaluation of the weighted-average definition, plain loops."""
    nz, ny, nx = img.shape
    r = patch_radius
    offs = [
        (a, b, c)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        for c in range(-r, r + 1)
    ]
    gw = [math.exp(-(a * a + b * b + c * c) / (2.0 * sigma * sigma)) for a, b, c in offs]
    total = sum(gw)
    gw = [g / total for g in gw]
    out = np.zeros_like(img, dtype=float)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                norm = 0.0
                acc = 0.0
                for cz in range(max(0, z - search_radius), min(nz, z + search_radius + 1)):
                    for cy in range(max(0, y - search_radius), min(ny, y + search_radius + 1)):
                        for cx in range(max(0, x - search_radius), min(nx, x + search_radius + 1)):
                            d = 0.0
                            for (a, b, c), g in zip(offs, gw):
                                az, ay, ax = z + a, y + b, x + c
                                bz, by, bx = cz + a, cy + b, cx + c
                                if not (0 <= az < nz and 0 <= ay < ny and 0 <= ax < nx):
                                    continue
                                if not (0 <= bz < nz and 0 <= by < ny and 0 <= bx < nx):
                                    continue
                                diff = img[az, ay, ax] - img[bz, by, bx]
                                d += g * diff * diff
                            w = math.exp(-d / (h * h))
                            norm += w
                            acc += w * img[cz, cy, cx]
                out[z, y, x] = acc / norm
    return out


class _FullDisk(io.FileIO):
    """A file that takes its first ROOM bytes, then reports a full disk."""

    ROOM = 8

    def write(self, b):
        room = self.ROOM - self.tell()
        if len(b) > room:
            super().write(bytes(b)[: max(room, 0)])
            raise OSError(errno.ENOSPC, "disk full")
        return super().write(b)


def fill_disk_on(monkeypatch, matches):
    """From here on, a file opened for writing whose base name satisfies
    ``matches`` takes a few bytes, then reports a full disk; the error shows
    when the buffered bytes are flushed, as it does on a real disk."""
    real_open = builtins.open

    def fake_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None,
                  closefd=True, opener=None):
        if (isinstance(file, (str, bytes, os.PathLike)) and set(mode) & set("wxa")
                and matches(os.path.basename(os.fsdecode(file)))):
            buffered = io.BufferedWriter(_FullDisk(file, mode.replace("b", "").replace("t", "")))
            if "b" in mode:
                return buffered
            return io.TextIOWrapper(buffered, encoding=encoding, errors=errors, newline=newline)
        return real_open(file, mode, buffering, encoding, errors, newline, closefd, opener)

    monkeypatch.setattr(builtins, "open", fake_open)
