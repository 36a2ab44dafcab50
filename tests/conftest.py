import builtins
import errno
import io
import os

import numpy as np
import pytest

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
