"""Grid containers, voxel metadata and raw file I/O.

One memory layout is used everywhere: ``data[z, y, x]`` C-contiguous, so the
flat byte order is x-fastest. ``dims`` is always reported as ``(nx, ny, nz)``.
Files are headerless little-endian payloads with a text sidecar ``<path>.meta``
holding ``dims=<nx>,<ny>,<nz>``, ``spacing_um=<float>`` and
``element=<u8|u16|u32|bit>``. Bit payloads pack 8 voxels per byte, x-fastest,
least significant bit first.

Volumes are immutable after construction (the constructor takes ownership of
the array and marks it read-only), so any number of threads may share one.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

ELEMENT_DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "u32": np.dtype("<u4"),
}
VALID_ELEMENTS = ("u8", "u16", "u32", "bit")


def _own(data: np.ndarray, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_3d(data: np.ndarray, spacing: float) -> None:
    if data.ndim != 3:
        raise ValueError(f"expected a 3D array, got shape {data.shape}")
    if not spacing > 0:
        raise ValueError(f"voxel spacing must be positive, got {spacing}")


@dataclass(frozen=True)
class ScalarVolume:
    """16-bit grayscale volume; ``data[z, y, x]``, spacing in micrometers."""

    data: np.ndarray
    spacing: float

    def __post_init__(self):
        _check_3d(self.data, self.spacing)
        object.__setattr__(self, "data", _own(self.data, np.uint16))

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class BinaryVolume:
    """Foreground mask; boolean ``data[z, y, x]``."""

    data: np.ndarray
    spacing: float

    def __post_init__(self):
        _check_3d(self.data, self.spacing)
        object.__setattr__(self, "data", _own(self.data, bool))

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)


@dataclass(frozen=True)
class LabelVolume:
    """Particle labeling; int32 ``data[z, y, x]``, 0 = background.

    The positive label set must be contiguous 1..L with every label occupying
    at least one voxel.
    """

    data: np.ndarray
    spacing: float

    def __post_init__(self):
        _check_3d(self.data, self.spacing)
        arr = np.ascontiguousarray(self.data, dtype=np.int32)
        if arr.size and arr.min() < 0:
            raise ValueError("labels must be non-negative")
        top = int(arr.max()) if arr.size else 0
        if top > 0:
            counts = np.bincount(arr.ravel(), minlength=top + 1)
            if not counts[1:].all():
                missing = int(np.flatnonzero(counts[1:] == 0)[0]) + 1
                raise ValueError(f"label set is not contiguous: label {missing} is empty")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        nz, ny, nx = self.data.shape
        return (nx, ny, nz)

    @property
    def n_labels(self) -> int:
        return int(self.data.max()) if self.data.size else 0


@dataclass(frozen=True)
class LabelPlane:
    """2D mineral-code image; uint8 ``data[y, x]``, 0 = background."""

    data: np.ndarray
    spacing: float

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2D array, got shape {self.data.shape}")
        if not self.spacing > 0:
            raise ValueError(f"pixel spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "data", _own(self.data, np.uint8))

    @property
    def dims(self) -> tuple[int, int]:
        ny, nx = self.data.shape
        return (nx, ny)

    def codes(self) -> np.ndarray:
        """Sorted nonzero codes present in the plane."""
        u = np.unique(self.data)
        return u[u > 0]


Volume = ScalarVolume | BinaryVolume | LabelVolume


def _payload_size(dims: tuple[int, int, int], element: str) -> int:
    nx, ny, nz = dims
    n = nx * ny * nz
    if element == "bit":
        return (n + 7) // 8
    return n * ELEMENT_DTYPES[element].itemsize


def read_volume(path, dims: tuple[int, int, int], spacing: float, element: str):
    """Read a raw little-endian payload into the matching container.

    u16 -> ScalarVolume, u32 -> LabelVolume, bit -> BinaryVolume. u8 payloads
    carry label planes and require nz == 1 (returns a LabelPlane).
    """
    nx, ny, nz = dims
    if element not in VALID_ELEMENTS:
        raise ValueError(f"unknown element type {element!r}")
    if nx <= 0 or ny <= 0 or nz <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    expected = _payload_size(dims, element)
    actual = os.path.getsize(path)
    if actual != expected:
        raise ValueError(
            f"{path}: file holds {actual} bytes but dims {dims} as {element} need {expected}"
        )
    raw = np.fromfile(path, dtype=np.uint8)
    if element == "bit":
        bits = np.unpackbits(raw, count=nx * ny * nz, bitorder="little")
        return BinaryVolume(bits.reshape(nz, ny, nx).astype(bool), spacing)
    arr = raw.view(ELEMENT_DTYPES[element]).reshape(nz, ny, nx)
    if element == "u16":
        return ScalarVolume(arr, spacing)
    if element == "u32":
        return LabelVolume(arr, spacing)
    if nz != 1:
        raise ValueError("u8 payloads are only supported as single-slice label planes")
    return LabelPlane(arr[0], spacing)


def _element_of(vol) -> str:
    if isinstance(vol, ScalarVolume):
        return "u16"
    if isinstance(vol, BinaryVolume):
        return "bit"
    if isinstance(vol, LabelVolume):
        return "u32"
    if isinstance(vol, LabelPlane):
        return "u8"
    raise TypeError(f"not a grid container: {type(vol)!r}")


@contextlib.contextmanager
def _atomic_files(*paths):
    """Binary handles on temporary files beside ``paths``; on a clean exit each
    is renamed onto its path, and on an exception all are removed, leaving
    every path as it was. Atomic against a failing writer, not a power cut:
    nothing is fsynced."""
    temps = [os.path.join(os.path.dirname(os.fspath(p)),
                          f".{os.path.basename(os.fspath(p))}.{secrets.token_hex(4)}.tmp")
             for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(t, "xb")) for t in temps]
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise


@contextlib.contextmanager
def _atomic_text(path):
    """A UTF-8 text handle on a temporary file beside ``path``, renamed onto
    it on a clean exit and removed on an exception (``_atomic_files``); the
    bytes are those ``open(path, "w", encoding="utf-8")`` would write."""
    with _atomic_files(path) as (fh,), io.TextIOWrapper(fh, encoding="utf-8") as text:
        yield text


def _encode_volume(vol) -> tuple[np.ndarray, bytes]:
    """The raw payload and the ``.meta`` sidecar bytes of ``vol``."""
    element = _element_of(vol)
    if isinstance(vol, LabelPlane):
        dims = (vol.dims[0], vol.dims[1], 1)
    else:
        dims = vol.dims
    flat = vol.data.ravel()
    if element == "bit":
        payload = np.packbits(flat.astype(np.uint8), bitorder="little")
    else:
        payload = flat.astype(ELEMENT_DTYPES[element])
    meta = (f"dims={dims[0]},{dims[1]},{dims[2]}\n"
            f"spacing_um={vol.spacing!r}\n"
            f"element={element}\n").encode()
    return payload, meta


def write_volume(vol, path) -> None:
    """Write raw payload plus ``<path>.meta`` sidecar. Both are written to
    temporary files first and renamed into place together, so a failed write
    leaves no partial file at either path."""
    payload, meta = _encode_volume(vol)
    with _atomic_files(path, f"{path}.meta") as (data_fh, meta_fh):
        data_fh.write(payload)
        meta_fh.write(meta)


def read_key_values(path) -> dict[str, str]:
    """The ``key = value`` lines of a UTF-8 text file as stripped strings.
    Blank lines, lines starting with ``#`` and lines without ``=`` are
    skipped; a later line overrides an earlier one with the same key."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def finite_float(text) -> float:
    """``float(text)``; nan and the infinities raise ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def key_value(path, values: dict, key: str, convert=str, count=None, sep=None):
    """``values[key]``, read from ``path``, converted by ``convert``; with
    ``count``, a tuple of exactly that many items split at ``sep``
    (whitespace when None). A missing key or a value that does not convert
    raises ValueError naming the file and the key."""
    if key not in values:
        raise ValueError(f"{path}: missing key {key!r}")
    try:
        if count is None:
            return convert(values[key])
        items = values[key].split(sep)
        if len(items) != count:
            raise ValueError(f"expected {count} values, got {len(items)}")
        return tuple(convert(v) for v in items)
    except ValueError as exc:
        raise ValueError(f"{path}: key {key!r}: {exc}") from None


def load_volume(path):
    """Read a payload using its sidecar metadata."""
    meta_path = f"{path}.meta"
    meta = read_key_values(meta_path)
    dims = key_value(meta_path, meta, "dims", int, 3, ",")
    spacing = key_value(meta_path, meta, "spacing_um", float)
    return read_volume(path, dims, spacing, key_value(meta_path, meta, "element"))


_AXIS_INDEX = {"x": 2, "y": 1, "z": 0}


def extract_slice(vol, axis: str, index: int) -> np.ndarray:
    """Planar slice of a volume as a 2D array of the same element type.

    Slice along z gives ``[y, x]``, along y gives ``[z, x]``, along x gives
    ``[z, y]``.
    """
    if axis not in _AXIS_INDEX:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    ax = _AXIS_INDEX[axis]
    n = vol.data.shape[ax]
    if not 0 <= index < n:
        raise IndexError(f"slice index {index} out of range for axis {axis} of size {n}")
    return np.take(vol.data, index, axis=ax).copy()
