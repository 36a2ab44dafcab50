import numpy as np
import pytest

from tomoseg.volgrid import (
    BinaryVolume,
    LabelPlane,
    LabelVolume,
    ScalarVolume,
    extract_slice,
    load_volume,
    read_volume,
    write_volume,
)


def test_read_zero_u16(tmp_path):
    path = tmp_path / "z.raw"
    np.zeros(8, "<u2").tofile(path)
    vol = read_volume(path, (2, 2, 2), 1.0, "u16")
    assert isinstance(vol, ScalarVolume)
    assert (vol.data == 0).all()


def test_size_mismatch(tmp_path):
    path = tmp_path / "bad.raw"
    np.zeros(8, np.uint8).tofile(path)  # 8 bytes, u16 2x2x2 needs 16
    with pytest.raises(ValueError, match="16"):
        read_volume(path, (2, 2, 2), 1.0, "u16")


def test_unreadable_path():
    with pytest.raises(OSError):
        read_volume("/nonexistent/nope.raw", (2, 2, 2), 1.0, "u16")


@pytest.mark.parametrize("element", ["u16", "u32", "bit", "u8"])
def test_roundtrip_all_elements(tmp_path, rng, element):
    dims = (5, 4, 3) if element != "u8" else (5, 4, 1)
    nx, ny, nz = dims
    if element == "u16":
        vol = ScalarVolume(rng.integers(0, 65536, (nz, ny, nx)).astype(np.uint16), 4.5)
    elif element == "u32":
        vol = LabelVolume((rng.random((nz, ny, nx)) > 0.5).astype(np.int32), 4.5)
    elif element == "bit":
        vol = BinaryVolume(rng.random((nz, ny, nx)) > 0.5, 4.5)
    else:
        vol = LabelPlane(rng.integers(0, 256, (ny, nx)).astype(np.uint8), 1.0)
    path = tmp_path / "vol.raw"
    write_volume(vol, path)
    back = load_volume(path)
    assert type(back) is type(vol)
    assert back.spacing == vol.spacing
    np.testing.assert_array_equal(back.data, vol.data)


def test_roundtrip_is_byte_exact(tmp_path, rng):
    vol = ScalarVolume(rng.integers(0, 65536, (3, 3, 3)).astype(np.uint16), 1.0)
    p1, p2 = tmp_path / "a.raw", tmp_path / "b.raw"
    write_volume(vol, p1)
    write_volume(load_volume(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


class _SpacingWithBrokenRepr(float):
    """A spacing whose sidecar line cannot be formatted: the write fails
    after the payload is written."""

    def __repr__(self):
        raise OSError("disk full")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, rng, existing):
    path = tmp_path / "vol.raw"
    old = ScalarVolume(np.full((2, 3, 4), 7, np.uint16), 2.0)
    if existing:
        write_volume(old, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    vol = ScalarVolume(rng.integers(0, 65536, (5, 6, 7)).astype(np.uint16), _SpacingWithBrokenRepr(1.0))
    with pytest.raises(OSError, match="disk full"):
        write_volume(vol, path)
    # no temporary left behind, and an earlier volume still reads whole
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    if existing:
        np.testing.assert_array_equal(load_volume(path).data, old.data)


def test_payload_is_little_endian_x_fastest(tmp_path):
    arr = np.arange(8, dtype=np.uint16).reshape(2, 2, 2)  # value = x + 2y + 4z
    path = tmp_path / "order.raw"
    write_volume(ScalarVolume(arr, 1.0), path)
    raw = path.read_bytes()
    assert raw[:4] == bytes([0, 0, 1, 0])  # x varies fastest, little endian


def test_labels_must_be_contiguous():
    bad = np.zeros((2, 2, 2), np.int32)
    bad[0, 0, 0] = 2  # label 1 missing
    with pytest.raises(ValueError, match="contiguous"):
        LabelVolume(bad, 1.0)


def test_volume_immutable(rng):
    vol = ScalarVolume(rng.integers(0, 65536, (2, 2, 2)).astype(np.uint16), 1.0)
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1


def test_extract_slice_constant():
    vol = ScalarVolume(np.full((3, 4, 5), 7, np.uint16), 1.0)
    for axis in "xyz":
        assert (extract_slice(vol, axis, 0) == 7).all()


def test_extract_slice_z_ramp():
    nz, ny, nx = 4, 3, 2
    data = np.zeros((nz, ny, nx), np.uint16)
    for z in range(nz):
        data[z] = z
    vol = ScalarVolume(data, 1.0)
    assert (extract_slice(vol, "z", 0) == 0).all()
    assert (extract_slice(vol, "z", 3) == 3).all()


def test_extract_slice_matches_triple_loop(rng):
    data = rng.integers(0, 65536, (3, 3, 3)).astype(np.uint16)
    vol = ScalarVolume(data, 1.0)
    for idx in range(3):
        np.testing.assert_array_equal(
            extract_slice(vol, "x", idx),
            np.array([[data[z, y, idx] for y in range(3)] for z in range(3)]),
        )
        np.testing.assert_array_equal(
            extract_slice(vol, "y", idx),
            np.array([[data[z, idx, x] for x in range(3)] for z in range(3)]),
        )
        np.testing.assert_array_equal(
            extract_slice(vol, "z", idx),
            np.array([[data[idx, y, x] for x in range(3)] for y in range(3)]),
        )


def test_extract_slice_out_of_range():
    vol = ScalarVolume(np.zeros((2, 2, 2), np.uint16), 1.0)
    with pytest.raises(IndexError):
        extract_slice(vol, "z", 2)


def test_extract_slice_commutes_with_pointwise_map(rng):
    data = rng.integers(0, 1000, (4, 5, 6)).astype(np.uint16)
    vol = ScalarVolume(data, 1.0)
    mapped = ScalarVolume((data.astype(np.int64) * 3 + 7) % 65536, 1.0)
    for axis, idx in (("x", 2), ("y", 4), ("z", 1)):
        np.testing.assert_array_equal(
            extract_slice(mapped, axis, idx),
            ((extract_slice(vol, axis, idx).astype(np.int64) * 3 + 7) % 65536).astype(np.uint16),
        )
