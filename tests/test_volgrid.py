import re

import numpy as np
import pytest

from tomoseg.volgrid import (
    BinaryVolume,
    LabelPlane,
    LabelVolume,
    ScalarVolume,
    extract_slice,
    finite_float,
    load_volume,
    read_table,
    read_value,
    read_volume,
    write_table,
    write_volume,
)

from conftest import fill_disk_on


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


def _copying_payload(vol) -> bytes:
    """The payload as written before it was encoded without a copy: the
    data cast to the element's little-endian type, bits through uint8."""
    flat = vol.data.ravel()
    if isinstance(vol, BinaryVolume):
        return np.packbits(flat.astype(np.uint8), bitorder="little").tobytes()
    dtype = {ScalarVolume: "<u2", LabelVolume: "<u4", LabelPlane: "<u1"}[type(vol)]
    return flat.astype(dtype).tobytes()


def _one_of_each(rng, shape):
    nz, ny, nx = shape
    lab = rng.permutation(np.arange(nz * ny * nx)).reshape(shape) % 700  # labels above 255
    return (
        ScalarVolume(rng.integers(0, 65536, shape).astype(np.uint16), 1.0),
        LabelVolume(lab.astype(np.int32), 1.0),
        BinaryVolume(rng.random(shape) > 0.5, 1.0),
        LabelPlane(rng.integers(0, 256, (ny, nx)).astype(np.uint8), 1.0),
    )


@pytest.mark.parametrize("shape", [(3, 5, 7), (1, 1, 1), (2, 3, 11)])
def test_payload_bytes_equal_copying_encoding(tmp_path, rng, shape):
    for vol in _one_of_each(rng, shape):
        path = tmp_path / "v.raw"
        write_volume(vol, path)
        assert path.read_bytes() == _copying_payload(vol), type(vol).__name__


def test_write_volume_makes_no_payload_copy(tmp_path, rng):
    # the packed bits (1/8 byte per voxel) are the only payload-sized
    # array; the copying encoding took 2, 4 and 1.1 bytes per voxel
    from conftest import traced_peak

    for vol in _one_of_each(rng, (64, 64, 64))[:3]:
        path = tmp_path / "v.raw"
        _, peak = traced_peak(lambda: write_volume(vol, path))
        assert peak / vol.data.size <= 0.25, (type(vol).__name__, peak / vol.data.size)
        assert path.read_bytes() == _copying_payload(vol)


def test_bit_mask_loads_without_a_second_copy(tmp_path, rng):
    # the unpacked bits viewed as bool (1 byte per voxel) and the packed
    # payload (1/8); converting the bits with astype took about 2.1
    from conftest import traced_peak

    vol = BinaryVolume(rng.random((64, 64, 64)) < 0.3, 1.0)
    path = tmp_path / "m.raw"
    write_volume(vol, path)
    loaded, peak = traced_peak(lambda: load_volume(path))
    assert peak / vol.data.size <= 1.3, peak / vol.data.size
    assert loaded.data.dtype == bool and not loaded.data.flags.writeable
    np.testing.assert_array_equal(loaded.data, vol.data)


def test_roundtrip_is_byte_exact(tmp_path, rng):
    vol = ScalarVolume(rng.integers(0, 65536, (3, 3, 3)).astype(np.uint16), 1.0)
    p1, p2 = tmp_path / "a.raw", tmp_path / "b.raw"
    write_volume(vol, p1)
    write_volume(load_volume(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


class _SpacingWithBrokenRepr(float):
    """A spacing whose sidecar line cannot be formatted: the write fails
    while the sidecar is encoded, before either file is renamed."""

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


def _write_attenuation_model(out_dir, version):
    from tomoseg import cli

    samples = out_dir.parent / f"samples{version}.csv"
    samples.write_text("mineral,mean_gray,n_pixels\n" + "".join(
        f"{name},{gray + version},100\n"
        for name, gray in (("quartz", 20000), ("topaz", 30000), ("kaolinite", 24000))
    ))
    cli.stage_attenuation_fit(out=str(out_dir / "model.txt"), samples=str(samples))


def _write_truth_minerals(out_dir, version):
    from tomoseg import cli

    spec = out_dir.parent / f"spec{version}.txt"
    spec.write_text(f"dims = 20,20,20\ncount = {2 + version}\nsize_range_um = 20,30\n"
                    "aspect_range = 1,1.2\nelongated_fraction = 0\nn_sections = 0\nrng_seed = 3\n")
    cli.stage_phantom(out_dir=str(out_dir), spec=str(spec))


def _descriptor_rows(version):
    from tomoseg.descriptors import DescriptorRow

    return [DescriptorRow(i, 10.0 * i + version, 12.5, 3.0, 0.9, 0.95, 1.2 + i) for i in (1, 2, 3)]


def _write_descriptor_rows(out_dir, version):
    from tomoseg.descriptors import rows_to_csv

    rows_to_csv(_descriptor_rows(version), out_dir / "rows.csv")


def _write_histograms(out_dir, version):
    from tomoseg.descriptors import export_distributions

    export_distributions(_descriptor_rows(version), 4, out_dir)


def _write_mlp_model(out_dir, version):
    from tomoseg.neuralnet import MlpModel, save_model

    save_model(MlpModel(np.zeros(2), np.full((2, 3), 0.5 + version), 0.25, np.ones(2),
                        np.zeros(3), np.ones(3)), out_dir / "mlp.txt")


def _write_edge_features(out_dir, version):
    from types import SimpleNamespace

    from tomoseg.mergegraph import FEATURE_DIM, features_to_csv

    graph = SimpleNamespace(edges=((1, 2), (1, 3)))
    features = {e: np.arange(FEATURE_DIM) + version for e in graph.edges}
    features_to_csv(out_dir / "edges.csv", graph, features, {(1, 2): 1, (1, 3): 0})


def _write_scatter(out_dir, version):
    from tomoseg.attenuation import ValidationReport, ValidationRow, write_scatter

    rows = (ValidationRow("quartz", 20000.0, 50, 1.5 + version, 1.4),
            ValidationRow("topaz", 30000.0, 60, 2.5, 2.6))
    write_scatter(ValidationReport(rows, ()), out_dir / "scatter.csv")


def _write_volume(out_dir, version):
    write_volume(ScalarVolume(np.full((2, 3, 4), 7 + version, np.uint16), 2.0), out_dir / "vol.raw")


# writer -> (the file that meets a full disk, the files that must stay whole,
# how to write version 0 or 1 into a directory; inputs go beside it)
WRITERS = {
    "attenuation-model": ("model.txt", ("model.txt",), _write_attenuation_model),
    "truth-minerals": ("truth_minerals.csv", ("truth_minerals.csv",), _write_truth_minerals),
    "descriptor-rows": ("rows.csv", ("rows.csv",), _write_descriptor_rows),
    "histograms": ("area_hist.csv", ("area_hist.csv",), _write_histograms),
    "mlp-model": ("mlp.txt", ("mlp.txt",), _write_mlp_model),
    "edge-features": ("edges.csv", ("edges.csv",), _write_edge_features),
    "scatter": ("scatter.csv", ("scatter.csv",), _write_scatter),
    # the payload is complete when its sidecar meets the full disk
    "volume": ("vol.raw.meta", ("vol.raw", "vol.raw.meta"), _write_volume),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_full_disk_keeps_old_outputs(tmp_path, monkeypatch, writer):
    fail_on, whole, write = WRITERS[writer]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    write(out_dir, 0)
    old = {name: (out_dir / name).read_bytes() for name in whole}
    assert len(old[fail_on]) > 8  # longer than the full disk takes
    names = {p.name for p in out_dir.iterdir()}
    fill_disk_on(monkeypatch, lambda base: fail_on in base)
    with pytest.raises(OSError, match="disk full"):
        write(out_dir, 1)
    # the old files are whole and no temporary is left behind
    assert {name: (out_dir / name).read_bytes() for name in whole} == old
    assert {p.name for p in out_dir.iterdir()} == names
    monkeypatch.undo()
    write(out_dir, 1)
    assert {name: (out_dir / name).read_bytes() for name in whole} != old


def test_table_round_trip_counts_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "name,n,x", [("a", 1, 0.1), ("b", 2, 1e-300)])
    assert path.read_text() == "name,n,x\na,1,0.1\nb,2,1e-300\n"
    path.write_text("\n  \nname,n,x\na,1,0.1\n\n\nb,2,1e-300\n\n")
    rows = list(read_table(path, "name,n,x", (str, int, finite_float)))
    assert rows == [(f"{path} line 4", ["a", 1, 0.1]), (f"{path} line 7", ["b", 2, 1e-300])]
    path.write_text("name,n,x\n")
    assert list(read_table(path, "name,n,x", (str, int, finite_float))) == []


@pytest.mark.parametrize("text, named", [
    ("", ""),
    ("\n\n", ""),
    ("name,n\na,1\n", ""),
    ("a,1,0.1\nname,n,x\n", ""),
    ("name,n,x\na,1,0.1\n\nb,2\n", " line 4: expected name,n,x, got 2 fields"),
    ("name,n,x\na,1,0.1,7\n", " line 2: expected name,n,x, got 4 fields"),
    ("name,n,x\n\na,1.5,0.1\n", " line 3: invalid literal for int()"),
    ("name,n,x\na,1,nan\n", " line 2: 'nan' is not a finite number"),
])
def test_bad_table_names_file_and_line(tmp_path, text, named):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        list(read_table(path, "name,n,x", (str, int, finite_float)))
    assert str(exc.value).startswith(f"{path}{named}")
    if not named:
        assert "header name,n,x" in str(exc.value)


@pytest.mark.parametrize("hint, text, value", [
    (tuple[int, ...], "4, 2,1", (4, 2, 1)),
    (tuple[int, ...], "7", (7,)),
    (tuple[str, int], "z, 24", ("z", 24)),
    (tuple[float, float], "30,50", (30.0, 50.0)),
    (dict[str, float], "quartz:0.6, topaz : 0.4", {"quartz": 0.6, "topaz": 0.4}),
    (bool, "Yes", True),
    (bool, "off", False),
    (float, "1e-3", 1e-3),
    (str, " a b ", " a b "),
])
def test_read_value_reads_each_hint(hint, text, value):
    assert read_value(hint, text) == value
    assert type(read_value(hint, text)) is type(value)


@pytest.mark.parametrize("hint, text, reason", [
    (tuple[str, int], "z", "expected 2 values, got 1"),
    (tuple[str, int], "z,1,2", "expected 2 values, got 3"),
    (tuple[str, int], "z,a", "invalid literal for int()"),
    (tuple[int, ...], "", "invalid literal for int()"),
    (tuple[int, ...], "4,,1", "invalid literal for int()"),
    (dict[str, float], "quartz", "expected 2 values, got 1"),
    (dict[str, float], "quartz:", "could not convert string to float"),
    (bool, "maybe", "'maybe' is not a switch word"),
    (int, "1.5", "invalid literal for int()"),
])
def test_read_value_refuses_malformed_text(hint, text, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        read_value(hint, text)


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
