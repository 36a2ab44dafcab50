import json

import numpy as np
import pytest

from tomoseg import cli
from tomoseg.volgrid import BinaryVolume, ScalarVolume, load_volume, write_volume

from conftest import ball_mask


@pytest.fixture
def tiny_volume(tmp_path, rng):
    data = np.zeros((24, 24, 24), np.uint16)
    data[ball_mask((24, 24, 24), (12, 12, 12), 7)] = 20000
    noisy = np.clip(data + rng.normal(0, 300, data.shape), 0, 65535).astype(np.uint16)
    path = tmp_path / "gray.raw"
    write_volume(ScalarVolume(noisy, 4.5), path)
    return path


def test_missing_input_exit_code(tmp_path):
    rc = cli.main(["binarize", "--in", str(tmp_path / "nope.raw"), "--out", str(tmp_path / "o.raw")])
    assert rc == cli.EXIT_MISSING_INPUT


def test_denoise_unsharp_binarize_watershed_chain(tmp_path, tiny_volume):
    den = tmp_path / "den.raw"
    rc = cli.main(["denoise", "--in", str(tiny_volume), "--out", str(den), "--search", "2"])
    assert rc == 0
    uns = tmp_path / "uns.raw"
    assert cli.main(["unsharp", "--in", str(den), "--out", str(uns)]) == 0
    mask = tmp_path / "mask.raw"
    rc = cli.main(
        ["binarize", "--in", str(uns), "--out", str(mask), "--window", "7", "--min-size", "20"]
    )
    assert rc == 0
    labels = tmp_path / "labels.raw"
    rc = cli.main(["watershed", "--mask", str(mask), "--out", str(labels), "--h-depth", "1.0"])
    assert rc == 0
    lab = load_volume(labels)
    assert lab.n_labels >= 1


def test_register_cli_and_result_file(tmp_path):
    m = ball_mask((24, 24, 24), (12, 12, 12), 8) | ball_mask((24, 24, 24), (6, 16, 6), 4)
    vol_path = tmp_path / "mask.raw"
    write_volume(BinaryVolume(m, 4.5), vol_path)
    plane_path = tmp_path / "plane.raw"
    write_volume(BinaryVolume(m[12][None, 2:22, 2:22], 4.5), plane_path)
    out = tmp_path / "reg.txt"
    rc = cli.main(
        ["register", "--vol", str(vol_path), "--plane", str(plane_path), "--out", str(out),
         "--pyramid", "2,1"]
    )
    assert rc == 0
    text = out.read_text()
    assert "angles_deg" in text and "normalized_overlap" in text


def test_pipeline_empty_config(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    manifest = tmp_path / "m.json"
    rc = cli.main(["pipeline", "--config", str(cfg), "--manifest", str(manifest)])
    assert rc == 0
    assert json.loads(manifest.read_text()) == []


def test_pipeline_unknown_stage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[explode]\nx = 1\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == cli.EXIT_CONFIG_ERROR


def test_pipeline_missing_config(tmp_path):
    assert cli.main(["pipeline", "--config", str(tmp_path / "none.cfg")]) == cli.EXIT_MISSING_INPUT


def test_pipeline_stage_failure_exit_code(tmp_path, tiny_volume):
    cfg = tmp_path / "fail.cfg"
    cfg.write_text(
        f"[binarize]\nin = {tiny_volume}\nout = {tmp_path / 'm.raw'}\nwindow = -3\n"
    )
    assert cli.main(["pipeline", "--config", str(cfg)]) == cli.EXIT_STAGE_FAILURE


def test_pipeline_missing_stage_input(tmp_path):
    cfg = tmp_path / "mi.cfg"
    cfg.write_text(f"[binarize]\nin = {tmp_path / 'ghost.raw'}\nout = {tmp_path / 'o.raw'}\n")
    assert cli.main(["pipeline", "--config", str(cfg)]) == cli.EXIT_MISSING_INPUT


def test_pipeline_full_run_and_reproducible_hashes(tmp_path):
    spec = tmp_path / "phantom.spec"
    spec.write_text(
        "dims=48,48,48\nspacing=4.5\ncount=5\nsize_range_um=30,50\naspect_range=1.0,2.0\n"
        "noise_std=300\nrng_seed=8\nn_sections=0\ncontact_fraction=0.3\n"
    )
    workdir = tmp_path / "run"
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"""
[phantom]
spec = {spec}
out_dir = {workdir}

[binarize]
in = {workdir}/gray.raw
out = {workdir}/mask.raw
window = 7
min_size = 20

[watershed]
mask = {workdir}/mask.raw
out = {workdir}/labels.raw
h_depth = 1.0

[descriptors]
labels = {workdir}/labels.raw
slice = z,24
out = {workdir}/rows.csv
"""
    )
    m1 = tmp_path / "m1.json"
    assert cli.main(["pipeline", "--config", str(cfg), "--manifest", str(m1)]) == 0
    manifest = json.loads(m1.read_text())
    assert [entry["stage"] for entry in manifest] == [
        "phantom", "binarize", "watershed", "descriptors",
    ]
    for entry in manifest:
        assert entry["outputs"], entry["stage"]

    m2 = tmp_path / "m2.json"
    assert cli.main(["pipeline", "--config", str(cfg), "--manifest", str(m2)]) == 0
    h1 = {p: h for e in manifest for p, h in e["outputs"].items()}
    h2 = {p: h for e in json.loads(m2.read_text()) for p, h in e["outputs"].items()}
    assert h1 == h2  # bit-identical rerun


def test_watershed_deterministic_across_threads(tmp_path):
    m = ball_mask((20, 20, 36), (10, 10, 10), 7) | ball_mask((20, 20, 36), (10, 10, 26), 7)
    mask_path = tmp_path / "mask.raw"
    write_volume(BinaryVolume(m, 1.0), mask_path)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"lab_{threads}.raw"
        rc = cli.main(
            ["--threads", threads, "watershed", "--mask", str(mask_path), "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_denoise_bit_identical_across_threads(tmp_path, tiny_volume, monkeypatch):
    from tomoseg import backend

    # eight usable CPUs, so --threads 8 runs eight slabs of the 24 z-rows
    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(8)))
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"den_{threads}.raw"
        rc = cli.main(
            ["--threads", threads, "denoise", "--in", str(tiny_volume), "--out", str(out),
             "--search", "2"]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_bound_resets_between_calls(tmp_path, tiny_volume, monkeypatch):
    from tomoseg import backend

    monkeypatch.setattr(backend.os, "sched_getaffinity", lambda pid: set(range(4)))
    out = str(tmp_path / "den.raw")
    args = ["denoise", "--in", str(tiny_volume), "--out", out, "--search", "1"]
    assert cli.main(["--threads", "1"] + args) == 0
    assert backend.worker_count(24) == 1
    assert cli.main(args) == 0
    assert backend.worker_count(24) == 4


def test_train_and_merge_cli(tmp_path):
    from tomoseg import binarize, mergegraph, phantom, watershed

    spec = phantom.PhantomSpec(
        dims=(64, 64, 64), count=10, size_range_um=(40, 64), aspect_range=(1.0, 2.5),
        noise_std=1200.0, rng_seed=17, n_sections=0, contact_fraction=0.6,
    )
    out = phantom.generate(spec)
    gray_path = tmp_path / "gray.raw"
    write_volume(out.gray, gray_path)
    truth_path = tmp_path / "truth.raw"
    write_volume(out.labels, truth_path)
    mask = binarize.remove_small_components(
        binarize.morphological_opening(
            binarize.sauvola_binarize(out.gray, binarize.SauvolaParams(window_radius=7)), 1.0
        ),
        30,
    )
    lab = watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=0.2))
    lab_path = tmp_path / "labels.raw"
    write_volume(lab, lab_path)

    feat_csv = tmp_path / "edges.csv"
    rc = cli.main(
        ["edge-features", "--labels", str(lab_path), "--gray", str(gray_path),
         "--truth", str(truth_path), "--out", str(feat_csv)]
    )
    assert rc == 0
    edges, x, y = mergegraph.read_features_csv(feat_csv)
    if len(set(y)) < 2:
        pytest.skip("tiny phantom produced a single edge class")
    model_path = tmp_path / "model.txt"
    rc = cli.main(
        ["train-merge", "--features", str(feat_csv), "--out", str(model_path),
         "--hidden", "10", "--epochs", "200", "--seed", "1"]
    )
    assert rc == 0
    merged_path = tmp_path / "merged.raw"
    rc = cli.main(
        ["merge", "--labels", str(lab_path), "--gray", str(gray_path),
         "--model", str(model_path), "--out", str(merged_path)]
    )
    assert rc == 0
    merged = load_volume(merged_path)
    assert 1 <= merged.n_labels <= lab.n_labels
