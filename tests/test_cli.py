import argparse
import json

import numpy as np
import pytest

from tomoseg import cli
from tomoseg import neuralnet as nn
from tomoseg.volgrid import (
    BinaryVolume, LabelPlane, LabelVolume, ScalarVolume, load_volume, write_volume,
)

from conftest import ball_mask, fill_disk_on


@pytest.fixture
def tiny_volume(tmp_path, rng):
    data = np.zeros((24, 24, 24), np.uint16)
    data[ball_mask((24, 24, 24), (12, 12, 12), 7)] = 20000
    noisy = np.clip(data + rng.normal(0, 300, data.shape), 0, 65535).astype(np.uint16)
    path = tmp_path / "gray.raw"
    write_volume(ScalarVolume(noisy, 4.5), path)
    return path


class _HalfWrite(np.ndarray):
    """A prediction whose payload write fails halfway: the disk fills."""

    def tofile(self, fid, *args, **kwargs):
        np.asarray(self).ravel()[: self.size // 2].tofile(fid, *args, **kwargs)
        raise OSError("disk full")


@pytest.mark.parametrize("existing", [False, True])
def test_failed_predict_write_leaves_no_partial_file(
    tmp_path, monkeypatch, tiny_volume, existing
):
    mask = tmp_path / "mask.raw"
    write_volume(BinaryVolume(load_volume(tiny_volume).data > 10000, 4.5), mask)
    model = tmp_path / "model.txt"
    model.write_text("slope = 0.0001\nintercept = 0.5\ngray_min = 0\ngray_max = 30000\n")
    kwargs = dict(vol=str(tiny_volume), mask=str(mask), model=str(model),
                  out=str(tmp_path / "rmu.f32"))
    if existing:
        cli.stage_attenuation_predict(**kwargs)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_predict = cli.atn.predict_map

    def predict_then_fail(*args):
        pred, flags = real_predict(*args)
        return pred.view(_HalfWrite), flags

    monkeypatch.setattr(cli.atn, "predict_map", predict_then_fail)
    with pytest.raises(OSError, match="disk full"):
        cli.stage_attenuation_predict(**kwargs)
    # no temporary left behind, and an earlier payload is still whole
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_flags_write_keeps_old_payload(tmp_path, monkeypatch, tiny_volume):
    mask = tmp_path / "mask.raw"
    write_volume(BinaryVolume(load_volume(tiny_volume).data > 10000, 4.5), mask)
    out = tmp_path / "rmu.f32"
    models = []
    for version, slope in enumerate(("0.0001", "0.0002")):
        models.append(tmp_path / f"model{version}.txt")
        models[-1].write_text(f"slope = {slope}\nintercept = 0.5\ngray_min = 0\ngray_max = 30000\n")

    def predict(model):
        cli.stage_attenuation_predict(vol=str(tiny_volume), mask=str(mask), model=str(model),
                                      out=str(out))

    predict(models[0])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # the flags payload, not its sidecar, meets a full disk
    fill_disk_on(monkeypatch, lambda base: "rmu.f32.flags" in base and "meta" not in base)
    with pytest.raises(OSError, match="disk full"):
        predict(models[1])
    # the old payload, flags and sidecar are all still there, and nothing else
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    predict(models[1])
    assert out.read_bytes() != before["rmu.f32"]


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


def test_phantom_without_spec_uses_defaults(tmp_path):
    # the default PhantomSpec must fit its own volume, as the README's
    # `tomoseg phantom --out-dir work/` promises
    assert cli.main(["phantom", "--out-dir", str(tmp_path)]) == 0
    for name in ("gray.raw", "section_1.raw", "section_2.raw"):
        assert (tmp_path / name).is_file(), name


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


def test_denoise_without_h_runs_given_search(tmp_path, tiny_volume):
    # h alone comes from the noise estimate; the given search radius is run
    outs = []
    for search in ("1", "3"):
        out = tmp_path / f"den_{search}.raw"
        assert cli.main(["denoise", "--in", str(tiny_volume), "--out", str(out),
                         "--search", search]) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


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


# ------------------------------------------------ one declaration per parameter

# Each stage's settable keys: the union of the subcommand's flags and the INI
# keys from before both fronts were read from the stage signatures.
STAGE_KEYS = {
    "phantom": "spec out_dir",
    "denoise": "in out h sigma patch search",
    "unsharp": "in out c blur_sigma",
    "binarize": "in out window k open_radius min_size",
    "watershed": "mask out h_depth conn",
    "merge": "labels gray model out lambda",
    "edge-features": "labels gray truth out",
    "train-merge": "features out hidden grid seed lr epochs batch_size l2 validation_fraction",
    "descriptors": "labels slice spacing out hist bins",
    "register": "vol plane out pyramid max_iter",
    "attenuation-fit": "samples vol plane transform table weighted erode_px pixel_to_voxel out",
    "attenuation-predict": "vol mask model out",
    "attenuation-validate": "vol plane transform model out table erode_px pixel_to_voxel",
}


def _command(stage):
    return stage.split("-", 1) if stage.startswith("attenuation-") else [stage]


def _subparser(stage):
    parser = cli.build_parser()
    for word in _command(stage):
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[word]
    return parser


@pytest.mark.parametrize("stage", sorted(cli.STAGES))
def test_stage_flags_equal_ini_keys(stage, capsys):
    flags = {
        opt[2:].replace("-", "_")
        for action in _subparser(stage)._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    ini_keys = {key for key, _ in cli._params(cli.STAGES[stage])}
    assert flags == ini_keys == set(STAGE_KEYS[stage].split())
    with pytest.raises(SystemExit) as exc:
        cli.main(_command(stage) + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tomoseg " + " ".join(_command(stage)))


def test_register_pyramid_default_is_register_options_default():
    from tomoseg.register import RegisterOptions

    default = dict(cli._params(cli.stage_register))["pyramid"].default
    assert tuple(int(v) for v in default.split(",")) == RegisterOptions().pyramid


def _register_inputs(tmp_path):
    m = ball_mask((16, 16, 16), (8, 8, 8), 5)
    write_volume(BinaryVolume(m, 4.5), tmp_path / "vol.raw")
    write_volume(BinaryVolume(m[8][None], 4.5), tmp_path / "plane.raw")
    return ["register", "--vol", str(tmp_path / "vol.raw"), "--plane", str(tmp_path / "plane.raw"),
            "--out", str(tmp_path / "reg.txt")]


@pytest.mark.parametrize("pyramid, steps", [("4,2,1", (5.0, 2.5, 1.0)), ("2,1", (2.5, 1.0))])
def test_register_simplex_steps_follow_register_options(tmp_path, monkeypatch, pyramid, steps):
    seen = []
    monkeypatch.setattr(cli.rg, "register_section", lambda vol, plane, opts: seen.append(opts))
    monkeypatch.setattr(cli.rg, "write_result", lambda result, out: None)
    assert cli.main(_register_inputs(tmp_path) + ["--pyramid", pyramid]) == 0
    assert tuple(cli.rg.SIMPLEX_STEP_DEG[f] for f in seen[0].pyramid) == steps


def test_register_pyramid_factor_without_step_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.rg, "register_section", lambda *a: pytest.fail("registration ran"))
    rc = cli.main(_register_inputs(tmp_path) + ["--pyramid", "8,4,2,1"])
    assert rc == cli.EXIT_STAGE_FAILURE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "pyramid factor 8" in err[0]


def test_attenuation_subcommands_parse():
    parser = cli.build_parser()
    ns = parser.parse_args(["attenuation", "fit", "--samples", "s.csv", "--out", "m.txt",
                            "--weighted", "--pixel-to-voxel", "0.5"])
    assert ns.stage is cli.stage_attenuation_fit
    assert (ns.samples, ns.weighted, ns.pixel_to_voxel) == ("s.csv", True, 0.5)
    ns = parser.parse_args(["attenuation", "predict", "--vol", "v", "--mask", "m",
                            "--model", "f", "--out", "o"])
    assert ns.stage is cli.stage_attenuation_predict
    ns = parser.parse_args(["attenuation", "validate", "--vol", "v", "--plane", "p",
                            "--transform", "t", "--model", "f", "--out", "o"])
    assert ns.stage is cli.stage_attenuation_validate


@pytest.fixture
def samples_csv(tmp_path):
    # off the line, with unequal weights, so the weighted fit differs
    path = tmp_path / "samples.csv"
    path.write_text(
        "mineral,mean_gray,n_pixels\nquartz,19400,10\nmuscovite,21000,4000\n"
        "zinnwaldite,28300,50\ntopaz,21800,900\n"
    )
    return path


def test_pipeline_weighted_false_fits_unweighted(tmp_path, samples_csv):
    plain, weighted = tmp_path / "plain.txt", tmp_path / "weighted.txt"
    fit = ["attenuation", "fit", "--samples", str(samples_csv), "--out"]
    assert cli.main(fit + [str(plain)]) == 0
    assert cli.main(fit + [str(weighted), "--weighted"]) == 0
    assert plain.read_text() != weighted.read_text()
    for value, expected in (("false", plain), ("yes", weighted)):
        out = tmp_path / f"pipe_{value}.txt"
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"[attenuation-fit]\nsamples = {samples_csv}\nout = {out}\n"
                       f"weighted = {value}\n")
        assert cli.main(["pipeline", "--config", str(cfg)]) == 0
        assert out.read_text() == expected.read_text()


def _config_fault(tmp_path, capsys, body):
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(body)
    rc = cli.main(["pipeline", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG_ERROR
    assert len(err.strip().splitlines()) == 1
    return err


def test_pipeline_non_boolean_value_is_config_error(tmp_path, capsys, samples_csv):
    err = _config_fault(tmp_path, capsys, f"[attenuation-fit]\nsamples = {samples_csv}\n"
                        f"out = {tmp_path / 'm.txt'}\nweighted = maybe\n")
    assert "'attenuation-fit'" in err and "'weighted'" in err
    assert not (tmp_path / "m.txt").exists()


def test_pipeline_misspelled_key_is_config_error(tmp_path, capsys, tiny_volume):
    err = _config_fault(tmp_path, capsys, f"[binarize]\nin = {tiny_volume}\n"
                        f"out = {tmp_path / 'm.raw'}\nwnidow = 7\n")
    assert "'binarize'" in err and "'wnidow'" in err
    assert not (tmp_path / "m.raw").exists()


def test_pipeline_missing_required_key_is_config_error(tmp_path, capsys):
    err = _config_fault(tmp_path, capsys, f"[binarize]\nout = {tmp_path / 'm.raw'}\n")
    assert "'binarize'" in err and "'in'" in err


def test_pipeline_unparsable_value_is_config_error(tmp_path, capsys, tiny_volume):
    err = _config_fault(tmp_path, capsys, f"[binarize]\nin = {tiny_volume}\n"
                        f"out = {tmp_path / 'm.raw'}\nwindow = seven\n")
    assert "'binarize'" in err and "'window'" in err


def test_missing_model_same_exit_code_on_both_fronts(tmp_path, tiny_volume):
    io = {"labels": tiny_volume, "gray": tiny_volume, "model": tmp_path / "none.txt",
          "out": tmp_path / "merged.raw"}
    argv = ["merge"] + [arg for key, path in io.items() for arg in (f"--{key}", str(path))]
    assert cli.main(argv) == cli.EXIT_MISSING_INPUT
    cfg = tmp_path / "merge.cfg"
    cfg.write_text("[merge]\n" + "".join(f"{key} = {path}\n" for key, path in io.items()))
    assert cli.main(["pipeline", "--config", str(cfg)]) == cli.EXIT_MISSING_INPUT


def _stage_fault(capsys, argv):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_STAGE_FAILURE
    assert len(err.strip().splitlines()) == 1
    return err


def test_model_without_slope_names_file_and_key(tmp_path, capsys, tiny_volume):
    mask = tmp_path / "mask.raw"
    write_volume(BinaryVolume(load_volume(tiny_volume).data > 10000, 4.5), mask)
    model = tmp_path / "model.txt"
    model.write_text("intercept = 0.5\ngray_min = 0\ngray_max = 30000\n")
    err = _stage_fault(capsys, ["attenuation", "predict", "--vol", str(tiny_volume),
                                "--mask", str(mask), "--model", str(model),
                                "--out", str(tmp_path / "rmu.f32")])
    assert str(model) in err and "'slope'" in err


@pytest.mark.parametrize("key, value", [("slope", "nan"), ("intercept", "inf"),
                                        ("gray_min", "-inf"), ("gray_max", "nan")])
def test_nonfinite_attenuation_model_names_file_and_key(tmp_path, capsys, tiny_volume, key,
                                                        value):
    mask = tmp_path / "mask.raw"
    write_volume(BinaryVolume(load_volume(tiny_volume).data > 10000, 4.5), mask)
    model = tmp_path / "model.txt"
    line = {"slope": "0.0001", "intercept": "0.5", "gray_min": "0", "gray_max": "30000", key: value}
    model.write_text("".join(f"{k} = {v}\n" for k, v in line.items()))
    out = tmp_path / "rmu.f32"
    err = _stage_fault(capsys, ["attenuation", "predict", "--vol", str(tiny_volume),
                                "--mask", str(mask), "--model", str(model), "--out", str(out)])
    assert str(model) in err and f"'{key}'" in err
    assert not out.exists() and not (tmp_path / "rmu.f32.meta").exists()


def test_short_transform_angles_name_file_and_key(tmp_path, capsys, tiny_volume):
    # every mineral is absent from the section, so no phase ever uses the
    # transform: the file is still read whole
    plane = tmp_path / "section.raw"
    write_volume(LabelPlane(np.zeros((10, 12), np.uint8), 1.0), plane)
    transform = tmp_path / "reg.txt"
    transform.write_text("angles_deg = 1 2\ntranslation = 0 0 12\n")
    model = tmp_path / "model.txt"
    model.write_text("slope = 0.0001\nintercept = 0.5\ngray_min = 0\ngray_max = 30000\n")
    err = _stage_fault(capsys, ["attenuation", "validate", "--vol", str(tiny_volume),
                                "--plane", str(plane), "--transform", str(transform),
                                "--model", str(model), "--out", str(tmp_path / "scatter.csv")])
    assert str(transform) in err and "'angles_deg'" in err


def test_samples_csv_trailing_blank_line_is_skipped(tmp_path, samples_csv):
    padded = tmp_path / "padded.csv"
    padded.write_text(samples_csv.read_text() + "\n\n")
    plain, out = tmp_path / "plain.txt", tmp_path / "padded.txt"
    assert cli.main(["attenuation", "fit", "--samples", str(samples_csv), "--out", str(plain)]) == 0
    assert cli.main(["attenuation", "fit", "--samples", str(padded), "--out", str(out)]) == 0
    assert out.read_text() == plain.read_text()


@pytest.mark.parametrize("bad_line, reason", [("muscovite,21000", "got 2 fields"),
                                              ("beryl,21000,40", "'beryl'"),
                                              ("muscovite,nan,40", "'nan' is not a finite"),
                                              ("muscovite,21000,inf", "'inf' is not a finite")])
def test_samples_csv_bad_line_names_file_and_line(tmp_path, capsys, bad_line, reason):
    samples = tmp_path / "samples.csv"
    samples.write_text(f"mineral,mean_gray,n_pixels\nquartz,19400,10\n{bad_line}\n"
                       "topaz,21800,900\n")
    err = _stage_fault(capsys, ["attenuation", "fit", "--samples", str(samples),
                                "--out", str(tmp_path / "m.txt")])
    assert f"{samples} line 3" in err and reason in err
    assert not (tmp_path / "m.txt").exists()


# mineral table faults: the table's text, and what the error names after
# the file
TABLE_FAULTS = [
    ("name,code,rho,mu_m\nquartz,19,2.65,0.22\nmuscovite,25,2.83\n", "line 3"),
    ("name,code,rho,mu_m\nquartz,19,2.65,0.22\n\nmuscovite,x,2.83,0.2\n", "line 4"),
    ("", ""),
    ("name,code,rho,mu_m\nquartz,19,2.65,0.22\nmuscovite,19,2.83,0.2\n", "lines 2 and 3"),
    ("name,code,rho,mu_m\nquartz,19,2.65,0.22\nmuscovite,25,nan,0.2\n", "line 3"),
    ("name,code,rho,mu_m\nquartz,19,2.65,inf\nmuscovite,25,2.83,0.2\n", "line 2"),
    ("name,code,rho,mu_m\nquartz,19,2.65,0.22\nmuscovite,25,0,0.2\n", "line 3"),
]


@pytest.mark.parametrize("text, where", TABLE_FAULTS, ids=[
    "short-row", "non-number", "empty", "duplicate-code", "nan-rho", "inf-mu", "zero-rho"])
def test_bad_mineral_table_names_file_and_line(tmp_path, capsys, samples_csv, text, where):
    table = tmp_path / "table.csv"
    table.write_text(text)
    err = _stage_fault(capsys, ["attenuation", "fit", "--samples", str(samples_csv),
                                "--table", str(table), "--out", str(tmp_path / "m.txt")])
    assert f"{table} {where}".strip() in err
    assert not (tmp_path / "m.txt").exists()


# merge-model faults: the key of the save_model line changed, its new text
# (None drops it), and the key the error names
MLP_FAULTS = [
    ("beta", None, "'beta'"),
    ("beta", "beta 0.5", "'beta'"),
    ("beta0", "beta0 half", "'beta0'"),
    ("M", None, "'M'"),
    ("alpha", None, "'alpha'"),
    ("alpha", "alpha 1 2", "'alpha'"),
    ("feat_std", "feat_std 1", "'feat_std'"),
    ("beta0", "beta0 nan", "'beta0'"),
    ("beta", "beta inf 0", "'beta'"),
    ("alpha", "alpha " + " ".join(["-inf"] + ["0"] * 17), "'alpha'"),
]


@pytest.mark.parametrize("key, line, named", MLP_FAULTS)
def test_bad_merge_model_names_file_and_key(tmp_path, capsys, tiny_volume, key, line, named):
    model = tmp_path / "mlp.txt"
    d = 18
    nn.save_model(nn.MlpModel(np.zeros(2), np.zeros((2, d)), 0.0, np.zeros(2), np.zeros(d),
                              np.ones(d)), model)
    lines = model.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.split(" ")[0] == key)
    lines[i : i + 1] = [] if line is None else [line]
    model.write_text("\n".join(lines) + "\n")
    err = _stage_fault(capsys, ["merge", "--labels", str(tiny_volume), "--gray", str(tiny_volume),
                                "--model", str(model), "--out", str(tmp_path / "merged.raw")])
    assert str(model) in err and named in err


def _mismatch_inputs(tmp_path, tiny_volume):
    # 24^3 volumes, and a gray volume four planes short
    gray = load_volume(tiny_volume)
    paths = {"gray": tiny_volume, "short": tmp_path / "short.raw", "labels": tmp_path / "lab.raw",
             "mask": tmp_path / "mask.raw", "model": tmp_path / "mlp.txt",
             "line": tmp_path / "line.txt"}
    write_volume(ScalarVolume(gray.data[4:], 4.5), paths["short"])
    write_volume(LabelVolume((gray.data > 10000).astype(np.uint32), 4.5), paths["labels"])
    write_volume(BinaryVolume(gray.data > 10000, 4.5), paths["mask"])
    d = 18
    nn.save_model(nn.MlpModel(np.zeros(2), np.zeros((2, d)), 0.0, np.zeros(2), np.zeros(d),
                              np.ones(d)), paths["model"])
    paths["line"].write_text("slope = 0.0001\nintercept = 0.5\ngray_min = 0\ngray_max = 30000\n")
    return paths


# stage argv (keys of _mismatch_inputs), and the two files whose dims differ
DIMS_MISMATCH = [
    ("merge --labels labels --gray short --model model --out OUT", ("labels", "short")),
    ("edge-features --labels labels --gray short --truth labels --out OUT", ("labels", "short")),
    ("edge-features --labels labels --gray gray --truth short --out OUT", ("labels", "short")),
    ("attenuation predict --vol short --mask mask --model line --out OUT", ("short", "mask")),
]


@pytest.mark.parametrize("argv, named", DIMS_MISMATCH)
def test_stage_inputs_of_different_dims_name_both_files(tmp_path, capsys, tiny_volume, argv,
                                                        named):
    paths = _mismatch_inputs(tmp_path, tiny_volume)
    out = tmp_path / "out"
    paths["OUT"] = out
    err = _stage_fault(capsys, [str(paths.get(a, a)) for a in argv.split()])
    assert all(str(paths[key]) in err for key in named)
    assert "(24, 24, 24)" in err and "(24, 24, 20)" in err
    assert not out.exists()


def test_manifest_hashes_sidecars_and_records_defaults(tmp_path, tiny_volume):
    cfg = tmp_path / "bin.cfg"
    cfg.write_text(f"[binarize]\nin = {tiny_volume}\nout = {tmp_path / 'm.raw'}\nwindow = 7\n")
    manifest = tmp_path / "m.json"

    def run():
        assert cli.main(["pipeline", "--config", str(cfg), "--manifest", str(manifest)]) == 0
        (entry,) = json.loads(manifest.read_text())
        return entry

    first = run()
    assert first["params"] == {"in": str(tiny_volume), "out": str(tmp_path / "m.raw"),
                               "window": 7, "k": 0.34, "open_radius": 1.0, "min_size": 0}
    meta = tiny_volume.with_name(tiny_volume.name + ".meta")
    assert set(first["inputs"]) == {str(tiny_volume), str(meta)}
    meta.write_text(meta.read_text().replace("spacing_um=4.5", "spacing_um=5.0"))
    second = run()
    assert second["inputs"] != first["inputs"]
    assert second["inputs"][str(tiny_volume)] == first["inputs"][str(tiny_volume)]


def test_manifest_written_whole_or_not_at_all(tmp_path, tiny_volume, monkeypatch):
    cfg = tmp_path / "bin.cfg"
    cfg.write_text(f"[binarize]\nin = {tiny_volume}\nout = {tmp_path / 'm.raw'}\n")
    manifest = tmp_path / "m.json"

    def dump_half(obj, fh, **kw):
        fh.write('[{"stage": ')
        raise OSError("disk full")

    def dumps_fails(obj, **kw):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_half)
    monkeypatch.setattr(json, "dumps", dumps_fails)
    assert cli.main(["pipeline", "--config", str(cfg), "--manifest", str(manifest)]) == 3
    assert (tmp_path / "m.raw").exists()  # the stage ran
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith((".", "m.json"))) == []

