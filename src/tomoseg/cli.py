"""Subcommand front-end: every pipeline stage is callable on its own, and
``tomoseg pipeline --config F`` chains them with a reproducible manifest.

Exit codes: 0 success, 2 missing input, 3 stage failure, 4 config parse
error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import attenuation as atn
from . import backend
from . import binarize as bz
from . import descriptors as ds
from . import mergegraph as mg
from . import neuralnet as nn
from . import phantom as ph
from . import prefilter as pf
from . import register as rg
from . import watershed as ws
from .volgrid import BinaryVolume, LabelPlane, extract_slice, load_volume, write_volume

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_STAGE_FAILURE = 3
EXIT_CONFIG_ERROR = 4


class MissingInput(Exception):
    pass


def _load(path):
    if not os.path.exists(path):
        raise MissingInput(path)
    return load_volume(path)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _set_threads(n: int | None) -> None:
    """Bound the kernel worker threads at ``n``; None restores the default
    (the usable CPUs), so a bound from an earlier call does not carry over."""
    backend.set_thread_bound(n)
    if backend.HAVE_NUMBA:
        import numba

        limit = numba.config.NUMBA_NUM_THREADS
        numba.set_num_threads(limit if n is None else min(max(1, n), limit))


# ---------------------------------------------------------------- stages


def stage_phantom(args):
    spec = ph.parse_spec_file(args["spec"]) if "spec" in args else ph.PhantomSpec()
    out_dir = args["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    result = ph.generate(spec)
    outputs = []

    def emit(vol, name):
        path = os.path.join(out_dir, name)
        write_volume(vol, path)
        outputs.extend([path, path + ".meta"])

    emit(result.gray, "gray.raw")
    emit(result.labels, "truth_labels.raw")
    with open(os.path.join(out_dir, "truth_minerals.csv"), "w", encoding="utf-8") as fh:
        fh.write("particle_id,mineral_code\n")
        for p in result.particles:
            fh.write(f"{p.label},{p.mineral_code}\n")
    outputs.append(os.path.join(out_dir, "truth_minerals.csv"))
    for i, sec in enumerate(result.sections, start=1):
        emit(sec.plane, f"section_{i}.raw")
        tpath = os.path.join(out_dir, f"section_{i}_transform.txt")
        res = rg.RegistrationResult(sec.transform, 0, 1.0)
        rg.write_result(res, tpath)
        outputs.append(tpath)
    return outputs


def stage_denoise(args):
    vol = _load(args["in"])
    if "h" in args:
        params = pf.NlmParams(
            h=float(args["h"]),
            sigma=float(args.get("sigma", 1.0)),
            patch_radius=int(args.get("patch", 1)),
            search_radius=int(args.get("search", 5)),
        )
    else:
        params = pf.default_nlm_params(vol)
    out = pf.nonlocal_means(vol, params)
    write_volume(out, args["out"])
    return [args["out"], args["out"] + ".meta"]


def stage_unsharp(args):
    vol = _load(args["in"])
    params = pf.UnsharpParams(
        c=float(args.get("c", 0.75)), blur_sigma=float(args.get("blur_sigma", 2.0))
    )
    out = pf.unsharp_mask(vol, params)
    write_volume(out, args["out"])
    return [args["out"], args["out"] + ".meta"]


def stage_binarize(args):
    vol = _load(args["in"])
    params = bz.SauvolaParams(
        window_radius=int(args.get("window", 15)), k=float(args.get("k", 0.34))
    )
    mask = bz.sauvola_binarize(vol, params)
    radius = float(args.get("open_radius", 1))
    if radius >= 1:
        mask = bz.morphological_opening(mask, radius)
    min_size = int(args.get("min_size", 0))
    if min_size > 1:
        mask = bz.remove_small_components(mask, min_size)
    write_volume(mask, args["out"])
    return [args["out"], args["out"] + ".meta"]


def stage_watershed(args):
    mask = _load(args["mask"])
    params = ws.WatershedParams(
        h_depth=float(args.get("h_depth", 2.0)), connectivity=int(args.get("conn", 26))
    )
    labels = ws.watershed_segment(mask, params)
    write_volume(labels, args["out"])
    return [args["out"], args["out"] + ".meta"]


def stage_merge(args):
    labels = _load(args["labels"])
    gray = _load(args["gray"])
    model = nn.load_model(args["model"])
    lam = float(args.get("lambda", 0.5))
    graph = mg.build_region_graph(labels)
    grad = mg.sobel_gradient_magnitude(gray)
    feats = mg.extract_edge_features(graph, gray, grad, labels)
    weights = {e: nn.forward(model, feats[e]) for e in graph.edges}
    merged = mg.merge_regions(labels, graph, weights, lam)
    write_volume(merged, args["out"])
    return [args["out"], args["out"] + ".meta"]


def stage_edge_features(args):
    """Dump a labeled edge-feature CSV from a watershed result plus the
    phantom ground truth (training data for train-merge)."""
    labels = _load(args["labels"])
    gray = _load(args["gray"])
    truth = _load(args["truth"])
    graph = mg.build_region_graph(labels)
    grad = mg.sobel_gradient_magnitude(gray)
    feats = mg.extract_edge_features(graph, gray, grad, labels)
    train = ph.edge_training_set(truth, labels, graph, feats)
    edge_labels = {e: int(v) for e, v in zip(train.edges, train.labels)}
    mg.features_to_csv(args["out"], graph, feats, edge_labels)
    return [args["out"]]


def stage_train_merge(args):
    edges, x, y = mg.read_features_csv(args["features"])
    cfg = nn.TrainConfig(
        learning_rate=float(args.get("lr", 0.05)),
        epochs=int(args.get("epochs", 2000)),
        batch_size=int(args.get("batch_size", 32)),
        l2_penalty=float(args.get("l2", 1e-4)),
        validation_fraction=float(args.get("validation_fraction", 0.2)),
        rng_seed=int(args.get("seed", 0)),
    )
    if "grid" in args:
        candidates = [int(v) for v in str(args["grid"]).split(",")]
        best_m, model = nn.grid_search(x, y, candidates, cfg)
        print(f"grid search selected {best_m} hidden units")
    else:
        model = nn.train(x, y, int(args.get("hidden", 75)), cfg)
    nn.save_model(model, args["out"])
    return [args["out"]]


def stage_descriptors(args):
    vol = _load(args["labels"])
    spacing = float(args.get("spacing", vol.spacing))
    if "slice" in args:
        axis, idx = str(args["slice"]).split(",")
        plane = extract_slice(vol, axis.strip(), int(idx))
    elif isinstance(vol, LabelPlane):
        plane = vol.data
    else:
        raise ValueError("3D labels need --slice axis,index")
    sections = ds.particles_from_labels(plane, spacing)
    rows, stats = ds.compute_descriptors(sections)
    ds.rows_to_csv(rows, args["out"])
    outputs = [args["out"]]
    if stats.sphericity_clamped or stats.convexity_clamped:
        print(
            f"clamped: sphericity {stats.sphericity_clamped}, convexity {stats.convexity_clamped}"
        )
    if "hist" in args:
        written = ds.export_distributions(rows, int(args.get("bins", 20)), args["hist"])
        outputs.extend(written.values())
    return outputs


def stage_register(args):
    vol = _load(args["vol"])
    plane = _load(args["plane"])
    pyramid = tuple(int(v) for v in str(args.get("pyramid", "4,2,1")).split(","))
    steps = {4: 5.0, 2: 2.5, 1: 1.0}
    opts = rg.RegisterOptions(
        pyramid=pyramid,
        max_iter=int(args.get("max_iter", 200)),
        simplex_step_deg=tuple(steps.get(f, 1.0) for f in pyramid),
    )
    result = rg.register_section(vol, plane, opts)
    rg.write_result(result, args["out"])
    return [args["out"]]


def stage_attenuation_fit(args):
    table = atn.load_mineral_table(args.get("table"))
    if "samples" in args:
        samples = []
        weights = []
        with open(args["samples"], encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "mineral,mean_gray,n_pixels":
                raise ValueError("samples CSV must have header mineral,mean_gray,n_pixels")
            for line in fh:
                name, gray, n = line.strip().split(",")
                m = table.by_name(name)
                samples.append((name, float(gray), m.rho, m.mu_m))
                weights.append(float(n))
    else:
        vol = _load(args["vol"])
        plane = _load(args["plane"])
        transform = rg.read_transform(args["transform"])
        ptv = float(args.get("pixel_to_voxel", plane.spacing / vol.spacing))
        erode_px = int(args.get("erode_px", 0))
        samples = []
        weights = []
        for mineral in table.minerals:
            phase = atn.erode_phase(plane, mineral.code, table, erode_px)
            if len(phase) == 0:
                continue
            mean, n_used, _ = atn.mean_phase_gray(vol, transform, phase, ptv)
            samples.append((mineral.name, mean, mineral.rho, mineral.mu_m))
            weights.append(n_used)
    model = atn.fit_attenuation(samples, weights if args.get("weighted") else None)
    with open(args["out"], "w", encoding="utf-8") as fh:
        fh.write(f"slope = {model.slope!r}\n")
        fh.write(f"intercept = {model.intercept!r}\n")
        fh.write(f"gray_min = {model.gray_min!r}\n")
        fh.write(f"gray_max = {model.gray_max!r}\n")
        fh.write(f"r_squared = {model.r_squared!r}\n")
    return [args["out"]]


def _read_attenuation_model(path) -> atn.AttenuationModel:
    vals = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                k, _, v = line.partition("=")
                vals[k.strip()] = float(v.strip())
    return atn.AttenuationModel(
        vals["slope"], vals["intercept"], vals["gray_min"], vals["gray_max"],
        vals.get("r_squared", float("nan")), (),
    )


def stage_attenuation_predict(args):
    vol = _load(args["vol"])
    mask = _load(args["mask"])
    model = _read_attenuation_model(args["model"])
    pred, flags = atn.predict_map(vol, model, mask)
    pred.astype("<f4").tofile(args["out"])
    flag_vol = BinaryVolume(flags, vol.spacing)
    write_volume(flag_vol, args["out"] + ".flags")
    n = int(flags.sum())
    print(f"{n} masked voxels outside the calibration interval")
    return [args["out"], args["out"] + ".flags", args["out"] + ".flags.meta"]


def stage_attenuation_validate(args):
    vol = _load(args["vol"])
    plane = _load(args["plane"])
    transform = rg.read_transform(args["transform"])
    table = atn.load_mineral_table(args.get("table"))
    model = _read_attenuation_model(args["model"])
    ptv = float(args.get("pixel_to_voxel", plane.spacing / vol.spacing))
    report = atn.validate_section(
        vol, model, transform, plane, table, ptv, erode_px=int(args.get("erode_px", 0))
    )
    atn.write_scatter(report, args["out"])
    if report.skipped:
        print("skipped minerals (absent from section): " + ", ".join(report.skipped))
    if report.rows:
        print(f"max relative error: {report.max_rel_error:.4f}")
    return [args["out"]]


STAGES = {
    "phantom": stage_phantom,
    "denoise": stage_denoise,
    "unsharp": stage_unsharp,
    "binarize": stage_binarize,
    "watershed": stage_watershed,
    "merge": stage_merge,
    "edge-features": stage_edge_features,
    "train-merge": stage_train_merge,
    "descriptors": stage_descriptors,
    "register": stage_register,
    "attenuation-fit": stage_attenuation_fit,
    "attenuation-predict": stage_attenuation_predict,
    "attenuation-validate": stage_attenuation_validate,
}

_STAGE_INPUT_KEYS = ("in", "mask", "labels", "gray", "vol", "plane", "truth",
                     "model", "features", "samples", "transform", "spec")


def run_pipeline(config_path, manifest_path=None) -> int:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(config_path)
        if not read:
            print(f"config not found: {config_path}", file=sys.stderr)
            return EXIT_MISSING_INPUT
    except configparser.Error as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    manifest = []
    manifest_path = manifest_path or config_path + ".manifest.json"
    for section in parser.sections():
        stage_name = section.split()[0]
        if stage_name not in STAGES:
            print(f"config parse error: unknown stage {stage_name!r}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        args = dict(parser.items(section))
        inputs = {}
        for key in _STAGE_INPUT_KEYS:
            if key in args and os.path.exists(str(args[key])):
                inputs[args[key]] = _sha256(args[key])
        t0 = time.time()
        try:
            outputs = STAGES[stage_name](args)
        except MissingInput as exc:
            print(f"stage {section!r}: missing input {exc}", file=sys.stderr)
            return EXIT_MISSING_INPUT
        except Exception as exc:
            print(f"stage {section!r} failed: {exc}", file=sys.stderr)
            return EXIT_STAGE_FAILURE
        manifest.append(
            {
                "stage": section,
                "params": args,
                "inputs": inputs,
                "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
                "seconds": round(time.time() - t0, 3),
            }
        )
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------- argparse


def _add_io(sub, *names):
    for name in names:
        sub.add_argument(f"--{name}", required=True)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tomoseg", description=__doc__)
    p.add_argument(
        "--threads", type=int, default=None, help="bound on kernel worker threads (non-local means)"
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("phantom", help="generate a synthetic ground-truth volume")
    s.add_argument("--spec", required=True)
    s.add_argument("--out-dir", required=True)

    s = sub.add_parser("denoise", help="non-local means")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--h", type=float)
    s.add_argument("--sigma", type=float, default=1.0)
    s.add_argument("--patch", type=int, default=1)
    s.add_argument("--search", type=int, default=5)

    s = sub.add_parser("unsharp", help="unsharp mask edge enhancement")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--c", type=float, default=0.75)
    s.add_argument("--blur-sigma", type=float, default=2.0)

    s = sub.add_parser("binarize", help="local adaptive threshold + opening")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--window", type=int, default=15)
    s.add_argument("--k", type=float, default=0.34)
    s.add_argument("--open-radius", type=float, default=1.0)
    s.add_argument("--min-size", type=int, default=0)

    s = sub.add_parser("watershed", help="marker-based watershed")
    s.add_argument("--mask", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--h-depth", type=float, default=2.0)
    s.add_argument("--conn", type=int, default=26, choices=(6, 26))

    s = sub.add_parser("merge", help="classifier-driven region merge")
    _add_io(s, "labels", "gray", "model", "out")
    s.add_argument("--lambda", dest="lam", type=float, default=0.5)

    s = sub.add_parser("edge-features", help="labeled edge features from ground truth")
    _add_io(s, "labels", "gray", "truth", "out")

    s = sub.add_parser("train-merge", help="train the merge classifier")
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--hidden", type=int, default=75)
    s.add_argument("--grid")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--lr", type=float, default=0.05)
    s.add_argument("--epochs", type=int, default=2000)

    s = sub.add_parser("descriptors", help="per-particle section descriptors")
    s.add_argument("--labels", required=True)
    s.add_argument("--slice")
    s.add_argument("--spacing", type=float)
    s.add_argument("--out", required=True)
    s.add_argument("--hist")
    s.add_argument("--bins", type=int, default=20)

    s = sub.add_parser("register", help="locate a 2D section in the volume")
    _add_io(s, "vol", "plane", "out")
    s.add_argument("--pyramid", default="4,2,1")
    s.add_argument("--max-iter", type=int, default=200)

    s = sub.add_parser("attenuation", help="grayscale-to-attenuation calibration")
    asub = s.add_subparsers(dest="atn_command", required=True)
    f = asub.add_parser("fit")
    f.add_argument("--samples")
    f.add_argument("--vol")
    f.add_argument("--plane")
    f.add_argument("--transform")
    f.add_argument("--table")
    f.add_argument("--weighted", action="store_true")
    f.add_argument("--erode-px", type=int, default=0)
    f.add_argument("--out", required=True)
    pr = asub.add_parser("predict")
    _add_io(pr, "vol", "mask", "model", "out")
    v = asub.add_parser("validate")
    _add_io(v, "vol", "plane", "transform", "model", "out")
    v.add_argument("--table")
    v.add_argument("--erode-px", type=int, default=0)

    s = sub.add_parser("pipeline", help="run a staged pipeline with a manifest")
    s.add_argument("--config", required=True)
    s.add_argument("--manifest")
    return p


def _ns_to_args(ns: argparse.Namespace, mapping: dict) -> dict:
    args = {}
    for key, attr in mapping.items():
        val = getattr(ns, attr, None)
        if val is not None:
            args[key] = val
    return args


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    _set_threads(ns.threads)
    try:
        if ns.command == "pipeline":
            return run_pipeline(ns.config, ns.manifest)
        if ns.command == "phantom":
            stage_phantom({"spec": ns.spec, "out_dir": ns.out_dir})
        elif ns.command == "denoise":
            args = _ns_to_args(ns, {"in": "infile", "out": "out", "h": "h", "sigma": "sigma",
                                    "patch": "patch", "search": "search"})
            stage_denoise(args)
        elif ns.command == "unsharp":
            stage_unsharp(_ns_to_args(ns, {"in": "infile", "out": "out", "c": "c",
                                           "blur_sigma": "blur_sigma"}))
        elif ns.command == "binarize":
            stage_binarize(_ns_to_args(ns, {"in": "infile", "out": "out", "window": "window",
                                            "k": "k", "open_radius": "open_radius",
                                            "min_size": "min_size"}))
        elif ns.command == "watershed":
            stage_watershed(_ns_to_args(ns, {"mask": "mask", "out": "out", "h_depth": "h_depth",
                                             "conn": "conn"}))
        elif ns.command == "merge":
            stage_merge(_ns_to_args(ns, {"labels": "labels", "gray": "gray", "model": "model",
                                         "out": "out", "lambda": "lam"}))
        elif ns.command == "edge-features":
            stage_edge_features(_ns_to_args(ns, {"labels": "labels", "gray": "gray",
                                                 "truth": "truth", "out": "out"}))
        elif ns.command == "train-merge":
            args = _ns_to_args(ns, {"features": "features", "out": "out", "hidden": "hidden",
                                    "grid": "grid", "seed": "seed", "lr": "lr",
                                    "epochs": "epochs"})
            stage_train_merge(args)
        elif ns.command == "descriptors":
            args = _ns_to_args(ns, {"labels": "labels", "slice": "slice", "spacing": "spacing",
                                    "out": "out", "hist": "hist", "bins": "bins"})
            stage_descriptors(args)
        elif ns.command == "register":
            stage_register(_ns_to_args(ns, {"vol": "vol", "plane": "plane", "out": "out",
                                            "pyramid": "pyramid", "max_iter": "max_iter"}))
        elif ns.command == "attenuation":
            mapping = {"samples": "samples", "vol": "vol", "plane": "plane",
                       "transform": "transform", "table": "table", "weighted": "weighted",
                       "mask": "mask", "model": "model", "out": "out",
                       "erode_px": "erode_px"}
            args = _ns_to_args(ns, mapping)
            if ns.atn_command == "fit":
                stage_attenuation_fit(args)
            elif ns.atn_command == "predict":
                stage_attenuation_predict(args)
            else:
                stage_attenuation_validate(args)
        else:  # pragma: no cover
            parser.error(f"unhandled command {ns.command}")
    except MissingInput as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
