"""Subcommand front-end: every pipeline stage is callable on its own, and
``tomoseg pipeline --config F`` chains them with a reproducible manifest.
Both read a stage's parameters from its function's keyword signature.

Exit codes: 0 success, 2 missing input, 3 stage failure, 4 bad config or value.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import inspect
import json
import os
import resource
import sys
import time
import typing
from typing import NewType

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
from .volgrid import (
    BinaryVolume, LabelPlane, LabelVolume, ScalarVolume, _atomic_files, _element_of,
    _encode_volume, extract_slice, finite_float, load_volume, read_table, read_value, write_table,
    write_volume,
)

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_STAGE_FAILURE = 3
EXIT_CONFIG_ERROR = 4

Input = NewType("Input", str)


class ConfigError(Exception):
    pass


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- stages

# what a stage reads each container as
_NEEDS = {ScalarVolume: "u16 gray", BinaryVolume: "bit mask", LabelVolume: "u32 labels",
          LabelPlane: "u8 section"}


def _load(path, *kinds):
    """The volume at ``path``; ValueError naming the element it holds unless
    it is one of the containers ``kinds``."""
    vol = load_volume(path)
    if not isinstance(vol, kinds):
        need = " or ".join(_NEEDS[kind] for kind in kinds)
        raise ValueError(f"{path} holds {_element_of(vol)} voxels, needs {need}")
    return vol


def stage_phantom(*, out_dir: str, spec: Input | None = None):
    """generate a synthetic ground-truth volume"""
    spec = ph.parse_spec_file(spec) if spec is not None else ph.PhantomSpec()
    os.makedirs(out_dir, exist_ok=True)
    result = ph.generate(spec)
    outputs = []

    def emit(vol, name):
        path = os.path.join(out_dir, name)
        write_volume(vol, path)
        outputs.extend([path, path + ".meta"])

    emit(result.gray, "gray.raw")
    emit(result.labels, "truth_labels.raw")
    truth = os.path.join(out_dir, "truth_minerals.csv")
    write_table(truth, "particle_id,mineral_code",
                ((p.label, p.mineral_code) for p in result.particles))
    outputs.append(truth)
    for i, sec in enumerate(result.sections, start=1):
        emit(sec.plane, f"section_{i}.raw")
        tpath = os.path.join(out_dir, f"section_{i}_transform.txt")
        res = rg.RegistrationResult(sec.transform, 0, 1.0)
        rg.write_result(res, tpath)
        outputs.append(tpath)
    return outputs


def stage_denoise(*, in_: Input, out: str, h: float | None = None,
                  sigma: float = pf.NlmParams.sigma, patch: int = pf.NlmParams.patch_radius,
                  search: int = pf.NlmParams.search_radius):
    """non-local means (without h: strength from the noise estimate)"""
    vol = _load(in_, ScalarVolume)
    if h is None:
        h = pf.default_nlm_params(vol).h
    params = pf.NlmParams(h=h, sigma=sigma, patch_radius=patch, search_radius=search)
    write_volume(pf.nonlocal_means(vol, params), out)
    return [out, out + ".meta"]


def stage_unsharp(*, in_: Input, out: str, c: float = pf.UnsharpParams.c,
                  blur_sigma: float = pf.UnsharpParams.blur_sigma):
    """unsharp mask edge enhancement"""
    vol = _load(in_, ScalarVolume)
    write_volume(pf.unsharp_mask(vol, pf.UnsharpParams(c=c, blur_sigma=blur_sigma)), out)
    return [out, out + ".meta"]


def stage_binarize(*, in_: Input, out: str, window: int = bz.SauvolaParams.window_radius,
                   k: float = bz.SauvolaParams.k, open_radius: float = 1.0, min_size: int = 0):
    """local adaptive threshold + opening"""
    vol = _load(in_, ScalarVolume)
    mask = bz.sauvola_binarize(vol, bz.SauvolaParams(window_radius=window, k=k))
    if open_radius >= 1:
        mask = bz.morphological_opening(mask, open_radius)
    mask = bz.remove_small_components(mask, min_size)
    write_volume(mask, out)
    return [out, out + ".meta"]


def stage_watershed(*, mask: Input, out: str, h_depth: float = ws.WatershedParams.h_depth,
                    conn: int = ws.WatershedParams.connectivity):
    """marker-based watershed (conn: 6 or 26)"""
    params = ws.WatershedParams(h_depth=h_depth, connectivity=conn)
    labels = ws.watershed_segment(_load(mask, BinaryVolume), params)
    write_volume(labels, out)
    return [out, out + ".meta"]


def _check_same_grid(first, *others):
    """Raise ValueError naming both files unless every (path, volume) pair
    has the dims and the voxel spacing of the first."""
    path0, vol0 = first
    for path, vol in others:
        if vol.dims != vol0.dims:
            raise ValueError(f"dims (x, y, z) differ: {path0} is {vol0.dims}, {path} is {vol.dims}")
        if vol.spacing != vol0.spacing:
            raise ValueError(f"voxel spacing (um) differs: {path0} is {vol0.spacing}, "
                             f"{path} is {vol.spacing}")


def _edge_features(labels, gray, *others):
    """The region graph and edge features of ``labels`` on ``gray``; the
    ``(path, volume)`` pairs in ``others`` must share their grid too."""
    label_vol = _load(labels, LabelVolume)
    gray_vol = _load(gray, ScalarVolume)
    _check_same_grid((labels, label_vol), (gray, gray_vol), *others)
    graph = mg.build_region_graph(label_vol)
    return label_vol, graph, mg.extract_edge_features(graph, gray_vol, label_vol)


def stage_merge(*, labels: Input, gray: Input, model: Input, out: str, lambda_: float = 0.5):
    """classifier-driven region merge"""
    mlp = nn.load_model(model)
    label_vol, graph, feats = _edge_features(labels, gray)
    weights = {e: nn.forward(mlp, feats[e]) for e in graph.edges}
    merged = mg.merge_regions(label_vol, graph, weights, lambda_)
    write_volume(merged, out)
    return [out, out + ".meta"]


def stage_edge_features(*, labels: Input, gray: Input, truth: Input, out: str):
    """labeled edge features from ground truth (training data for train-merge)"""
    truth_vol = _load(truth, LabelVolume)
    label_vol, graph, feats = _edge_features(labels, gray, (truth, truth_vol))
    train = ph.edge_training_set(truth_vol, label_vol, graph, feats)
    edge_labels = {e: int(v) for e, v in zip(train.edges, train.labels)}
    mg.features_to_csv(out, graph, feats, edge_labels)
    return [out]


def stage_train_merge(*, features: Input, out: str, hidden: int = 75,
                      grid: tuple[int, ...] | None = None, seed: int = nn.TrainConfig.rng_seed,
                      lr: float = nn.TrainConfig.learning_rate,
                      epochs: int = nn.TrainConfig.epochs,
                      batch_size: int = nn.TrainConfig.batch_size,
                      l2: float = nn.TrainConfig.l2_penalty,
                      validation_fraction: float = nn.TrainConfig.validation_fraction):
    """train the merge classifier (grid: comma-separated hidden sizes to search)"""
    edges, x, y = mg.read_features_csv(features)
    cfg = nn.TrainConfig(
        learning_rate=lr, epochs=epochs, batch_size=batch_size, l2_penalty=l2,
        validation_fraction=validation_fraction, rng_seed=seed,
    )
    if grid is not None:
        best_m, model = nn.grid_search(x, y, grid, cfg)
        print(f"grid search selected {best_m} hidden units")
    else:
        model = nn.train(x, y, hidden, cfg)
    nn.save_model(model, out)
    return [out]


def stage_descriptors(*, labels: Input, out: str, slice_: tuple[str, int] | None = None,
                      spacing: float | None = None, hist: str | None = None, bins: int = 20):
    """per-particle section descriptors (slice: axis,index of a 3D volume)"""
    vol = _load(labels, LabelVolume, LabelPlane)
    spacing = float(vol.spacing) if spacing is None else spacing
    if slice_ is not None:
        plane = extract_slice(vol, *slice_)
    elif isinstance(vol, LabelPlane):
        plane = vol.data
    else:
        raise ValueError("3D labels need --slice axis,index")
    sections = ds.particles_from_labels(plane, spacing)
    rows, stats = ds.compute_descriptors(sections)
    ds.rows_to_csv(rows, out)
    outputs = [out]
    if stats.sphericity_clamped or stats.convexity_clamped:
        print(
            f"clamped: sphericity {stats.sphericity_clamped}, convexity {stats.convexity_clamped}"
        )
    if hist is not None:
        outputs.extend(ds.export_distributions(rows, bins, hist).values())
    return outputs


def stage_register(*, vol: Input, plane: Input, out: str,
                   pyramid: tuple[int, ...] = rg.RegisterOptions.pyramid,
                   max_iter: int = rg.RegisterOptions.max_iter):
    """locate a 2D section in the volume
    (max_iter caps the simplex of each pyramid level but the last, 1, which
    only scores the carried optima before the polish; pyramid 1: seed grid,
    then polish)"""
    opts = rg.RegisterOptions(pyramid=pyramid, max_iter=max_iter)
    result = rg.register_section(_load(vol, BinaryVolume), _load(plane, BinaryVolume), opts)
    rg.write_result(result, out)
    return [out]


def _read_samples(path, mineral_table):
    """Fit samples and pixel counts from a mineral,mean_gray,n_pixels CSV
    (``read_table``); an unknown mineral is a bad line too."""
    def mineral(name):
        try:
            return mineral_table.by_name(name)
        except KeyError:
            raise ValueError(f"unknown mineral {name!r}") from None

    rows = [values for _, values in read_table(path, "mineral,mean_gray,n_pixels",
                                                (mineral, finite_float, finite_float))]
    return [(m.name, gray, m.rho, m.mu_m) for m, gray, _ in rows], [n for _, _, n in rows]


def stage_attenuation_fit(*, out: str, samples: Input | None = None, vol: Input | None = None,
                          plane: Input | None = None, transform: Input | None = None,
                          table: Input | None = None, weighted: bool = False, erode_px: int = 0,
                          pixel_to_voxel: float | None = None):
    """fit the gray-to-rho*mu_m line from samples, or from vol, plane and transform"""
    mineral_table = atn.load_mineral_table(table)
    if samples is not None:
        fit_samples, weights = _read_samples(samples, mineral_table)
    elif vol is None or plane is None or transform is None:
        raise ValueError("attenuation fit needs samples, or vol, plane and transform")
    else:
        gray_vol = _load(vol, ScalarVolume)
        section = _load(plane, LabelPlane)
        ptv = section.spacing / gray_vol.spacing if pixel_to_voxel is None else pixel_to_voxel
        means, _ = atn.phase_means(gray_vol, rg.read_transform(transform), section,
                                   mineral_table, ptv, erode_px)
        fit_samples = [(m.name, mean, m.rho, m.mu_m) for m, mean, _ in means]
        weights = [n_used for _, _, n_used in means]
    model = atn.fit_attenuation(fit_samples, weights if weighted else None)
    atn.save_model(model, out)
    return [out]


def stage_attenuation_predict(*, vol: Input, mask: Input, model: Input, out: str):
    """map rho*mu_m over a mask, flagging voxels outside the calibration"""
    gray_vol, mask_vol = _load(vol, ScalarVolume), _load(mask, BinaryVolume)
    _check_same_grid((vol, gray_vol), (mask, mask_vol))
    pred, flags = atn.predict_map(gray_vol, atn.load_model(model), mask_vol)
    # the payload, the flags and their sidecar are renamed into place together
    flags_payload, flags_meta = _encode_volume(BinaryVolume(flags, gray_vol.spacing))
    with _atomic_files(out, out + ".flags", out + ".flags.meta") as (fh, flags_fh, meta_fh):
        pred.astype("<f4", copy=False).tofile(fh)
        flags_fh.write(flags_payload)
        meta_fh.write(flags_meta)
    n = int(flags.sum())
    print(f"{n} masked voxels outside the calibration interval")
    return [out, out + ".flags", out + ".flags.meta"]


def stage_attenuation_validate(*, vol: Input, plane: Input, transform: Input, model: Input,
                               out: str, table: Input | None = None, erode_px: int = 0,
                               pixel_to_voxel: float | None = None):
    """check a fitted line against a second section"""
    gray_vol = _load(vol, ScalarVolume)
    section = _load(plane, LabelPlane)
    ptv = section.spacing / gray_vol.spacing if pixel_to_voxel is None else pixel_to_voxel
    report = atn.validate_section(
        gray_vol, atn.load_model(model), rg.read_transform(transform), section,
        atn.load_mineral_table(table), ptv, erode_px=erode_px,
    )
    atn.write_scatter(report, out)
    if report.skipped:
        print("skipped minerals (absent from section): " + ", ".join(report.skipped))
    if report.rows:
        print(f"max relative error: {report.max_rel_error:.4f}")
    return [out]


# "stage_edge_features" is the stage "edge-features"
STAGES = {name.removeprefix("stage_").replace("_", "-"): fn
          for name, fn in globals().items() if name.startswith("stage_")}


@functools.cache
def _params(fn) -> tuple[tuple[str, inspect.Parameter], ...]:
    """(key, parameter) pairs of a stage with ``X | None`` annotations unwrapped.
    The key (INI key, argparse dest) is the keyword less a trailing underscore;
    flags spell it with dashes. No default means required, a ``bool`` is a
    switch on the command line, and ``Input`` marks a path the manifest hashes."""
    hints = typing.get_type_hints(fn)
    params = []
    for name, prm in inspect.signature(fn).parameters.items():
        tp = hints[name]
        if type(None) in typing.get_args(tp):
            (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
        params.append((name.removesuffix("_"), prm.replace(annotation=tp)))
    return tuple(params)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _bind(fn, values: dict, name=lambda key: f"key {key!r}") -> dict:
    """Keyword arguments for ``fn`` from flag or INI texts keyed by key, read
    by ``read_value`` (a set switch is True); an absent key takes its default.
    ConfigError names an unknown or missing key, or a bad value's ``name``."""
    params = dict(_params(fn))
    unknown = sorted(set(values) - set(params))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    kwargs = {}
    for key, prm in params.items():
        tp = prm.annotation
        if key not in values:
            if prm.default is prm.empty:
                raise ConfigError(f"missing key {key!r}")
            kwargs[prm.name] = prm.default
            continue
        value = values[key]
        try:
            kwargs[prm.name] = read_value(tp, value) if isinstance(value, str) else value
        except ValueError as exc:
            raise ConfigError(f"{name(key)}: cannot read {value!r}: {exc}") from None
    return kwargs


def _input_paths(fn, kwargs: dict) -> list[str]:
    """The Input paths a call of ``fn`` reads, each checked to exist."""
    paths = [kwargs[prm.name] for _, prm in _params(fn)
             if prm.annotation is Input and kwargs[prm.name] is not None]
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"no such file: {path}")
    return paths


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
        fn = STAGES.get(section.split()[0])
        if fn is None:
            print(f"config parse error: unknown stage {section.split()[0]!r}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        try:
            kwargs = _bind(fn, dict(parser.items(section)))
        except ConfigError as exc:
            print(f"config parse error: stage {section!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        try:
            paths = [p for path in _input_paths(fn, kwargs) for p in (path, path + ".meta")]
            inputs = {p: _sha256(p) for p in paths if os.path.exists(p)}
            t0, cpu0 = time.perf_counter(), time.process_time()
            outputs = fn(**kwargs)
            seconds, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
            max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except FileNotFoundError as exc:
            print(f"stage {section!r}: missing input {exc}", file=sys.stderr)
            return EXIT_MISSING_INPUT
        except Exception as exc:
            print(f"stage {section!r} failed: {exc}", file=sys.stderr)
            return EXIT_STAGE_FAILURE
        manifest.append(
            {
                "stage": section,
                "params": {key: kwargs[prm.name] for key, prm in _params(fn)},
                "inputs": inputs,
                "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
                "seconds": round(seconds, 3),
                "cpu_s": round(cpu_s, 3),
                "max_rss_mb": round(max_rss_mb, 1),
            }
        )
    with _atomic_files(manifest_path) as (fh,):
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return EXIT_OK


# ---------------------------------------------------------------- argparse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tomoseg", description=__doc__)
    p.add_argument(
        "--threads", type=int, default=None, help="bound on kernel worker threads (non-local means)"
    )
    sub = p.add_subparsers(dest="command", required=True)
    s = sub.add_parser("attenuation", help="grayscale-to-attenuation calibration")
    atn_sub = s.add_subparsers(dest="atn_command", required=True)
    for name, fn in STAGES.items():
        group = atn_sub if name.startswith("attenuation-") else sub
        doc = inspect.getdoc(fn)
        s = group.add_parser(name.removeprefix("attenuation-"), help=doc.splitlines()[0],
                             description=doc, argument_default=argparse.SUPPRESS)
        s.set_defaults(stage=fn)
        for key, prm in _params(fn):
            if prm.annotation is bool:
                s.add_argument(_flag(key), dest=key, action="store_true")
            else:
                s.add_argument(_flag(key), dest=key, required=prm.default is prm.empty)

    s = sub.add_parser("pipeline", help="run a staged pipeline with a manifest")
    s.add_argument("--config", required=True)
    s.add_argument("--manifest")
    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    backend.set_thread_bound(ns.threads)  # None lifts an earlier call's bound
    try:
        if ns.command == "pipeline":
            return run_pipeline(ns.config, ns.manifest)
        fn = ns.stage
        kwargs = _bind(fn, {key: getattr(ns, key) for key, _ in _params(fn) if hasattr(ns, key)},
                       _flag)
        _input_paths(fn, kwargs)
        fn(**kwargs)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR if isinstance(exc, ConfigError) else EXIT_STAGE_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
