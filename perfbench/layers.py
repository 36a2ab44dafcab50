"""Per-layer metrics: which span or probe each one is read from.

Span names are ``<module>.<function>`` (``<module>.<Class>.<method>``) with
the ``tomoseg.`` prefix dropped, so kernels appear as ``_kernels.<file>.<fn>``.
Spans named ``bench.*`` are opened by the workloads themselves around a
block of calls. Every metric is reported on every workload; a layer that a
workload never enters reads 0.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from tracing import subtree, summarize


def _nlm(c, result, a):
    c["prefilter.nlm_pairs"] += a["vol"].data.size * (2 * a["params"].search_radius + 1) ** 3


def _segment(c, result, a):
    c["watershed.fg_voxels"] += int(a["mask"].data.sum())


def _flood(c, result, a):
    height, mask = a["height"], a["mask"]
    c["watershed.levels"] += len(np.unique(height[mask]))
    c["watershed.markers"] += int(a["markers"].max()) if a["markers"].size else 0


def _graph(c, result, a):
    c["mergegraph.edges"] += len(result.edges)


def _merge(c, result, a):
    edges = a["graph"].edges
    c["merge.contracted"] += sum(1 for e in edges if a["weights"][e] >= a["lam"])
    c["merge.weighed"] += len(edges)


def _train(c, result, a):
    c["neuralnet.train_edges"] += len(a["y"])


def _descriptors(c, result, a):
    c["descriptors.sections"] += len(result[0])


def _rotate(c, result, a):
    c["rotate.voxels"] += result.size


def _solve(c, result, a):
    c["solve.voxels"] += a["vol"].size


def _register(c, result, a):
    c["register.evals"] += len(result.trace)
    prev = c.get("register.normalized_overlap")
    ov = float(result.normalized_overlap)
    c["register.normalized_overlap"] = ov if prev is None else min(prev, ov)


def _predict(c, result, a):
    c["attenuation.out_of_range"] += int(result[1].sum())


def _load(c, result, a):
    c["volgrid.bytes_read"] += os.path.getsize(a["path"])


def _write(c, result, a):
    c["volgrid.bytes_written"] += os.path.getsize(a["path"])


PROBES = {
    "prefilter.nonlocal_means": _nlm,
    "watershed.watershed_segment": _segment,
    "_kernels.flood.priority_flood": _flood,
    "mergegraph.build_region_graph": _graph,
    "mergegraph.merge_regions": _merge,
    "neuralnet.train": _train,
    "descriptors.compute_descriptors": _descriptors,
    "_kernels.rotate.rotate_nearest": _rotate,
    "register.TranslationSolver.solve": _solve,
    "register.register_section": _register,
    "attenuation.predict_map": _predict,
    "volgrid.load_volume": _load,
    "volgrid.write_volume": _write,
}

# metric -> span whose total time it reports, optionally only inside a span
# of a second name
TIMES = {
    "prefilter.nlm_s": "prefilter.nonlocal_means",
    "prefilter.unsharp_s": "prefilter.unsharp_mask",
    "binarize.sauvola_s": "binarize.sauvola_binarize",
    "binarize.opening_s": "binarize.morphological_opening",
    "binarize.small_s": "binarize.remove_small_components",
    "binarize.edt_s": "_kernels.edt.edt",
    "watershed.segment_s": "watershed.watershed_segment",
    "watershed.recon_s": "_kernels.recon.reconstruct_erosion",
    "watershed.minima_s": "_kernels.recon.regional_minima",
    "watershed.cc_s": ("_kernels.cc.connected_components_mask", "watershed.watershed_segment"),
    "watershed.flood_s": "_kernels.flood.priority_flood",
    "mergegraph.graph_s": "mergegraph.build_region_graph",
    "mergegraph.sobel_s": "mergegraph.sobel_gradient_magnitude",
    "mergegraph.features_s": "mergegraph.extract_edge_features",
    "mergegraph.merge_s": "mergegraph.merge_regions",
    "neuralnet.train_s": "neuralnet.train",
    "neuralnet.forward_s": "neuralnet.forward",
    "descriptors.particles_s": "descriptors.particles_from_labels",
    "descriptors.compute_s": "descriptors.compute_descriptors",
    "register.section_s": "register.register_section",
    "register.rotate_s": "_kernels.rotate.rotate_nearest",
    "register.solve_s": "register.TranslationSolver.solve",
    "register.polish_s": ("register.direct_overlap", "register.register_section"),
    "attenuation.fit_s": "bench.calibrate",
    "attenuation.validate_s": "attenuation.validate_section",
    "attenuation.predict_s": "attenuation.predict_map",
    "volgrid.read_s": "volgrid.load_volume",
    "volgrid.write_s": "volgrid.write_volume",
}

CALLS = {
    "binarize.edt_calls": "_kernels.edt.edt",
    "register.rotate_calls": "_kernels.rotate.rotate_nearest",
    "register.solve_calls": "register.TranslationSolver.solve",
}

COUNTS = (
    "prefilter.nlm_pairs",
    "watershed.fg_voxels",
    "watershed.levels",
    "watershed.markers",
    "mergegraph.edges",
    "neuralnet.train_edges",
    "descriptors.sections",
    "register.evals",
    "register.normalized_overlap",
    "attenuation.out_of_range",
    "volgrid.bytes_read",
    "volgrid.bytes_written",
)

# layers whose self time is reported as <layer>.self_s; "kernels" is _kernels/
SELF_LAYERS = (
    "phantom", "prefilter", "binarize", "watershed", "mergegraph", "neuralnet",
    "descriptors", "register", "attenuation", "volgrid", "cli", "kernels",
)

CLI_STAGES = (
    "denoise", "unsharp", "binarize", "watershed", "edge-features", "train-merge",
    "merge", "descriptors",
)

QUALITY = (
    "ari", "count_err", "reg_angle_err_deg", "reg_shift_err_vox", "slope_err", "heldout_err",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_deg"):
        return "deg"
    if name.endswith("_vox"):
        return "voxel"
    if name.endswith(("_fraction", "normalized_overlap", "coverage")) or name.startswith("quality."):
        return "ratio"
    if name.startswith("volgrid.bytes"):
        return "B"
    return "count"


def metric_names() -> list[str]:
    names = ["phantom.generate_s"]
    names += list(TIMES) + list(CALLS) + list(COUNTS)
    names += ["mergegraph.merge_fraction", "register.full_resolves", "register.band_fraction"]
    names += [f"cli.{s}_s" for s in CLI_STAGES] + ["cli.overhead_s"]
    names += [f"{layer}.self_s" for layer in SELF_LAYERS]
    names += [f"quality.{q}" for q in QUALITY]
    names += ["trace.wall_s", "trace.coverage", "trace.spans", "trace.overhead_s"]
    return names


HIGHER_IS_BETTER = ("quality.ari", "register.normalized_overlap", "trace.coverage")


def declared() -> list[dict]:
    """The per_layer entries of BENCHMARK.json."""
    return [
        {"name": n, "unit": _unit(n), "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
        for n in metric_names()
    ]


def _layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return "kernels" if head == "_kernels" else head


def _time_within(spans, root, name, ancestor) -> float:
    """Total time of ``name`` spans that have an ``ancestor`` span above them."""
    total = 0.0
    for idx in subtree(spans, root):
        span = spans[idx]
        if span[0] != name:
            continue
        parent = span[3]
        while parent > root and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent > root:
            total += span[2] - span[1]
    return total


def pass_metrics(spans, root, counts, wall, stage_seconds, quality, span_cost) -> dict:
    """Per-layer values of one traced pass over every instance, rooted at
    span index ``root``; times and counts are sums over the instances,
    quality numbers their medians."""
    totals, selfs, calls, covered = summarize(spans, root)
    out = {}
    for metric, source in TIMES.items():
        if isinstance(source, tuple):
            out[metric] = _time_within(spans, root, *source)
        else:
            out[metric] = totals[source]
    for metric, source in CALLS.items():
        out[metric] = calls[source]
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    weighed = counts.get("merge.weighed", 0)
    out["mergegraph.merge_fraction"] = counts.get("merge.contracted", 0) / weighed if weighed else 0.0
    # every lattice evaluation solves once on its z-band; a polish evaluation
    # calls direct_overlap instead; any solve beyond those re-solves the
    # full height after the band edge won
    polish_evals = calls["register.direct_overlap"]
    lattice_evals = out["register.evals"] - polish_evals
    out["register.full_resolves"] = max(0, calls["register.TranslationSolver.solve"] - lattice_evals)
    rotated = counts.get("rotate.voxels", 0)
    out["register.band_fraction"] = counts.get("solve.voxels", 0) / rotated if rotated else 0.0
    for stage in CLI_STAGES:
        out[f"cli.{stage}_s"] = stage_seconds.get(stage, 0.0)
    out["cli.overhead_s"] = wall - sum(stage_seconds.values()) if stage_seconds else 0.0
    self_by_layer = dict.fromkeys(SELF_LAYERS, 0.0)
    for name, value in selfs.items():
        layer = _layer_of(name)
        if layer in self_by_layer:
            self_by_layer[layer] += value
    for layer, value in self_by_layer.items():
        out[f"{layer}.self_s"] = value
    for q in QUALITY:
        out[f"quality.{q}"] = quality.get(q, 0.0)
    n_spans = sum(calls.values())
    out["trace.wall_s"] = wall
    # share of the pass spent inside tomoseg calls made by the benchmark
    out["trace.coverage"] = covered / wall if wall > 0 else 0.0
    out["trace.spans"] = n_spans
    out["trace.overhead_s"] = n_spans * span_cost
    return out


def setup_metrics(spans, roots) -> dict:
    """phantom.generate_s: median over the instance builds."""
    per_setup = [summarize(spans, root)[0]["phantom.generate"] for root in roots]
    return {"phantom.generate_s": statistics.median(per_setup)}
