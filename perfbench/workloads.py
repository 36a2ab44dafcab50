"""The benchmark workloads.

A workload runs its chain on several independent instances, so that one
run's median is not hostage to one phantom. Each workload has
``setup(stream, workdir)``, which builds one instance's inputs (timed as
set-up); ``run(inputs, tr)``, the timed chain through tomoseg's public
calls; and ``check(inputs, outputs)``, which scores the outputs against
phantom ground truth and returns a ``Verdict``. ``tr`` opens the
benchmark's own spans around blocks of calls that are not one tomoseg
function.

Every tomoseg call goes through a module attribute (``binarize.x``, never a
name imported from it), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from tomoseg import attenuation, binarize, cli, phantom, register, volgrid


@dataclass
class Verdict:
    """An instance's outputs scored against ground truth. ``quality["score"]`` is
    the end-to-end quality metric; ``stage_seconds`` is the pipeline
    manifest's per-stage time (cli only)."""

    passed: bool
    quality: dict
    fingerprint: str
    stage_seconds: dict = field(default_factory=dict)


def phantom_seed(base: int, stream: int) -> int:
    """Seed of one phantom: ``base`` for stream 0 (instance 0 of workload
    seed 0), disjoint seeds for other streams."""
    return (base + 1000 * stream) % 2**32


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _ari_on_foreground(labels: np.ndarray, truth: np.ndarray) -> float:
    both = (labels > 0) & (truth > 0)
    return phantom.adjusted_rand_index(labels[both], truth[both])


# ------------------------------------------------------------------ register
# The acceptance criterion-8 chain: binarize, register two mineral sections,
# calibrate on the first, validate on the second, predict the attenuation
# map. Rotation and the FFT translation solve dominate; no watershed. The
# packing is denser than criterion 8's (500 particles of 20-35 um in 96^3).
# A mineral cut by the section only in slivers thinner than the boundary
# band has no interior: erode_phase then falls back to the whole sliver,
# whose mean is boundary-biased (stream 1406340887: muscovite in four
# slivers, slope off by 39%). Calibration skips such phases, as it skips
# phases under 50 pixels. validate_section has the same fallback and is
# called as it is, so a held-out mineral cut only in slivers still trips the
# gate (stream 2144573592: kaolinite, about 1 stream in 300). Registration
# errors of a degree or more trip it more often; see README.md.

REG_DIMS = (96, 96, 96)
REG_COUNT = 500
REG_INSTANCES = 3
REG_SIZE = (20.0, 35.0)


def reg_setup(stream: int, workdir: str):
    table = attenuation.load_mineral_table()
    spec = phantom.PhantomSpec(
        dims=REG_DIMS, count=REG_COUNT, size_range_um=REG_SIZE, aspect_range=(1.0, 2.0),
        elongated_fraction=0.0, noise_std=400.0, rng_seed=phantom_seed(88, stream), n_sections=2,
        contact_fraction=0.2, section_max_angle_deg=3.0, section_max_shift=8.0,
        section_extent=0.95,
        mineral_fractions={"quartz": 0.3, "kaolinite": 0.15, "muscovite": 0.15,
                           "zinnwaldite": 0.25, "topaz": 0.15},
    )
    out = phantom.generate(spec, table)
    planes = [
        phantom.section_to_voxel_mask(sec.plane, out.pixel_to_voxel, spec.spacing).data[0]
        for sec in out.sections
    ]
    return out, planes, table, workdir


def reg_run(inputs, tr):
    out, planes, table, _ = inputs
    mask = binarize.sauvola_binarize(out.gray, binarize.SauvolaParams())
    mask = binarize.morphological_opening(mask, 1.0)
    mask = binarize.remove_small_components(mask, 30)
    results = [register.register_section(mask, plane) for plane in planes]
    # calibrate on section 1; phases lose a one-voxel boundary band so the
    # sub-voxel registration residual cannot leak background into the means
    erode_px = int(round(1.5 / out.pixel_to_voxel))
    with tr.span("bench.calibrate"):
        samples = []
        plane = out.sections[0].plane
        for mineral in table.minerals:
            phase = attenuation.erode_phase(plane, mineral.code, table, erode_px)
            full = attenuation.extract_phase(plane, mineral.code, table)
            if len(phase) < 50 or len(phase) == len(full):  # small, or no interior
                continue
            mean, _, _ = attenuation.mean_phase_gray(
                out.gray, results[0].transform, phase, out.pixel_to_voxel
            )
            samples.append((mineral.name, mean, mineral.rho, mineral.mu_m))
        model = attenuation.fit_attenuation(samples)
    report = attenuation.validate_section(
        out.gray, model, results[1].transform, out.sections[1].plane, table,
        out.pixel_to_voxel, erode_px=erode_px,
    )
    prediction = attenuation.predict_map(out.gray, model, mask)
    return results, samples, model, report, prediction


def reg_check(inputs, outputs):
    out, _, _, workdir = inputs
    results, samples, model, report, _ = outputs
    a_gen, _ = out.instrument_line
    slope_err = abs(model.slope - 1.0 / a_gen) / (1.0 / a_gen)
    heldout_err = report.max_rel_error if report.rows else math.inf
    angle_err = shift_err = 0.0
    texts = []
    for res, sec in zip(results, out.sections):
        angle_err = max(
            angle_err,
            *(abs(math.degrees(a - b)) for a, b in zip(res.transform.angles, sec.transform.angles)),
        )
        shift_err = max(
            shift_err,
            *(abs(a - b) for a, b in zip(res.transform.translation, sec.transform.translation)),
        )
        path = os.path.join(workdir, "transform.txt")
        register.write_result(res, path)
        with open(path, "rb") as fh:
            texts.append(fh.read())
    quality = {
        "slope_err": slope_err,
        "heldout_err": heldout_err,
        "reg_angle_err_deg": angle_err,
        "reg_shift_err_vox": shift_err,
        "score": 1.0 - heldout_err,
    }
    passed = len(samples) >= 3 and slope_err <= 0.03 and heldout_err <= 0.05
    return Verdict(passed, quality, _sha256(*texts))


# ------------------------------------------------------------------ cli
# ``tomoseg pipeline`` through cli.main on a phantom written by the phantom
# stage: non-local means, unsharp masking, watershed on a smooth denoised
# mask with few distinct heights, the edge classifier, descriptors, volume
# file I/O and the manifest's hashing. Particles of 36-56 um place for every
# stream tried (0-149); 45-70 um fails on about 4 in 10. Half the particles
# touch another: at the default 0.3, stream 42 gave train-merge too few
# different-particle edges and the stage failed.

CLI_DIMS = (64, 64, 64)
CLI_INSTANCES = 2

CLI_SPEC = """\
dims={n},{n},{n}
count=10
size_range_um=36,56
aspect_range=1.0,2.5
noise_std=2000
contact_fraction=0.5
n_sections=0
rng_seed={seed}
"""

CLI_CONFIG = """\
[denoise]
in = {d}/gray.raw
out = {d}/den.raw
search = 5

[unsharp]
in = {d}/den.raw
out = {d}/sharp.raw

[binarize]
in = {d}/sharp.raw
out = {d}/mask.raw
min_size = 30

[watershed]
mask = {d}/mask.raw
out = {d}/labels.raw
h_depth = 0.5

[edge-features]
labels = {d}/labels.raw
gray = {d}/sharp.raw
truth = {d}/truth_labels.raw
out = {d}/edges.csv

[train-merge]
features = {d}/edges.csv
out = {d}/model.txt
epochs = 500

[merge]
labels = {d}/labels.raw
gray = {d}/sharp.raw
model = {d}/model.txt
out = {d}/merged.raw

[descriptors]
labels = {d}/merged.raw
slice = z,{mid}
out = {d}/rows.csv
hist = {d}/hist
"""


def cli_setup(stream: int, workdir: str):
    workdir = os.path.join(workdir, f"cli-{stream}")
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.txt")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(CLI_SPEC.format(n=CLI_DIMS[0], seed=phantom_seed(7, stream)))
    rc = cli.main(["phantom", "--spec", spec_path, "--out-dir", workdir])
    if rc != 0:
        raise RuntimeError(f"tomoseg phantom exited with {rc}")
    config = os.path.join(workdir, "pipeline.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(CLI_CONFIG.format(d=workdir, mid=CLI_DIMS[2] // 2))
    return workdir, config


def cli_run(inputs, tr):
    workdir, config = inputs
    manifest = os.path.join(workdir, "manifest.json")
    if os.path.exists(manifest):
        os.remove(manifest)
    rc = cli.main(["pipeline", "--config", config, "--manifest", manifest])
    return rc, manifest


def cli_check(inputs, outputs):
    workdir, _ = inputs
    rc, manifest_path = outputs
    if rc != 0 or not os.path.exists(manifest_path):
        return Verdict(False, {"score": 0.0}, "")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    hashes = []
    all_exist = True
    for entry in manifest:
        for path, digest in sorted(entry["outputs"].items()):
            all_exist &= os.path.exists(path)
            hashes.append(f"{entry['stage']} {os.path.relpath(path, workdir)} {digest}\n")
    merged = volgrid.load_volume(os.path.join(workdir, "merged.raw"))
    truth = volgrid.load_volume(os.path.join(workdir, "truth_labels.raw"))
    ari = _ari_on_foreground(merged.data, truth.data)
    count_err = abs(merged.n_labels - truth.n_labels) / truth.n_labels
    quality = {"ari": ari, "count_err": count_err, "score": ari}
    passed = all_exist and len(manifest) == 8
    fingerprint = _sha256("".join(hashes).encode())
    return Verdict(passed, quality, fingerprint, {e["stage"]: e["seconds"] for e in manifest})


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    instances: int  # inputs per run; instance i of seed s is phantom stream s+i


WORKLOADS = {
    "register": Workload(reg_setup, reg_run, reg_check, REG_INSTANCES),
    "cli": Workload(cli_setup, cli_run, cli_check, CLI_INSTANCES),
}
