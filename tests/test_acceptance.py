"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers. Runtime budgets exclude one-time first-call
costs such as lazy imports (the module warmup fixture touches every kernel
first).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import time

import numpy as np
import pytest

from tomoseg import binarize, mergegraph, neuralnet, phantom, prefilter, register, watershed
from tomoseg._kernels.cc import connected_components_mask
from tomoseg._kernels.rotate import rotate_nearest
from tomoseg.attenuation import fit_attenuation, load_mineral_table, mu_only_fit, reference_samples
from tomoseg.volgrid import BinaryVolume, write_volume

from conftest import (
    ball_mask, binary, brute_force_translation, labels, render_section_mask, scalar,
)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Touch every kernel once so criterion timings measure the algorithms,
    not first-call costs such as the lazy ``scipy.sparse`` import."""
    rng = np.random.default_rng(0)
    vol = scalar(rng.integers(0, 65536, (8, 8, 8)).astype(np.uint16))
    prefilter.nonlocal_means(vol, prefilter.NlmParams(h=500.0, search_radius=1))
    prefilter.gaussian_blur(vol, 1.0)
    mask = binarize.sauvola_binarize(vol, binarize.SauvolaParams(window_radius=2))
    binarize.morphological_opening(binary(np.ones((5, 5, 5), bool)), 1.0)
    m = binary(ball_mask((12, 12, 12), (6, 6, 6), 4))
    watershed.watershed_segment(m, watershed.WatershedParams(h_depth=0.5))
    rotate_nearest(m.data, np.eye(3), register.volume_center(m.data.shape))
    spec = phantom.PhantomSpec(
        dims=(24, 24, 24), count=1, size_range_um=(30, 40), aspect_range=(1.0, 1.5),
        elongated_fraction=0.0, noise_std=0.0, rng_seed=0, n_sections=0,
    )
    phantom.generate(spec)


def report(name, elapsed, budget, detail):
    print(f"\n[ACCEPTANCE] {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) -- {detail}")


# ------------------------------------------------------------------ 1


def test_criterion_1_attenuation_regression():
    t0 = time.perf_counter()
    table = load_mineral_table()
    samples = reference_samples(table)
    model = fit_attenuation(samples)
    mu_fit = mu_only_fit(samples)
    quartz_pred = float(model.predict(19274.0))
    elapsed = time.perf_counter() - t0

    assert abs(model.slope - 3.9e-5) <= 0.10 * 3.9e-5
    assert abs(model.intercept - (-0.17)) <= 0.03
    assert abs(quartz_pred - 0.582) <= 0.005
    assert mu_fit.r_squared < model.r_squared
    assert elapsed < 1.0
    report(
        "1 attenuation regression", elapsed, 1,
        f"slope={model.slope:.4e} intercept={model.intercept:.4f} "
        f"quartz={quartz_pred:.4f} R2={model.r_squared:.4f} vs mu-only R2={mu_fit.r_squared:.4f}",
    )


# ------------------------------------------------------------------ 2


def _nlm_oracle(img, h, sigma, patch_radius, search):
    """Direct evaluation of the weighted-average definition."""
    nz, ny, nx = img.shape
    r = patch_radius
    offs = np.array(
        [(a, b, c) for a in range(-r, r + 1) for b in range(-r, r + 1) for c in range(-r, r + 1)]
    )
    gw = np.exp(-(offs**2).sum(axis=1) / (2.0 * sigma * sigma))
    gw = gw / gw.sum()
    out = np.zeros(img.shape)
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                num = 0.0
                den = 0.0
                for cz in range(max(0, z - search), min(nz, z + search + 1)):
                    for cy in range(max(0, y - search), min(ny, y + search + 1)):
                        for cx in range(max(0, x - search), min(nx, x + search + 1)):
                            a = offs + (z, y, x)
                            b = offs + (cz, cy, cx)
                            ok = ((a >= 0) & (a < (nz, ny, nx))).all(axis=1)
                            ok &= ((b >= 0) & (b < (nz, ny, nx))).all(axis=1)
                            av = img[a[ok, 0], a[ok, 1], a[ok, 2]]
                            bv = img[b[ok, 0], b[ok, 1], b[ok, 2]]
                            d = float((gw[ok] * (av - bv) ** 2).sum())
                            w = math.exp(-d / (h * h))
                            den += w
                            num += w * img[cz, cy, cx]
                out[z, y, x] = num / den
    return np.clip(np.floor(out + 0.5), 0, 65535).astype(np.uint16)


def test_criterion_2_nlm_exactness():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for i in range(20):
        data = rng.integers(0, 65536, (5, 5, 5)).astype(np.uint16)
        h = float(rng.uniform(300, 3000))
        got = prefilter.nonlocal_means(
            scalar(data), prefilter.NlmParams(h=h, sigma=1.0, patch_radius=1, search_radius=2)
        )
        want = _nlm_oracle(data.astype(float), h, 1.0, 1, 2)
        np.testing.assert_array_equal(got.data, want, err_msg=f"volume {i}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("2 NLM exactness", elapsed, 10, "20/20 volumes bit-identical after rounding")


# ------------------------------------------------------------------ 3


def test_criterion_3_sauvola_exactness():
    rng = np.random.default_rng(12)
    t0 = time.perf_counter()
    p = binarize.SauvolaParams(window_radius=2, k=0.34)
    for i in range(20):
        data = rng.integers(0, 65536, (7, 7, 7)).astype(np.uint16)
        vol = scalar(data)
        t = binarize.sauvola_threshold(vol, p)
        f = data.astype(float)
        want = np.zeros_like(f)
        for z in range(7):
            for y in range(7):
                for x in range(7):
                    win = f[max(0, z - 2) : z + 3, max(0, y - 2) : y + 3, max(0, x - 2) : x + 3]
                    want[z, y, x] = win.mean() * (1.0 + 0.34 * (win.std() / 32768.0 - 1.0))
        np.testing.assert_allclose(t, want, rtol=1e-9, err_msg=f"volume {i}")
        np.testing.assert_array_equal(binarize.sauvola_binarize(vol, p).data, f >= want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("3 Sauvola exactness", elapsed, 10, "20/20 thresholds at 1e-9, binarizations bit-identical")


# ------------------------------------------------------------------ 4


def _segmentation_pipeline(seed, contact):
    spec = phantom.PhantomSpec(
        dims=(200, 200, 200), count=50, size_range_um=(70, 110), aspect_range=(1.0, 4.0),
        exponent_range=(3.0, 4.0), elongated_fraction=0.35, noise_std=2000.0,
        rng_seed=seed, n_sections=0, contact_fraction=contact, max_contact_voxels=40,
    )
    out = phantom.generate(spec)
    mask = binarize.sauvola_binarize(out.gray, binarize.SauvolaParams())
    mask = binarize.morphological_opening(mask, 1.0)
    mask = binarize.remove_small_components(mask, 60)
    lab = watershed.watershed_segment(mask, watershed.WatershedParams(h_depth=0.2))
    graph = mergegraph.build_region_graph(lab)
    feats = mergegraph.extract_edge_features(graph, out.gray, lab)
    return out, lab, graph, feats


def test_criterion_4_watershed_merge_repair():
    t0 = time.perf_counter()
    # training phantom (disjoint seed)
    out_a, lab_a, graph_a, feats_a = _segmentation_pipeline(seed=101, contact=0.5)
    train = phantom.edge_training_set(out_a.labels, lab_a, graph_a, feats_a)
    assert len(np.unique(train.labels)) == 2
    model = neuralnet.train(train.features, train.labels, 75, neuralnet.TrainConfig(rng_seed=7))

    # evaluation phantom
    out_b, lab_b, graph_b, feats_b = _segmentation_pipeline(seed=202, contact=0.35)
    n_elongated = sum(1 for p in out_b.particles if p.aspect >= 2.5)
    assert n_elongated >= 0.30 * len(out_b.particles)
    raw = lab_b.n_labels
    assert raw >= 1.15 * 50  # raw watershed overcounts by >= 15%

    weights = {e: neuralnet.forward(model, feats_b[e]) for e in graph_b.edges}
    merged = mergegraph.merge_regions(lab_b, graph_b, weights, 0.5)
    assert 45 <= merged.n_labels <= 55  # within +-10% of 50

    both = (lab_b.data > 0) & (out_b.labels.data > 0)
    ari = phantom.adjusted_rand_index(merged.data[both], out_b.labels.data[both])
    assert ari >= 0.90
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "4 watershed + merge repair", elapsed, 600,
        f"raw={raw} (+{(raw - 50) / 50 * 100:.0f}%) merged={merged.n_labels} ARI={ari:.4f} "
        f"train edges={len(train.labels)} (class balance {train.class_balance:.2f})",
    )


# ------------------------------------------------------------------ 5


def test_criterion_5_gradient_correctness():
    from test_neuralnet import fd_gradient

    rng = np.random.default_rng(15)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        model = neuralnet.MlpModel(
            alpha0=rng.uniform(-0.7, 0.7, m),
            alpha=rng.uniform(-0.7, 0.7, (m, d)),
            beta0=float(rng.uniform(-0.7, 0.7)),
            beta=rng.uniform(-0.7, 0.7, m),
            feat_mean=np.zeros(d),
            feat_std=np.ones(d),
        )
        x = rng.normal(size=(6, d))
        y = (rng.random(6) > 0.5).astype(float)
        loss = ("cross_entropy", "sse")[i % 2]
        _, grads = neuralnet.loss_and_gradients(model, x, y, loss=loss, l2=0.0)
        fds = fd_gradient(model, x, y, loss, 0.0, eps=1e-5)
        for got, want in zip(grads, fds):
            rel = np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(np.abs(want), 1e-8)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    report("5 gradient correctness", elapsed, 5, f"max relative error {worst:.2e} over 10 cases, both losses")


# ------------------------------------------------------------------ 6


def test_criterion_6_descriptor_analytics():
    from tomoseg.descriptors import ParticleSection, mean_width, perimeter_cornercount, shape_factors

    def section_of(mask, spacing=1.0):
        ys, xs = np.nonzero(mask)
        return ParticleSection(1, np.column_stack([xs, ys]), spacing)

    t0 = time.perf_counter()
    yy, xx = np.mgrid[0:65, 0:65]
    disk = (yy - 32) ** 2 + (xx - 32) ** 2 <= 900
    p = perimeter_cornercount(section_of(disk))
    s, c, e = shape_factors(section_of(disk))
    assert abs(p - 2 * np.pi * 30) / (2 * np.pi * 30) < 0.02
    assert s >= 0.95 and e >= 0.95

    rect = np.zeros((14, 24), bool)
    rect[2:12, 2:22] = True  # 20 x 10
    w = mean_width(section_of(rect))
    assert abs(w - 60.0 / np.pi) / (60.0 / np.pi) < 0.02

    rect2 = np.zeros((34, 14), bool)
    rect2[2:32, 2:12] = True  # 30 x 10
    _, _, e2 = shape_factors(section_of(rect2))
    assert abs(e2 - 1.0 / 3.0) / (1.0 / 3.0) < 0.05

    square = np.zeros((14, 14), bool)
    square[2:12, 2:12] = True
    dia = np.abs(yy - 32) + np.abs(xx - 32) <= 21
    convexities = [shape_factors(section_of(m))[1] for m in (square, rect, rect2, dia)]
    assert min(convexities) >= 0.98
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(
        "6 descriptor analytics", elapsed, 5,
        f"disk perim err {abs(p - 2 * np.pi * 30) / (2 * np.pi * 30) * 100:.2f}%, "
        f"s={s:.3f}, e={e:.3f}, rect width err "
        f"{abs(w - 60 / np.pi) / (60 / np.pi) * 100:.2f}%, e(30x10)={e2:.4f}, "
        f"min convexity {min(convexities):.3f}",
    )


# ------------------------------------------------------------------ 7


def test_criterion_7_registration_recovery():
    t0 = time.perf_counter()
    hits = 0
    worst_ang = 0.0
    worst_tr = 0.0
    for seed in range(30, 40):
        rng = np.random.default_rng(seed)
        spec = phantom.PhantomSpec(
            dims=(128, 128, 128), count=600, size_range_um=(20, 40), aspect_range=(1.0, 2.5),
            elongated_fraction=0.0, noise_std=0.0, rng_seed=seed, n_sections=0,
            contact_fraction=0.3, section_extent=0.95,
        )
        out = phantom.generate(spec)
        vol = BinaryVolume(out.labels.data > 0, spec.spacing)
        true = register.RigidTransform(
            tuple(np.radians(rng.uniform(-10, 10, 3))),
            (rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(40, 90)),
        )
        plane = render_section_mask(out, true)
        res = register.register_section(vol, plane)
        ang_err = max(abs(math.degrees(a - b)) for a, b in zip(res.transform.angles, true.angles))
        tr_err = max(abs(a - b) for a, b in zip(res.transform.translation, true.translation))
        worst_ang = max(worst_ang, ang_err)
        worst_tr = max(worst_tr, tr_err)
        if ang_err <= 1.0 and tr_err <= 1.0:
            hits += 1
    assert hits >= 9

    # exact equivalence with brute force on 24^3 x 12^2 instances
    rng = np.random.default_rng(77)
    for _ in range(25):
        vol = rng.random((24, 24, 24)) > rng.uniform(0.4, 0.7)
        plane = rng.random((12, 12)) > rng.uniform(0.3, 0.6)
        fft_res = register.TranslationSolver(vol.shape, plane).solve(vol)
        bf_res = brute_force_translation(vol, plane)
        assert fft_res.shift == bf_res.shift and fft_res.overlap == bf_res.overlap
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        "7 registration recovery", elapsed, 300,
        f"{hits}/10 cases within 1 deg / 1 voxel (worst {worst_ang:.2f} deg, {worst_tr:.2f} vox); "
        "FFT == brute force on 25/25 instances",
    )


# ------------------------------------------------------------------ 8


def test_criterion_8_end_to_end_attenuation():
    t0 = time.perf_counter()
    table = load_mineral_table()
    spec = phantom.PhantomSpec(
        dims=(128, 128, 128), count=260, size_range_um=(25, 45), aspect_range=(1.0, 2.0),
        elongated_fraction=0.0, noise_std=400.0, rng_seed=88, n_sections=2,
        contact_fraction=0.2, section_max_angle_deg=3.0, section_max_shift=8.0,
        section_extent=0.95,
        mineral_fractions={"quartz": 0.3, "kaolinite": 0.15, "muscovite": 0.15,
                           "zinnwaldite": 0.25, "topaz": 0.15},
    )
    out = phantom.generate(spec, table)
    a_gen, b_gen = out.instrument_line

    mask = binarize.sauvola_binarize(out.gray, binarize.SauvolaParams())
    mask = binarize.morphological_opening(mask, 1.0)
    mask = binarize.remove_small_components(mask, 30)

    from tomoseg.attenuation import erode_phase, mean_phase_gray, validate_section

    transforms = []
    for sec in out.sections:
        plane_mask = phantom.section_to_voxel_mask(sec.plane, out.pixel_to_voxel, spec.spacing)
        res = register.register_section(mask, plane_mask.data[0])
        transforms.append(res.transform)

    # calibrate on section 1; phases lose a one-voxel boundary band so the
    # sub-voxel registration residual cannot leak background into the means
    erode_px = int(round(1.5 / out.pixel_to_voxel))
    samples = []
    for mineral in table.minerals:
        phase = erode_phase(out.sections[0].plane, mineral.code, table, erode_px)
        if len(phase) < 50:
            continue
        mean, _, _ = mean_phase_gray(out.gray, transforms[0], phase, out.pixel_to_voxel)
        samples.append((mineral.name, mean, mineral.rho, mineral.mu_m))
    assert len(samples) >= 3
    model = fit_attenuation(samples)
    slope_err = abs(model.slope - 1.0 / a_gen) / (1.0 / a_gen)
    assert slope_err <= 0.03

    # validate on held-out section 2
    report_2 = validate_section(
        out.gray, model, transforms[1], out.sections[1].plane, table, out.pixel_to_voxel,
        erode_px=erode_px,
    )
    assert report_2.rows
    assert report_2.max_rel_error <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        "8 end-to-end attenuation", elapsed, 600,
        f"slope err {slope_err * 100:.2f}% (<=3%), held-out max rel err "
        f"{report_2.max_rel_error * 100:.2f}% (<=5%) over {len(report_2.rows)} minerals",
    )


# ------------------------------------------------------------------ 9


def test_criterion_9_morphology_and_graph_properties(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(19)
    # opening: idempotent and anti-extensive on 50 random masks
    for _ in range(50):
        m = rng.random((9, 9, 9)) > rng.uniform(0.3, 0.7)
        opened = binarize.morphological_opening(binary(m), 1.0)
        assert (opened.data <= m).all()
        again = binarize.morphological_opening(opened, 1.0)
        np.testing.assert_array_equal(again.data, opened.data)

    # merge monotonicity in lambda on 20 random weighted graphs
    checked = 0
    while checked < 20:
        m = rng.random((10, 10, 10)) > 0.55
        lab = labels(connected_components_mask(m, 6))
        if lab.n_labels < 3:
            continue
        graph = mergegraph.build_region_graph(lab)
        if not graph.edges:
            continue
        weights = {e: float(rng.random()) for e in graph.edges}
        lam_lo, lam_hi = sorted(rng.uniform(0.05, 0.95, 2))
        coarse = mergegraph.merge_regions(lab, graph, weights, lam_lo)
        fine = mergegraph.merge_regions(lab, graph, weights, lam_hi)
        mapping = {}
        for f_id, c_id in zip(fine.data[m], coarse.data[m]):
            assert mapping.setdefault(int(f_id), int(c_id)) == int(c_id)
        checked += 1

    # watershed determinism across thread counts, via the CLI
    from tomoseg import cli

    m = ball_mask((20, 20, 36), (10, 10, 10), 7) | ball_mask((20, 20, 36), (10, 10, 26), 7)
    mask_path = tmp_path / "mask.raw"
    write_volume(BinaryVolume(m, 1.0), mask_path)
    payloads = []
    for threads in ("1", "8"):
        out_path = tmp_path / f"lab_{threads}.raw"
        rc = cli.main(
            ["--threads", threads, "watershed", "--mask", str(mask_path), "--out", str(out_path)]
        )
        assert rc == 0
        payloads.append(out_path.read_bytes())
    assert payloads[0] == payloads[1]
    elapsed = time.perf_counter() - t0
    report(
        "9 morphology/graph properties", elapsed, 600,
        "50 openings idempotent+anti-extensive, 20 graphs merge-monotone, "
        "watershed bit-identical for --threads 1 vs 8",
    )
