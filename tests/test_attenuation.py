import numpy as np
import pytest

from tomoseg import attenuation
from tomoseg.attenuation import (
    AttenuationModel,
    REFERENCE_MEAN_GRAY,
    erode_phase,
    extract_phase,
    fit_attenuation,
    load_mineral_table,
    mean_phase_gray,
    mu_only_fit,
    phase_means,
    predict_map,
    reference_samples,
    validate_section,
    write_scatter,
)
from tomoseg.register import RigidTransform
from tomoseg.volgrid import BinaryVolume, LabelPlane

from conftest import predict_map_where, scalar, traced_peak

IDENTITY = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_table_loads_and_validates():
    table = load_mineral_table()
    assert {m.name for m in table.minerals} == set(REFERENCE_MEAN_GRAY)
    assert table.by_name("quartz").code == 19
    assert table.by_name("quartz").rho_mu == pytest.approx(0.583)
    with pytest.raises(KeyError):
        table.by_code(99)


def test_extract_phase_all_and_absent():
    table = load_mineral_table()
    plane = LabelPlane(np.full((4, 5), 19, np.uint8), 1.0)
    assert len(extract_phase(plane, 19, table)) == 20
    assert len(extract_phase(plane, 25, table)) == 0
    with pytest.raises(KeyError):
        extract_phase(plane, 99, table)


def test_mean_phase_gray_constant_volume():
    vol = scalar(np.full((6, 6, 6), 19274))
    phase = np.array([[1, 1], [2, 3], [4, 2]])
    t = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, 3.0))
    mean, n_used, n_skipped = mean_phase_gray(vol, t, phase)
    assert mean == 19274.0
    assert n_used == 3 and n_skipped == 0


def test_mean_phase_gray_counts_skipped():
    vol = scalar(np.full((4, 4, 4), 100))
    phase = np.array([[1, 1], [40, 40]])
    t = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    mean, n_used, n_skipped = mean_phase_gray(vol, t, phase)
    assert (n_used, n_skipped) == (1, 1)
    with pytest.raises(ValueError):
        mean_phase_gray(vol, RigidTransform((0, 0, 0), (100, 100, 100)), phase)


def test_reference_fit_matches_frozen_values():
    # five bundled minerals against their reference mean grayscales;
    # expected values computed once by the same closed-form least squares
    model = fit_attenuation(reference_samples(load_mineral_table()))
    assert model.slope == pytest.approx(3.785458e-05, rel=1e-4)
    assert model.intercept == pytest.approx(-0.150694, abs=1e-5)
    assert model.r_squared == pytest.approx(0.976496, abs=1e-5)
    assert model.predict(19274) == pytest.approx(0.578915, abs=1e-5)


def test_two_point_exact_line():
    model = fit_attenuation([("a", 0.0, 1.0, 0.4), ("b", 1.0, 1.0, 0.9)])
    assert model.intercept == pytest.approx(0.4)
    assert model.slope == pytest.approx(0.5)


def test_exact_linear_zero_residuals():
    samples = [(f"m{i}", 1000.0 * i, 1.0, 0.1 + 0.05 * i) for i in range(1, 6)]
    model = fit_attenuation(samples)
    assert model.r_squared == pytest.approx(1.0)
    for _, resid in model.residuals:
        assert abs(resid) < 1e-12


def test_fit_rank_deficient():
    with pytest.raises(ValueError, match="rank"):
        fit_attenuation([("a", 5.0, 1.0, 0.2), ("b", 5.0, 1.0, 0.3)])
    with pytest.raises(ValueError):
        fit_attenuation([("a", 5.0, 1.0, 0.2)])


def test_fit_permutation_invariant():
    samples = reference_samples(load_mineral_table())
    m1 = fit_attenuation(samples)
    m2 = fit_attenuation(samples[::-1])
    assert m1.slope == pytest.approx(m2.slope)
    assert m1.intercept == pytest.approx(m2.intercept)


def test_ols_zero_mean_residuals():
    model = fit_attenuation(reference_samples(load_mineral_table()))
    assert sum(r for _, r in model.residuals) == pytest.approx(0.0, abs=1e-12)


def test_predict_map_values_and_flags():
    # the published coefficients, applied directly
    model = AttenuationModel(3.9e-5, -0.17, 18000.0, 30000.0, 1.0, ())
    data = np.full((3, 3, 3), 19274, np.uint16)
    data[0, 0, 0] = 27943
    data[0, 0, 1] = 4000
    vol = scalar(data)
    mask = BinaryVolume(np.ones((3, 3, 3), bool), 1.0)
    pred, flags = predict_map(vol, model, mask)
    assert pred[1, 1, 1] == pytest.approx(0.581686)
    assert pred[0, 0, 0] == pytest.approx(0.919777)
    assert pred[0, 0, 1] == pytest.approx(3.9e-5 * 4000 - 0.17)
    assert pred[0, 0, 1] < 0  # negative prediction still emitted
    assert flags[0, 0, 1] and not flags[1, 1, 1]


def test_predict_affine_in_grayscale_shift():
    model = AttenuationModel(3.9e-5, -0.17, 0.0, 65535.0, 1.0, ())
    base = np.full((2, 2, 2), 20000, np.uint16)
    mask = BinaryVolume(np.ones((2, 2, 2), bool), 1.0)
    # each map is the float64 line rounded once to float32
    for g in (base, base + 500):
        p, _ = predict_map(scalar(g), model, mask)
        np.testing.assert_array_equal(p, (3.9e-5 * g.astype(np.float64) - 0.17).astype(np.float32))


def test_validate_self_consistency():
    table = load_mineral_table()
    # one-voxel-thick stripes of each mineral at distinct grayscales
    codes = [m.code for m in table.minerals]
    grays = {m.code: 18000 + 2000 * i for i, m in enumerate(table.minerals)}
    nz, ny, nx = 3, 10, len(codes) * 4
    gray = np.zeros((nz, ny, nx), np.uint16)
    plane = np.zeros((ny, nx), np.uint8)
    for i, code in enumerate(codes):
        gray[:, :, 4 * i : 4 * i + 4] = grays[code]
        plane[:, 4 * i : 4 * i + 4] = code
    vol = scalar(gray)
    lp = LabelPlane(plane, 1.0)
    t = RigidTransform((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    samples = [
        (m.name, float(grays[m.code]), m.rho, m.mu_m) for m in table.minerals
    ]
    model = fit_attenuation(samples)
    report = validate_section(vol, model, t, lp, table)
    assert not report.skipped
    for row in report.rows:
        assert row.predicted == pytest.approx(model.predict(grays[table.by_name(row.name).code]))


def test_phase_means_equal_each_phase_sampled_alone(rng):
    # phase_means shares one guarded copy of the volume across the phases;
    # each phase's mean must be bitwise the one it gets alone
    table = load_mineral_table()
    codes = np.array([m.code for m in table.minerals])
    plane = LabelPlane(codes[rng.integers(0, len(codes), (6, 8))].repeat(4, 0).repeat(4, 1), 1.0)
    vol = scalar(rng.integers(0, 65536, (12, 14, 17)))
    t = RigidTransform((0.05, -0.03, 0.02), (0.3, -0.6, 5.4))
    for erode_px in (0, 1):
        means, skipped = phase_means(vol, t, plane, table, 0.5, erode_px)
        assert len(means) + len(skipped) == len(codes) and len(means) >= 3
        for mineral, mean, n_used in means:
            phase = erode_phase(plane, mineral.code, table, erode_px)
            assert (mean, n_used) == mean_phase_gray(vol, t, phase, 0.5)[:2]


def test_validate_skips_absent_minerals(tmp_path):
    table = load_mineral_table()
    plane = LabelPlane(np.full((4, 4), 19, np.uint8), 1.0)
    vol = scalar(np.full((4, 4, 4), 19274))
    model = fit_attenuation(reference_samples(table))
    report = validate_section(vol, model, IDENTITY, plane, table)
    assert len(report.rows) == 1
    assert set(report.skipped) == {"kaolinite", "muscovite", "zinnwaldite", "topaz"}
    path = tmp_path / "scatter.csv"
    write_scatter(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mineral,predicted,true"
    assert lines[1].startswith("quartz,")


def test_mu_only_fit_is_worse_on_reference_data():
    table = load_mineral_table()
    samples = reference_samples(table)
    product_fit = fit_attenuation(samples)
    mu_fit = mu_only_fit(samples)
    assert mu_fit.r_squared < product_fit.r_squared
    assert mu_fit.r_squared == pytest.approx(0.7955, abs=1e-3)


def test_mu_only_exact_linear():
    samples = [(f"m{i}", 100.0 * i, 1.0, 0.01 * i + 0.1) for i in range(1, 5)]
    fit = mu_only_fit(samples)
    assert fit.r_squared == pytest.approx(1.0)


def test_mu_only_constant_mu_zero_slope():
    samples = [(f"m{i}", 100.0 * i, 1.0, 0.25) for i in range(1, 5)]
    fit = mu_only_fit(samples)
    assert fit.c1 == pytest.approx(0.0, abs=1e-15)


def test_weighted_fit_option():
    samples = [("a", 0.0, 1.0, 0.0), ("b", 1.0, 1.0, 1.0), ("c", 2.0, 1.0, 1.0)]
    unweighted = fit_attenuation(samples)
    heavy_c = fit_attenuation(samples, weights=[1.0, 1.0, 100.0])
    assert heavy_c.slope != pytest.approx(unweighted.slope)


def test_erode_phase_peels_boundary():
    from tomoseg.attenuation import erode_phase

    table = load_mineral_table()
    plane = np.zeros((20, 20), np.uint8)
    plane[4:16, 4:16] = 19
    lp = LabelPlane(plane, 1.0)
    full = extract_phase(lp, 19, table)
    eroded = erode_phase(lp, 19, table, 2)
    assert len(eroded) < len(full)
    # eroded pixels sit at least 2 pixels from the phase boundary
    assert eroded[:, 0].min() >= 6 and eroded[:, 0].max() <= 13
    assert eroded[:, 1].min() >= 6 and eroded[:, 1].max() <= 13
    # a phase that erosion empties has no interior: nothing is kept
    tiny = np.zeros((8, 8), np.uint8)
    tiny[3, 3] = 19
    kept = erode_phase(LabelPlane(tiny, 1.0), 19, table, 3)
    assert kept.shape == (0, 2)
    # radius 0 is the verbatim phase
    np.testing.assert_array_equal(erode_phase(lp, 19, table, 0), full)


def test_predict_map_matches_whole_volume_where(rng, monkeypatch):
    model = AttenuationModel(3.9e-5, -0.17, 18000.0, 30000.0, 1.0, ())
    data = rng.integers(0, 65536, (9, 10, 11)).astype(np.uint16)
    # one plane per slab (1 and 110 voxels), two planes and a one-plane
    # remainder (250), the whole volume in one slab (the default)
    for slab_voxels in (1, 110, 250, 1 << 16):
        monkeypatch.setattr(attenuation, "SLAB_VOXELS", slab_voxels)
        for fill in ("empty", "full", "random"):
            m = {"empty": np.zeros(data.shape, bool), "full": np.ones(data.shape, bool),
                 "random": rng.random(data.shape) < 0.3}[fill]
            pred, flags = predict_map(scalar(data), model, BinaryVolume(m, 1.0))
            want_pred, want_flags = predict_map_where(scalar(data), model, BinaryVolume(m, 1.0))
            assert pred.dtype == np.float32 and flags.dtype == bool
            # bit for bit, the signs of the zeros included
            np.testing.assert_array_equal(pred.view(np.uint32),
                                          want_pred.astype(np.float32).view(np.uint32))
            np.testing.assert_array_equal(flags, want_flags)


def test_predict_map_memory(rng):
    # the returned float32 map and flags (5 bytes per voxel) and one z-slab
    # of float64 temporaries. The float64 map computed on the mask's voxels
    # took about 11 bytes per voxel on a 15% mask, and the whole-volume
    # float64 gray, prediction and np.where about 24.
    data = rng.integers(0, 65536, (96, 96, 96)).astype(np.uint16)
    vol = scalar(data)
    mask = BinaryVolume(rng.random(data.shape) < 0.15, 1.0)
    model = AttenuationModel(3.9e-5, -0.17, 18000.0, 30000.0, 1.0, ())
    _, peak = traced_peak(lambda: predict_map(vol, model, mask))
    assert peak / data.size <= 6, peak / data.size


@pytest.mark.parametrize("weights, reason", [
    ([0.0, 0.0, 0.0], "must be positive"),
    ([1.0, -4.0, 2.0], "'b'"),
    ([1.0, 2.0, float("nan")], "got nan"),
    ([float("inf"), 1.0, 1.0], "got inf"),
    ([1.0, 2.0], "one weight per sample"),
    ([[1.0, 2.0, 3.0]], "one weight per sample"),
])
def test_fit_refuses_weights_that_are_not_positive_and_finite(weights, reason):
    samples = [("a", 0.0, 1.0, 0.0), ("b", 1.0, 1.0, 1.0), ("c", 2.0, 1.0, 1.0)]
    with pytest.raises(ValueError, match=reason):
        fit_attenuation(samples, weights=weights)
