import math

import numpy as np
import pytest

from expmodel import (Dataset, DensityModel, InfoRecord, InvalidGrid,
                      InvalidSchedule, QuadratureGrid, ScatteringFunction,
                      default_schedule, entropy_quadrature,
                      experimental_information, indeterminacy, info_curve)
from expmodel.density import KERNEL_BLOCK

LOG_2PIE = math.log(2 * math.pi * math.e)


def uniform_pdf(span):
    value = 1.0 / span.width ** 2
    return lambda X, Y: np.full(X.shape, value)


def centered_kernel_pdf(sf, cx=0.0, cy=0.0):
    return lambda X, Y: sf.evaluate((X, Y), (cx, cy))


# --- grid -------------------------------------------------------------------

def test_grid_rejects_too_few_points(span):
    with pytest.raises(InvalidGrid):
        QuadratureGrid(span, 128)
    with pytest.raises(InvalidGrid):
        QuadratureGrid(span, 257.0)  # equal to an integer, but not one


def test_grid_step_and_axis(span, grid257):
    assert grid257.step == pytest.approx(4.0 / 256)
    axis = grid257.axis
    assert axis[0] == -2.0 and axis[-1] == 2.0 and axis.size == 257


def test_grid_kernel_resolution_check(span, grid257):
    grid257.require_resolves(ScatteringFunction(0.2))  # h = 0.015625 <= 0.05
    coarse = QuadratureGrid(span, 129)
    with pytest.raises(InvalidGrid):
        coarse.require_resolves(ScatteringFunction(0.1))  # h = 0.03125 > 0.025


def test_grid_rejects_kernel_wider_than_span(logistic200, grid257):
    # The span is the grid's alone; a kernel as wide as it degenerates H_u.
    for sigma in (2.0, 2.5):
        sf = ScatteringFunction(sigma)
        with pytest.raises(InvalidGrid):
            info_curve(logistic200, sf, grid257)
        with pytest.raises(InvalidGrid):
            experimental_information(DensityModel(logistic200, sf), grid257)


# --- entropy quadrature -----------------------------------------------------

def test_entropy_of_uniform_reference(span, grid257):
    expected = 2.0 * math.log(span.width)  # 2.772588722239781 for L = 2
    assert entropy_quadrature(uniform_pdf(span), grid257) == pytest.approx(expected, rel=1e-12)


def test_entropy_of_centered_kernel_matches_gaussian_closed_form(sf02, grid257):
    expected = 2.0 * math.log(sf02.sigma) + LOG_2PIE  # -0.3809987584588552
    assert abs(entropy_quadrature(centered_kernel_pdf(sf02), grid257) - expected) <= 1e-6


def test_entropy_of_corner_kernel_is_quarter_of_full(sf02, span, grid257):
    # A kernel centered on the span corner has exactly one quadrant inside,
    # and -f log f is symmetric about the center, so the span integral is a
    # quarter of the full-plane value. (It is *larger* than the full value
    # here, not smaller: the peak exceeds 1, so the omitted quadrants carry
    # negative integrand.)
    full = 2.0 * math.log(sf02.sigma) + LOG_2PIE
    corner = entropy_quadrature(centered_kernel_pdf(sf02, span.half_width, span.half_width),
                                grid257)
    assert abs(corner - full / 4.0) <= 1e-6
    assert corner > full


def test_entropy_rejects_invalid_density(grid257):
    with pytest.raises(InvalidGrid):
        entropy_quadrature(lambda X, Y: np.full(X.shape, -1.0), grid257)
    with pytest.raises(InvalidGrid):
        entropy_quadrature(lambda X, Y: np.full(X.shape, float("nan")), grid257)


# --- indeterminacy and information ------------------------------------------

def test_indeterminacy_of_single_sample_equals_calibration_entropy(sf02, grid257):
    m = DensityModel(Dataset([0.1], [-0.2]), sf02)
    assert abs(indeterminacy(m, grid257) - grid257.calibration_entropy(sf02)) <= 1e-3


def test_indeterminacy_never_positive(logistic200, sf02, grid257):
    for n in (1, 5, 20, 80, 200):
        m = DensityModel(logistic200.prefix(n), sf02)
        assert indeterminacy(m, grid257) <= 1e-9


def test_indeterminacy_agrees_with_generic_quadrature(logistic200, sf02, span, grid257):
    m = DensityModel(logistic200.prefix(50), sf02)
    via_callable = entropy_quadrature(
        lambda X, Y: m.joint_on_grid(grid257.axis, grid257.axis), grid257
    ) - 2.0 * math.log(span.width)
    assert indeterminacy(m, grid257) == pytest.approx(via_callable, rel=1e-12)


def test_information_of_one_sample_is_zero(logistic200, sf02, grid257):
    m = DensityModel(logistic200.prefix(1), sf02)
    assert abs(experimental_information(m, grid257)) <= 1e-2


def test_information_of_four_isolated_kernels_is_log4(span):
    sf = ScatteringFunction(0.05)
    grid = QuadratureGrid(span, 321)  # step = sigma/4
    data = Dataset([1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    info = experimental_information(DensityModel(data, sf), grid)
    assert info == pytest.approx(math.log(4.0), abs=0.02)


def test_information_of_identical_samples_is_zero(sf02, grid257):
    data = Dataset([0.3] * 16, [-0.82] * 16)
    curve = info_curve(data, sf02, grid257, schedule=[1, 2, 4, 8, 16])
    for rec in curve.records:
        assert abs(rec.info) <= 1e-2
    assert curve.n_opt == 1  # cost = log N - 2I grows with N when I stays 0


def test_information_bounds_on_benchmark(logistic200, sf02, grid257):
    curve = info_curve(logistic200, sf02, grid257)
    tol = 5e-2
    for rec in curve.records:
        assert -tol <= rec.info <= rec.log_n + tol


def test_information_is_grid_converged(logistic200, sf02, span):
    m = DensityModel(logistic200, sf02)
    coarse = experimental_information(m, QuadratureGrid(span, 257))
    fine = experimental_information(m, QuadratureGrid(span, 514))
    assert abs(coarse - fine) <= 1e-3


def test_information_limit_decreases_with_sigma(logistic200, span):
    grid = QuadratureGrid(span, 257)
    limits = [info_curve(logistic200, ScatteringFunction(s), grid).info_limit
              for s in (0.1, 0.2, 0.4)]
    assert limits[0] > limits[1] > limits[2]


def test_curve_matches_per_prefix_models_across_blocks(logistic600, sf02, grid257):
    # Schedule points on both sides of the 256-sample block boundaries.
    schedule = [1, KERNEL_BLOCK - 1, KERNEL_BLOCK, KERNEL_BLOCK + 1, 2 * KERNEL_BLOCK - 1, 600]
    curve = info_curve(logistic600, sf02, grid257, schedule=schedule)
    assert [r.n for r in curve.records] == schedule
    for rec in curve.records:
        model = DensityModel(logistic600.prefix(rec.n), sf02)
        expected = experimental_information(model, grid257)
        assert rec.info == pytest.approx(expected, rel=1e-12, abs=0)


# --- records and curve ------------------------------------------------------

def test_record_identities_are_exact():
    rec = InfoRecord.from_info(22, 1.7321)
    assert rec.log_n == math.log(22)
    assert rec.redundancy == rec.log_n - rec.info
    assert rec.cost == rec.log_n - 2.0 * rec.info
    assert rec.complexity == math.exp(rec.info)


def test_curve_structure(logistic200, sf02, grid257):
    curve = info_curve(logistic200, sf02, grid257)
    ns = [r.n for r in curve.records]
    assert ns == default_schedule(200)
    assert all(a < b for a, b in zip(ns, ns[1:]))
    costs = [r.cost for r in curve.records]
    assert curve.record_for(curve.n_opt).cost == min(costs)
    first_min = ns[costs.index(min(costs))]
    assert curve.n_opt == first_min
    assert curve.complexity_limit == math.exp(curve.info_limit)
    tail = [r.info for r in curve.records[-3:]]
    assert curve.info_limit == pytest.approx(float(np.mean(tail)), rel=1e-15)
    assert abs(curve.records[0].redundancy) <= 1e-2  # log 1 = 0 and I(1) ~ 0


def test_default_schedule_shape():
    assert default_schedule(200) == [1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64,
                                     90, 128, 180, 200]
    assert default_schedule(64)[-1] == 64
    assert default_schedule(64) == sorted(set(default_schedule(64)))
    assert default_schedule(1) == [1]


def test_schedule_validation(logistic200, sf02, grid257):
    with pytest.raises(InvalidSchedule):
        info_curve(logistic200, sf02, grid257, schedule=[1, 1, 2])
    with pytest.raises(InvalidSchedule):
        info_curve(logistic200, sf02, grid257, schedule=[0, 5])
    with pytest.raises(InvalidSchedule):
        info_curve(logistic200, sf02, grid257, schedule=[1, 500])
    with pytest.raises(InvalidSchedule):
        info_curve(logistic200, sf02, grid257, schedule=[])


def test_curve_requires_fine_enough_grid(logistic200, span):
    sf = ScatteringFunction(0.1)
    with pytest.raises(InvalidGrid):
        info_curve(logistic200, sf, QuadratureGrid(span, 129))


def test_curve_csv_outputs(tmp_path, logistic200, sf02, grid257):
    curve = info_curve(logistic200, sf02, grid257, schedule=[1, 4, 16, 64])
    records = tmp_path / "info_curve.csv"
    summary = tmp_path / "summary.csv"
    curve.write_records_csv(records)
    curve.write_summary_csv(summary)
    lines = records.read_text().splitlines()
    assert lines[0] == "N,logN,I,R,C,K"
    assert len(lines) == 5
    assert lines[1].startswith("1,0,")
    sum_lines = summary.read_text().splitlines()
    assert sum_lines[0] == "N_opt,I_inf,K_inf"
    n_opt, i_inf, k_inf = sum_lines[1].split(",")
    assert int(n_opt) == curve.n_opt
    assert float(i_inf) == curve.info_limit
    assert float(k_inf) == curve.complexity_limit


def test_parallel_setting_does_not_change_values(logistic200, sf02, grid257, monkeypatch):
    m = DensityModel(logistic200, sf02)
    monkeypatch.setenv("EXPMODEL_THREADS", "1")
    serial = experimental_information(m, grid257)
    monkeypatch.setenv("EXPMODEL_THREADS", "4")
    threaded = experimental_information(m, grid257)
    assert serial == threaded
