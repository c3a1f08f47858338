import math
import tracemalloc

import numpy as np
import pytest

from expmodel import (Dataset, InfoRecord, InvalidGrid,
                      InvalidSchedule, QuadratureGrid, ScatteringFunction,
                      default_schedule, info_curve)
from expmodel.information import _kernel_rows
from oracles import entropy_grid, kde_joint_grid

LOG_2PIE = math.log(2 * math.pi * math.e)


def one_point_info(data, sf, grid):
    """I(N) of the whole dataset: the one record of a one-point curve."""
    return info_curve(data, sf, grid, schedule=[len(data)]).records[0].info


def kernel_entropy(sf, grid, cx, cy):
    """-integral_span f log f of one kernel centred at (cx, cy), recovered
    from its one-sample record as I(1) + H_u + 2 log(2L)."""
    info = one_point_info(Dataset([cx], [cy]), sf, grid)
    return info + grid.calibration_entropy(sf) + 2.0 * math.log(grid.span.width)


# --- grid -------------------------------------------------------------------

def test_grid_rejects_too_few_points(span):
    with pytest.raises(InvalidGrid):
        QuadratureGrid(span, 128)
    with pytest.raises(InvalidGrid):
        QuadratureGrid(span, 257.0)  # equal to an integer, but not one


def test_grid_budget_does_not_wrap_in_fixed_width(span):
    # 24 * (2^31 - 1)^2 bytes wraps in int32 arithmetic; in Python ints it
    # exceeds any memory.
    with pytest.raises(InvalidGrid):
        QuadratureGrid(span, np.int32(2 ** 31 - 1))
    assert QuadratureGrid(span, np.int32(257)).points_per_axis == 257


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


# --- entropy quadrature -----------------------------------------------------

def test_entropy_of_uniform_reference(span, grid257):
    # The uniform density 1/(2L)^2 has quadrature entropy 2 log(2L) exactly
    # when the trapezoid weights of each axis sum to the span width 2L.
    assert grid257.weights().sum() == pytest.approx(span.width, rel=1e-12)


def test_entropy_of_centered_kernel_matches_gaussian_closed_form(sf02, grid257):
    expected = 2.0 * math.log(sf02.sigma) + LOG_2PIE  # -0.3809987584588552
    assert abs(kernel_entropy(sf02, grid257, 0.0, 0.0) - expected) <= 1e-6


def test_entropy_of_corner_kernel_is_quarter_of_full(sf02, span, grid257):
    # A kernel centered on the span corner has exactly one quadrant inside,
    # and -f log f is symmetric about the center, so the span integral is a
    # quarter of the full-plane value. (It is *larger* than the full value
    # here, not smaller: the peak exceeds 1, so the omitted quadrants carry
    # negative integrand.)
    full = 2.0 * math.log(sf02.sigma) + LOG_2PIE
    corner = kernel_entropy(sf02, grid257, span.half_width, span.half_width)
    assert abs(corner - full / 4.0) <= 1e-6
    assert corner > full


# --- indeterminacy and information ------------------------------------------

def test_indeterminacy_of_single_sample_equals_calibration_entropy(sf02, grid257):
    # H_z - H_u is the record's I(1).
    assert abs(one_point_info(Dataset([0.1], [-0.2]), sf02, grid257)) <= 1e-3


def test_indeterminacy_never_positive(logistic200, sf02, grid257):
    h_u = grid257.calibration_entropy(sf02)
    for rec in info_curve(logistic200, sf02, grid257, schedule=[1, 5, 20, 80, 200]).records:
        assert rec.info + h_u <= 1e-9


def test_indeterminacy_agrees_with_generic_quadrature(logistic200, sf02, span, grid257):
    # The record's H_z against np.trapezoid over the brute-force joint grid.
    data = logistic200.prefix(50)
    joint = kde_joint_grid(data.x, data.y, sf02.sigma, grid257.axis)
    via_trapezoid = entropy_grid(joint, grid257.axis) - 2.0 * math.log(span.width)
    h_z = one_point_info(data, sf02, grid257) + grid257.calibration_entropy(sf02)
    assert h_z == pytest.approx(via_trapezoid, rel=1e-12)


def test_indeterminacy_with_most_nodes_unreached(span):
    # Four clustered narrow kernels leave most of the span at a density of
    # exactly 0, where the curve's running sum holds only DENSITY_FLOOR.
    sf = ScatteringFunction(0.05)
    grid = QuadratureGrid(span, 321)
    data = Dataset([1.5, 1.4, 1.6, 1.45], [1.5, 1.6, 1.3, 1.55])
    joint = kde_joint_grid(data.x, data.y, sf.sigma, grid.axis)
    assert np.count_nonzero(joint == 0.0) == 67274
    via_trapezoid = entropy_grid(joint, grid.axis) - 2.0 * math.log(span.width)
    h_z = one_point_info(data, sf, grid) + grid.calibration_entropy(sf)
    assert h_z == pytest.approx(via_trapezoid, rel=1e-12)


def test_information_of_one_sample_is_zero(logistic200, sf02, grid257):
    assert abs(one_point_info(logistic200.prefix(1), sf02, grid257)) <= 1e-2


def test_information_of_four_isolated_kernels_is_log4(span):
    sf = ScatteringFunction(0.05)
    grid = QuadratureGrid(span, 321)  # step = sigma/4
    data = Dataset([1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    assert one_point_info(data, sf, grid) == pytest.approx(math.log(4.0), abs=0.02)


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
    coarse = one_point_info(logistic200, sf02, QuadratureGrid(span, 257))
    fine = one_point_info(logistic200, sf02, QuadratureGrid(span, 514))
    assert abs(coarse - fine) <= 1e-3


def test_information_limit_decreases_with_sigma(logistic200, span):
    grid = QuadratureGrid(span, 257)
    limits = [info_curve(logistic200, ScatteringFunction(s), grid).info_limit
              for s in (0.1, 0.2, 0.4)]
    assert limits[0] > limits[1] > limits[2]


def test_curve_matches_per_prefix_models_across_blocks(logistic600, sf02, grid257):
    # Schedule points on both sides of the boundaries of the kernel-row
    # blocks the curve uses at this grid (128 samples at G = 257), after
    # three one-sample segments; the last segment takes three blocks.
    block = _kernel_rows([len(logistic600)], grid257.points_per_axis)
    schedule = [1, 2, 3, block - 1, block, block + 1, 2 * block - 1, 600]
    assert _kernel_rows(schedule, grid257.points_per_axis) == block
    assert schedule[-1] - schedule[-2] > 2 * block
    curve = info_curve(logistic600, sf02, grid257, schedule=schedule)
    assert [r.n for r in curve.records] == schedule
    axis = grid257.axis
    offset = 2.0 * math.log(grid257.span.width) + grid257.calibration_entropy(sf02)
    for rec in curve.records:
        prefix = logistic600.prefix(rec.n)
        # A streaming record is the curve of its prefix alone...
        alone = one_point_info(prefix, sf02, grid257)
        assert rec.info == pytest.approx(alone, rel=1e-12, abs=0)
        # ...and the entropy of the brute-force joint grid, which agrees
        # with the library's to rtol 1e-10 (test_joint_grid_matches_brute_force).
        joint = kde_joint_grid(prefix.x, prefix.y, sf02.sigma, axis)
        assert abs(rec.info - (entropy_grid(joint, axis) - offset)) <= 1e-9


@pytest.mark.parametrize("fixture,schedule", [
    ("logistic200", None), ("logistic200", [200]), ("logistic600", None)])
def test_curve_holds_three_grids_at_most(request, fixture, schedule, sf02, grid257):
    # The running sum, the scratch grid and the kernel rows (at most one grid
    # between them) are allocated once per curve; 256 KB covers numpy's
    # ufunc buffers and the axis-sized vectors.
    data = request.getfixturevalue(fixture)
    tracemalloc.start()
    try:
        info_curve(data, sf02, grid257, schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * grid257.points_per_axis ** 2 + 256 * 1024


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
    assert next(r for r in curve.records if r.n == curve.n_opt).cost == min(costs)
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


def test_info_curve_is_deterministic(logistic200, sf02, grid257):
    assert info_curve(logistic200, sf02, grid257) == info_curve(logistic200, sf02, grid257)
