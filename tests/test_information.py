import math
import tracemalloc

import numpy as np
import pytest

from expmodel import (Dataset, EmptyDataset, GenerationMeta, InfoCurve, InfoRecord,
                      InvalidGrid, InvalidParameter, InvalidSchedule,
                      QuadratureGrid, ScatteringFunction, default_schedule,
                      generate, info_curve, quality_sweep, write_dataset_csv)
from expmodel.cli import main
from expmodel import information
from expmodel.information import GRID_BYTES_PER_NODE, _kernel_rows
from conftest import HALF_WIDTH
from oracles import LOG_2PIE, entropy_grid, kde_joint_grid


def one_point_info(data, sf, grid):
    """I(N) of the whole dataset: the one record of a one-point curve."""
    return info_curve(data, sf, grid, schedule=[len(data)]).records[0].info


def kernel_entropy(sf, grid, cx, cy):
    """-integral f log f over the grid of one kernel centred at (cx, cy),
    recovered from its one-sample record as I(1) + log(2 pi e sigma^2)."""
    info = one_point_info(Dataset([cx], [cy]), sf, grid)
    return info + LOG_2PIE + 2.0 * math.log(sf.sigma)


# --- grid -------------------------------------------------------------------

def test_grid_rejects_too_few_points():
    with pytest.raises(InvalidGrid):
        QuadratureGrid(HALF_WIDTH, 128)
    with pytest.raises(InvalidGrid):
        QuadratureGrid(HALF_WIDTH, 257.0)  # equal to an integer, but not one


def test_span_requires_positive_half_width():
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            QuadratureGrid(bad, 257)


def test_grid_budget_does_not_wrap_in_fixed_width():
    # 24 * (2^31 - 1)^2 bytes wraps in int32 arithmetic; in Python ints it
    # exceeds any memory.
    with pytest.raises(InvalidGrid):
        QuadratureGrid(HALF_WIDTH, np.int32(2 ** 31 - 1))
    assert QuadratureGrid(HALF_WIDTH, np.int32(257)).points_per_axis == 257


def test_grid_step_and_axis(grid257):
    assert grid257.step == pytest.approx(4.0 / 256)
    axis = grid257.axis
    assert axis[0] == -2.0 and axis[-1] == 2.0 and axis.size == 257


def test_grid_kernel_resolution_check(grid257):
    # The check returns the kernel normalisation 1/(2 pi sigma^2); a grid
    # coarser than sigma/4 is not rejected, since info_curve refines it.
    sf = ScatteringFunction(0.2)
    assert grid257.require_resolves(sf) == 1.0 / (2.0 * math.pi * 0.2 ** 2)
    coarse = QuadratureGrid(HALF_WIDTH, 129)  # h = 0.03125 > 0.1/4
    assert coarse.require_resolves(ScatteringFunction(0.1)) == 1.0 / (2.0 * math.pi * 0.1 ** 2)


def test_grid_rejects_kernel_wider_than_span(logistic200, grid257):
    # A kernel as wide as the grid's square leaks most of its mass out of it.
    for sigma in (2.0, 2.5):
        sf = ScatteringFunction(sigma)
        with pytest.raises(InvalidGrid):
            info_curve(logistic200, sf, grid257)


# --- entropy quadrature -----------------------------------------------------

def test_entropy_of_uniform_reference(grid257):
    # The uniform density 1/(2L)^2 has quadrature entropy 2 log(2L) exactly
    # when the trapezoid weights of each axis, (G - 1) steps in all, sum to
    # the span width 2L.
    weight_sum = (grid257.points_per_axis - 1) * grid257.step
    assert weight_sum == pytest.approx(2.0 * HALF_WIDTH, rel=1e-12)


def test_entropy_of_centered_kernel_matches_gaussian_closed_form(sf02, grid257):
    expected = 2.0 * math.log(sf02.sigma) + LOG_2PIE  # -0.3809987584588552
    assert abs(kernel_entropy(sf02, grid257, 0.0, 0.0) - expected) <= 1e-6


def test_entropy_of_corner_kernel_is_quarter_of_full(sf02, grid257):
    # A kernel centered on the span corner has exactly one quadrant inside,
    # and -f log f is symmetric about the center, so the span integral is a
    # quarter of the full-plane value. (It is *larger* than the full value
    # here, not smaller: the peak exceeds 1, so the omitted quadrants carry
    # negative integrand.)
    full = 2.0 * math.log(sf02.sigma) + LOG_2PIE
    corner = kernel_entropy(sf02, grid257, HALF_WIDTH, HALF_WIDTH)
    assert abs(corner - full / 4.0) <= 1e-6
    assert corner > full


# --- indeterminacy and information ------------------------------------------

@pytest.mark.parametrize("point,tol", [(None, 1e-2), ((0.1, -0.2), 1e-3)],
                         ids=["first-sample", "off-centre"])
def test_information_of_one_sample_is_zero(point, tol, logistic200, sf02, grid257):
    # One kernel's entropy less one kernel's; None is the benchmark's first sample.
    data = logistic200.prefix(1) if point is None else Dataset([point[0]], [point[1]])
    assert abs(one_point_info(data, sf02, grid257)) <= tol


def test_indeterminacy_never_positive(logistic200, sf02, grid257):
    # H_z = H - 2 log(2L) <= 0: mass m <= 1 on the square, of area A = 16,
    # has entropy at most m log(A/m) <= log A.
    ref = 2.0 * math.log(2.0 * HALF_WIDTH)
    for rec in info_curve(logistic200, sf02, grid257, schedule=[1, 5, 20, 80, 200]).records:
        assert rec.info + LOG_2PIE + 2.0 * math.log(sf02.sigma) <= ref + 1e-9


def test_indeterminacy_agrees_with_generic_quadrature(logistic200, sf02, grid257):
    # The record's entropy against np.trapezoid over the brute-force joint grid.
    data = logistic200.prefix(50)
    joint = kde_joint_grid(data.x, data.y, sf02.sigma, grid257.axis)
    h = one_point_info(data, sf02, grid257) + LOG_2PIE + 2.0 * math.log(sf02.sigma)
    assert h == pytest.approx(entropy_grid(joint, grid257.axis), rel=1e-12)


def test_indeterminacy_with_most_nodes_unreached():
    # Four clustered narrow kernels leave most of the span at a density of
    # exactly 0, where the curve's running sum holds only DENSITY_FLOOR.
    sf = ScatteringFunction(0.05)
    grid = QuadratureGrid(HALF_WIDTH, 321)
    data = Dataset([1.5, 1.4, 1.6, 1.45], [1.5, 1.6, 1.3, 1.55])
    joint = kde_joint_grid(data.x, data.y, sf.sigma, grid.axis)
    assert np.count_nonzero(joint == 0.0) == 67274
    h = one_point_info(data, sf, grid) + LOG_2PIE + 2.0 * math.log(sf.sigma)
    assert h == pytest.approx(entropy_grid(joint, grid.axis), rel=1e-12)


def test_information_of_four_isolated_kernels_is_log4():
    sf = ScatteringFunction(0.05)
    grid = QuadratureGrid(HALF_WIDTH, 321)  # step = sigma/4
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


def test_information_is_grid_converged(logistic200, sf02):
    coarse = one_point_info(logistic200, sf02, QuadratureGrid(HALF_WIDTH, 257))
    fine = one_point_info(logistic200, sf02, QuadratureGrid(HALF_WIDTH, 514))
    assert abs(coarse - fine) <= 1e-3


def test_information_limit_decreases_with_sigma(logistic200):
    grid = QuadratureGrid(HALF_WIDTH, 257)
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
    offset = LOG_2PIE + 2.0 * math.log(sf02.sigma)
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
    # The running sum, the scratch grid and the kernel-row buffer (at most
    # one grid) are one workspace allocated once per curve; 256 KB covers
    # numpy's ufunc buffers and the axis-sized vectors.
    data = request.getfixturevalue(fixture)
    tracemalloc.start()
    try:
        info_curve(data, sf02, grid257, schedule=schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * grid257.points_per_axis ** 2 + 256 * 1024


def test_curve_allocates_its_grids_in_one_block(monkeypatch, logistic200, sf02, grid257):
    # At the curve's first entropy every grid-sized array it holds is live:
    # the running sum, the scratch grid and the kernel rows are views of one
    # workspace, so one traced block of at least 64 G bytes is held.
    g = grid257.points_per_axis
    snapshots = []
    entropy = information._entropy

    def first_entropy_snapshot(*args):
        if not snapshots:
            snapshots.append(tracemalloc.take_snapshot())
        return entropy(*args)

    monkeypatch.setattr(information, "_entropy", first_entropy_snapshot)
    tracemalloc.start()
    try:
        info_curve(logistic200, sf02, grid257)
    finally:
        tracemalloc.stop()
    large = [t.size for t in snapshots[0].traces if t.size >= 64 * g]
    assert len(large) == 1
    assert large[0] <= GRID_BYTES_PER_NODE * g ** 2


# --- records and curve ------------------------------------------------------

def test_record_identities_are_exact():
    rec = InfoRecord(22, 1.7321)
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


def test_n_opt_takes_the_smallest_n_of_a_cost_tie():
    curve = InfoCurve((InfoRecord(1, 0.0), InfoRecord(4, math.log(2)), InfoRecord(8, 0.5)))
    assert curve.records[0].cost == curve.records[1].cost == 0.0
    assert curve.n_opt == 1


def test_info_limit_averages_the_top_tenth_of_a_long_curve():
    infos = [0.05 * k for k in range(41)]
    curve = InfoCurve(tuple(InfoRecord(n, i) for n, i in enumerate(infos, start=1)))
    assert curve.info_limit == float(np.mean(infos[-5:]))  # ceil(41 / 10) = 5 > 3
    assert curve.info_limit != float(np.mean(infos[-3:]))
    assert curve.complexity_limit == math.exp(curve.info_limit)


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


def test_curve_requires_fine_enough_grid(logistic200):
    # A grid's node count is a floor: at sigma = 0.1, 129 nodes (h = 0.03125 >
    # sigma/4) become the ceil(8L/sigma) + 1 = 161 of h = sigma/4 = 0.025.
    sf = ScatteringFunction(0.1)
    assert (info_curve(logistic200, sf, QuadratureGrid(HALF_WIDTH, 129)).records
            == info_curve(logistic200, sf, QuadratureGrid(HALF_WIDTH, 161)).records)


def test_curve_csv_outputs(tmp_path, logistic200, sf02, grid257):
    # The CLI lays out the curve; summary.csv reads back as the curve's numbers.
    data = tmp_path / "samples.csv"
    write_dataset_csv(logistic200, data)
    assert main(["info", "--basic", str(data), "--sigma", "0.2",
                 "--schedule", "1,4,16,64", "--out-dir", str(tmp_path)]) == 0
    curve = info_curve(logistic200, sf02, grid257, schedule=[1, 4, 16, 64])
    lines = (tmp_path / "info_curve.csv").read_text().splitlines()
    assert lines[0] == "N,logN,I,R,C,K"
    assert len(lines) == 5
    assert lines[1].startswith("1,0,")
    sum_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert sum_lines[0] == "N_opt,I_inf,K_inf"
    assert len(sum_lines) == 2
    n_opt, i_inf, k_inf = sum_lines[1].split(",")
    assert int(n_opt) == curve.n_opt
    assert float(i_inf) == curve.info_limit
    assert float(k_inf) == curve.complexity_limit


def test_schedule_over_an_empty_dataset_raises_empty_dataset(sf02, grid257):
    empty = Dataset([], [])
    with pytest.raises(EmptyDataset):
        info_curve(empty, sf02, grid257)
    with pytest.raises(EmptyDataset):
        info_curve(empty, sf02, grid257, schedule=[1, 2])
    with pytest.raises(EmptyDataset):
        quality_sweep(empty, Dataset([0.0, 1.0], [0.0, 1.0]), sf02)


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
def test_information_is_invariant_under_symmetries_of_the_span(sigma, grid257):
    # The span square, the grid and the kernel are symmetric under swapping
    # and negating the channels, and a point of the curve reads its prefix
    # as a set. On seeds 1-3 the largest deviation was 1.8e-15 (seed 1: 8.9e-16).
    data = generate(GenerationMeta(seed=1, sigma_noise=sigma, n=200))
    sf = ScatteringFunction(sigma)
    start = default_schedule(len(data))[-2]  # of the last schedule segment
    order = np.r_[np.arange(start), start + np.random.default_rng(1).permutation(len(data) - start)]
    variants = [Dataset(data.y, data.x), Dataset(-data.x, data.y),
                Dataset(-data.x, -data.y), Dataset(data.x[order], data.y[order])]
    info = [r.info for r in info_curve(data, sf, grid257).records]
    for variant in variants:
        moved = [r.info for r in info_curve(variant, sf, grid257).records]
        np.testing.assert_allclose(moved, info, rtol=0, atol=1e-14)


def test_information_reads_the_half_width_only_as_the_grid_extent():
    # Two squares at the same step 1/64 whose nodes hold every kernel of a
    # set with |x|, |y| < 1.15 to 8.5 sigma: no mass leaks from either, so
    # the records agree to rounding whatever L is.
    data = generate(GenerationMeta(seed=1, sigma_noise=0.05, n=200))
    assert max(np.abs(data.x).max(), np.abs(data.y).max()) < 1.15
    sf = ScatteringFunction(0.1)
    narrow, wide = QuadratureGrid(2.0, 257), QuadratureGrid(3.0, 385)
    assert narrow.step == wide.step == 1.0 / 64
    at = [r.info for r in info_curve(data, sf, narrow).records]
    np.testing.assert_allclose([r.info for r in info_curve(data, sf, wide).records], at,
                               rtol=0, atol=1e-13)


def test_info_curve_is_deterministic(logistic200, sf02, grid257):
    assert info_curve(logistic200, sf02, grid257) == info_curve(logistic200, sf02, grid257)
