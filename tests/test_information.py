import inspect
import math
import tracemalloc

import numpy as np
import pytest

from expmodel import (Dataset, EmptyDataset, GenerationMeta, InfoCurve, InfoRecord,
                      InvalidGrid, InvalidParameter, InvalidSchedule,
                      ScatteringFunction, default_schedule,
                      generate, info_curve, quality_sweep, write_dataset_csv)
from expmodel.cli import main
from expmodel import information
from expmodel.information import _kernel_rows, grid_points, resolve_schedule, workspace_bytes
from conftest import HALF_WIDTH
from oracles import LOG_2PIE, entropy_grid, kde_joint_grid


def one_point_info(data, sf, half_width=HALF_WIDTH):
    """I(N) of the whole dataset: the one record of a one-point curve."""
    return info_curve(data, sf, schedule=[len(data)], half_width=half_width).records[0].info


def kernel_entropy(sf, cx, cy):
    """-integral f log f over the grid of one kernel centred at (cx, cy),
    recovered from its one-sample record as I(1) + log(2 pi e sigma^2)."""
    info = one_point_info(Dataset([cx], [cy]), sf)
    return info + LOG_2PIE + 2.0 * math.log(sf.sigma)


def span_axis(points, half_width=HALF_WIDTH):
    """The nodes of one axis of a grid of the given size over [-L, L]."""
    return np.linspace(-half_width, half_width, points)


def curve_grid(monkeypatch, data, sf):
    """The step and the sigma-scaled axis on which info_curve integrates,
    as its entropy and its kernel products receive them."""
    seen = {}
    entropy, products = information._entropy, information.accumulate_kernel_products

    def entropy_spy(*args):
        seen["step"] = inspect.signature(entropy).bind(*args).arguments["step"]
        return entropy(*args)

    def products_spy(out, x, y, axis, sigma, **kwargs):
        seen["axis"] = axis
        return products(out, x, y, axis, sigma, **kwargs)

    monkeypatch.setattr(information, "_entropy", entropy_spy)
    monkeypatch.setattr(information, "accumulate_kernel_products", products_spy)
    info_curve(data, sf, schedule=[len(data)], half_width=HALF_WIDTH)
    return seen["step"], seen["axis"]


# --- grid -------------------------------------------------------------------

def test_span_requires_positive_half_width(logistic200, sf02):
    for bad in (0.0, -2.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParameter):
            grid_points(bad, sf02)
        with pytest.raises(InvalidParameter):
            info_curve(logistic200, sf02, half_width=bad)


def test_grid_budget_does_not_wrap_in_fixed_width():
    # sigma = 16 / (2^31 - 2) sets G = ceil(8L/sigma) + 1 >= 2^31 - 1, whose
    # workspace (18 G + 8) G, about 8.3e19 bytes, wraps in int64 arithmetic;
    # in Python ints it exceeds any memory and is refused, with its count.
    sf = ScatteringFunction(16.0 / (2 ** 31 - 2))
    g = math.ceil(8.0 * HALF_WIDTH / sf.sigma) + 1
    assert g >= 2 ** 31 - 1 and workspace_bytes(g) > 2 ** 64
    with pytest.raises(InvalidGrid, match=rf"a {g}\^2 grid needs {workspace_bytes(g)} bytes"):
        grid_points(HALF_WIDTH, sf)
    assert workspace_bytes(np.int32(2 ** 31 - 1)) == (18 * (2 ** 31 - 1) + 8) * (2 ** 31 - 1)


def test_grid_points_follow_the_kernel():
    # G = max(257, ceil(8L/sigma) + 1) at L = 2: 8L/sigma = 256 at 0.0625.
    for sigma, g in ((0.4, 257), (0.2, 257), (0.0625, 257), (0.05, 321), (0.03, 535)):
        assert grid_points(HALF_WIDTH, ScatteringFunction(sigma)) == g


def test_grid_step_and_axis(monkeypatch, logistic200, sf02):
    step, scaled_axis = curve_grid(monkeypatch, logistic200, sf02)
    assert step == pytest.approx(4.0 / 256)
    np.testing.assert_array_equal(scaled_axis, span_axis(257) / sf02.sigma)


def test_grid_kernel_resolution_check(monkeypatch):
    # grid_points checks the kernel normalisation 1/(2 pi sigma^2) that
    # info_curve reads and rejects it where sigma^2 underflows to 0 or the
    # normalisation overflows; a floor coarser than sigma/4 is not rejected
    # but refined.
    assert information._kernel_norm(ScatteringFunction(0.2)) == 1.0 / (2.0 * math.pi * 0.2 ** 2)
    for half_width, sigma in ((1e-300, 1e-301), (1e-160, 1e-161)):
        with pytest.raises(InvalidGrid, match="not positive and finite"):
            grid_points(half_width, ScatteringFunction(sigma))
    monkeypatch.setattr(information, "GRID_POINTS", 129)  # h = 0.03125 > 0.1/4
    assert grid_points(HALF_WIDTH, ScatteringFunction(0.1)) == 161


def test_grid_rejects_kernel_wider_than_span(logistic200):
    # A kernel as wide as the grid's square leaks most of its mass out of it.
    for sigma in (2.0, 2.5):
        sf = ScatteringFunction(sigma)
        with pytest.raises(InvalidGrid, match=f"sigma={sigma}, L=2.0"):
            grid_points(HALF_WIDTH, sf)
        with pytest.raises(InvalidGrid):
            info_curve(logistic200, sf, half_width=HALF_WIDTH)


# --- entropy quadrature -----------------------------------------------------

def test_entropy_of_uniform_reference(monkeypatch, logistic200, sf02):
    # The uniform density 1/(2L)^2 has quadrature entropy 2 log(2L) exactly
    # when the trapezoid weights of each axis, (G - 1) steps in all, sum to
    # the span width 2L.
    step, scaled_axis = curve_grid(monkeypatch, logistic200, sf02)
    weight_sum = (scaled_axis.size - 1) * step
    assert weight_sum == pytest.approx(2.0 * HALF_WIDTH, rel=1e-12)


def test_entropy_of_centered_kernel_matches_gaussian_closed_form(sf02):
    expected = 2.0 * math.log(sf02.sigma) + LOG_2PIE  # -0.3809987584588552
    assert abs(kernel_entropy(sf02, 0.0, 0.0) - expected) <= 1e-6


def test_entropy_of_corner_kernel_is_quarter_of_full(sf02):
    # A kernel centered on the span corner has exactly one quadrant inside,
    # and -f log f is symmetric about the center, so the span integral is a
    # quarter of the full-plane value. (It is *larger* than the full value
    # here, not smaller: the peak exceeds 1, so the omitted quadrants carry
    # negative integrand.)
    full = 2.0 * math.log(sf02.sigma) + LOG_2PIE
    corner = kernel_entropy(sf02, HALF_WIDTH, HALF_WIDTH)
    assert abs(corner - full / 4.0) <= 1e-6
    assert corner > full


# --- indeterminacy and information ------------------------------------------

@pytest.mark.parametrize("point,tol", [(None, 1e-2), ((0.1, -0.2), 1e-3)],
                         ids=["first-sample", "off-centre"])
def test_information_of_one_sample_is_zero(point, tol, logistic200, sf02):
    # One kernel's entropy less one kernel's; None is the benchmark's first sample.
    data = logistic200.prefix(1) if point is None else Dataset([point[0]], [point[1]])
    assert abs(one_point_info(data, sf02)) <= tol


def test_indeterminacy_never_positive(logistic200, sf02):
    # H_z = H - 2 log(2L) <= 0: mass m <= 1 on the square, of area A = 16,
    # has entropy at most m log(A/m) <= log A.
    ref = 2.0 * math.log(2.0 * HALF_WIDTH)
    curve = info_curve(logistic200, sf02, schedule=[1, 5, 20, 80, 200], half_width=HALF_WIDTH)
    for rec in curve.records:
        assert rec.info + LOG_2PIE + 2.0 * math.log(sf02.sigma) <= ref + 1e-9


def test_indeterminacy_agrees_with_generic_quadrature(logistic200, sf02):
    # The record's entropy against np.trapezoid over the brute-force joint grid.
    data = logistic200.prefix(50)
    axis = span_axis(257)
    joint = kde_joint_grid(data.x, data.y, sf02.sigma, axis)
    h = one_point_info(data, sf02) + LOG_2PIE + 2.0 * math.log(sf02.sigma)
    assert h == pytest.approx(entropy_grid(joint, axis), rel=1e-12)


def test_indeterminacy_with_most_nodes_unreached():
    # Four clustered narrow kernels leave most of the span at a density of
    # exactly 0, where the curve's running sum holds only DENSITY_FLOOR.
    # sigma = 0.05 sets G = 321 (step sigma/4).
    sf = ScatteringFunction(0.05)
    axis = span_axis(321)
    data = Dataset([1.5, 1.4, 1.6, 1.45], [1.5, 1.6, 1.3, 1.55])
    joint = kde_joint_grid(data.x, data.y, sf.sigma, axis)
    assert np.count_nonzero(joint == 0.0) == 67274
    h = one_point_info(data, sf) + LOG_2PIE + 2.0 * math.log(sf.sigma)
    assert h == pytest.approx(entropy_grid(joint, axis), rel=1e-12)


def test_information_of_four_isolated_kernels_is_log4():
    sf = ScatteringFunction(0.05)  # G = 321, step = sigma/4
    data = Dataset([1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    assert one_point_info(data, sf) == pytest.approx(math.log(4.0), abs=0.02)


def test_information_of_identical_samples_is_zero(sf02):
    data = Dataset([0.3] * 16, [-0.82] * 16)
    curve = info_curve(data, sf02, schedule=[1, 2, 4, 8, 16], half_width=HALF_WIDTH)
    for rec in curve.records:
        assert abs(rec.info) <= 1e-2
    assert curve.n_opt == 1  # cost = log N - 2I grows with N when I stays 0


def test_information_bounds_on_benchmark(logistic200, sf02):
    curve = info_curve(logistic200, sf02, half_width=HALF_WIDTH)
    tol = 5e-2
    for rec in curve.records:
        assert -tol <= rec.info <= rec.log_n + tol


def test_information_is_grid_converged(monkeypatch, logistic200, sf02):
    coarse = one_point_info(logistic200, sf02)
    monkeypatch.setattr(information, "GRID_POINTS", 514)
    fine = one_point_info(logistic200, sf02)
    assert abs(coarse - fine) <= 1e-3


def test_information_limit_decreases_with_sigma(logistic200):
    limits = [info_curve(logistic200, ScatteringFunction(s), half_width=HALF_WIDTH).info_limit
              for s in (0.1, 0.2, 0.4)]
    assert limits[0] > limits[1] > limits[2]


def test_curve_matches_per_prefix_models_across_blocks(logistic600, sf02):
    # Schedule points on both sides of the boundaries of the kernel-row
    # blocks the curve uses at this grid (128 samples at G = 257), after
    # three one-sample segments; the last segment takes three blocks.
    block = _kernel_rows([len(logistic600)], 257)
    schedule = [1, 2, 3, block - 1, block, block + 1, 2 * block - 1, 600]
    assert _kernel_rows(schedule, 257) == block
    assert schedule[-1] - schedule[-2] > 2 * block
    curve = info_curve(logistic600, sf02, schedule=schedule, half_width=HALF_WIDTH)
    assert [r.n for r in curve.records] == schedule
    axis = span_axis(257)
    offset = LOG_2PIE + 2.0 * math.log(sf02.sigma)
    for rec in curve.records:
        prefix = logistic600.prefix(rec.n)
        # A streaming record is the curve of its prefix alone...
        alone = one_point_info(prefix, sf02)
        assert rec.info == pytest.approx(alone, rel=1e-12, abs=0)
        # ...and the entropy of the brute-force joint grid, which agrees
        # with the library's to rtol 1e-10 (test_joint_grid_matches_brute_force).
        joint = kde_joint_grid(prefix.x, prefix.y, sf02.sigma, axis)
        assert abs(rec.info - (entropy_grid(joint, axis) - offset)) <= 1e-9


@pytest.mark.parametrize("fixture,schedule,sigma,g", [
    pytest.param("logistic200", None, 0.2, 257, id="logistic200-None"),
    pytest.param("logistic200", [200], 0.2, 257, id="logistic200-schedule1"),
    pytest.param("logistic600", None, 0.2, 257, id="logistic600-None"),
    pytest.param("logistic200", None, 0.05, 321, id="logistic200-None-sigma0.05")])
def test_curve_holds_three_grids_at_most(request, fixture, schedule, sigma, g):
    # The running sum, the kernel rows of one block (at most one grid) and a
    # panel of ceil(G/4) grid rows are one workspace allocated once per
    # curve, at most 2.25 grids and one row. At sigma = 0.05 the step
    # <= sigma/4 sets G = 321 over the 257 floor. The traced peak is that
    # workspace plus 32 KB for the axis-sized vectors and the block's
    # scaled samples.
    data = request.getfixturevalue(fixture)
    block = _kernel_rows(resolve_schedule(schedule, len(data)), g)
    tracemalloc.start()
    try:
        info_curve(data, ScatteringFunction(sigma), schedule, half_width=HALF_WIDTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (g + 2 * block + math.ceil(g / 4)) * g + 32 * 1024


def test_curve_allocates_its_grids_in_one_block(monkeypatch, logistic200, sf02):
    # At the curve's first entropy every grid-sized array it holds is live:
    # the running sum, the kernel rows and the panel are views of one
    # workspace, so one traced block of at least 64 G bytes is held. The
    # default ladder's largest segment on 200 samples is 52 (128 to 180),
    # so the kernel rows are 2 x 52 grid rows, and the panel is ceil(G/4).
    g = grid_points(HALF_WIDTH, sf02)
    snapshots = []
    entropy = information._entropy

    def first_entropy_snapshot(*args):
        if not snapshots:
            snapshots.append(tracemalloc.take_snapshot())
        return entropy(*args)

    monkeypatch.setattr(information, "_entropy", first_entropy_snapshot)
    tracemalloc.start()
    try:
        info_curve(logistic200, sf02, half_width=HALF_WIDTH)
    finally:
        tracemalloc.stop()
    large = [t.size for t in snapshots[0].traces if t.size >= 64 * g]
    assert len(large) == 1
    assert large[0] == 8 * (g + 2 * 52 + 65) * g <= 8 * (2.25 * g ** 2 + g)


# --- records and curve ------------------------------------------------------

def test_record_identities_are_exact():
    rec = InfoRecord(22, 1.7321)
    assert rec.log_n == math.log(22)
    assert rec.redundancy == rec.log_n - rec.info
    assert rec.cost == rec.log_n - 2.0 * rec.info
    assert rec.complexity == math.exp(rec.info)


def test_curve_structure(logistic200, sf02):
    curve = info_curve(logistic200, sf02, half_width=HALF_WIDTH)
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


def test_schedule_validation(logistic200, sf02):
    # A prefix size is a count: a non-integer entry is rejected, not
    # truncated, however close to an integer; numpy integers are counts.
    # A bool is not a count either, though Python takes True for 1.
    for bad in ([1, 1, 2], [0, 5], [1, 500], [], [1, 2.5, 3.9], [1.0, 2.0],
                np.array([1.0, 2.0]), ["1", "2"], [True, 2]):
        with pytest.raises(InvalidSchedule):
            info_curve(logistic200, sf02, schedule=bad, half_width=HALF_WIDTH)
    for bad in (10.5, 10.0, 0, -3, True):
        with pytest.raises(InvalidSchedule):
            default_schedule(bad)
    with pytest.raises(InvalidSchedule):
        quality_sweep(logistic200, logistic200, sf02, [1.5, 4.2])
    records = info_curve(logistic200, sf02, schedule=np.array([1, 4]), half_width=HALF_WIDTH)
    assert [r.n for r in records.records] == [1, 4]
    assert default_schedule(np.int64(5)) == [1, 2, 3, 4, 5]


def test_curve_requires_fine_enough_grid(monkeypatch, logistic200):
    # The grid's node count is a floor: at sigma = 0.1, a floor of 129 nodes
    # (h = 0.03125 > sigma/4) becomes the ceil(8L/sigma) + 1 = 161 of
    # h = sigma/4 = 0.025.
    sf = ScatteringFunction(0.1)
    curves = []
    for floor in (129, 161):
        monkeypatch.setattr(information, "GRID_POINTS", floor)
        curves.append(info_curve(logistic200, sf, half_width=HALF_WIDTH).records)
    assert curves[0] == curves[1]


def test_curve_csv_outputs(tmp_path, logistic200, sf02):
    # The CLI lays out the curve; summary.csv reads back as the curve's numbers.
    data = tmp_path / "samples.csv"
    write_dataset_csv(logistic200, data)
    assert main(["info", "--basic", str(data), "--sigma", "0.2",
                 "--schedule", "1,4,16,64", "--out-dir", str(tmp_path)]) == 0
    curve = info_curve(logistic200, sf02, schedule=[1, 4, 16, 64], half_width=HALF_WIDTH)
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


def test_schedule_over_an_empty_dataset_raises_empty_dataset(sf02):
    empty = Dataset([], [])
    with pytest.raises(EmptyDataset):
        info_curve(empty, sf02, half_width=HALF_WIDTH)
    with pytest.raises(EmptyDataset):
        info_curve(empty, sf02, schedule=[1, 2], half_width=HALF_WIDTH)
    with pytest.raises(EmptyDataset):
        quality_sweep(empty, Dataset([0.0, 1.0], [0.0, 1.0]), sf02)


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.4])
def test_information_is_invariant_under_symmetries_of_the_span(sigma):
    # The span square, the grid and the kernel are symmetric under swapping
    # and negating the channels, and a point of the curve reads its prefix
    # as a set. On seeds 1-3 the largest deviation was 1.8e-15 (seed 1: 8.9e-16).
    data = generate(GenerationMeta(seed=1, sigma_noise=sigma, n=200))
    sf = ScatteringFunction(sigma)
    start = default_schedule(len(data))[-2]  # of the last schedule segment
    order = np.r_[np.arange(start), start + np.random.default_rng(1).permutation(len(data) - start)]
    variants = [Dataset(data.y, data.x), Dataset(-data.x, data.y),
                Dataset(-data.x, -data.y), Dataset(data.x[order], data.y[order])]
    info = [r.info for r in info_curve(data, sf, half_width=HALF_WIDTH).records]
    for variant in variants:
        moved = [r.info for r in info_curve(variant, sf, half_width=HALF_WIDTH).records]
        np.testing.assert_allclose(moved, info, rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_information_is_invariant_under_a_change_of_unit(seed):
    # Scaling the data, sigma and L together by a power of two is exact in
    # binary: G and the kernel sum S are bit-identical, and only log c of
    # the normalisation c = 1/(2 pi sigma^2 n) moves, by -2k log 2. At
    # k = 400, c * DENSITY_FLOOR underflows to 0; at k = -400, c reaches
    # about 1e242. I moves by 2k log 2 (m - 1), m the kernel mass inside
    # the span, which at sigma = 0.1 is 1 to about 1e-13: on seeds 1-3 the
    # largest deviation was 2.9e-11.
    data = generate(GenerationMeta(seed=seed, sigma_noise=0.1, n=200))
    info = [r.info for r in info_curve(data, ScatteringFunction(0.1),
                                       half_width=HALF_WIDTH).records]
    for k in (-400, -10, 10, 400):
        scale = 2.0 ** k
        scaled = Dataset(data.x * scale, data.y * scale)
        moved = [r.info for r in info_curve(scaled, ScatteringFunction(0.1 * scale),
                                            half_width=HALF_WIDTH * scale).records]
        np.testing.assert_allclose(moved, info, rtol=0, atol=1e-10)


def test_information_reads_the_half_width_only_as_the_grid_extent(monkeypatch):
    # Two squares at the same step 1/64 whose nodes hold every kernel of a
    # set with |x|, |y| < 1.15 to 8.5 sigma: no mass leaks from either, so
    # the records agree to rounding whatever L is. L = 2 takes the 257-node
    # floor and L = 3 a floor of 385.
    data = generate(GenerationMeta(seed=1, sigma_noise=0.05, n=200))
    assert max(np.abs(data.x).max(), np.abs(data.y).max()) < 1.15
    sf = ScatteringFunction(0.1)
    assert grid_points(2.0, sf) == 257 and 4.0 / 256 == 6.0 / 384 == 1.0 / 64
    at = [r.info for r in info_curve(data, sf, half_width=2.0).records]
    monkeypatch.setattr(information, "GRID_POINTS", 385)
    assert grid_points(3.0, sf) == 385
    np.testing.assert_allclose([r.info for r in info_curve(data, sf, half_width=3.0).records], at,
                               rtol=0, atol=1e-13)


def test_info_curve_is_deterministic(logistic200, sf02):
    curves = [info_curve(logistic200, sf02, half_width=HALF_WIDTH) for _ in range(2)]
    assert curves[0] == curves[1]
