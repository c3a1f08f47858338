import math
import tracemalloc
import warnings

import numpy as np
import pytest

from expmodel import (CaPredictor, Dataset, DensityModel, EmptyDataset,
                      InvalidParameter, ScatteringFunction, ShapeMismatch,
                      read_dataset_csv, write_dataset_csv)
from expmodel.density import accumulate_kernel_products
from expmodel.generator import FLOATS_PER_SAMPLE, GenerationMeta, generate
from expmodel.information import _kernel_rows
from oracles import (extended_axis, gauss, kde_joint_grid, kde_marginal_grid,
                     trap1, trap2)


@pytest.fixture()
def one_sample_model(sf02):
    return DensityModel(Dataset([0.4], [-0.9]), sf02)


# The kernel-row block info_curve uses at G = 257: half the grid points.
CURVE_ROWS = _kernel_rows([600], 257)


def kernel_product_sum(data, sigma, xs, ys):
    """The joint grid sum_i g(xs - x_i) g(ys - y_i)^T, not divided by the
    sample count, from the accumulator info_curve runs, with kernel-row
    buffers of CURVE_ROWS samples: the axes are passed divided by sigma, as
    info_curve passes them, and the sum is normalised here."""
    with np.errstate(over="ignore"):  # a far query scales to an infinite one
        xs = np.asarray(xs, dtype=float) / sigma
        ys = np.asarray(ys, dtype=float) / sigma
    out = np.zeros((xs.size, ys.size))
    accumulate_kernel_products(out, data.x, data.y, xs, ys, sigma, scratch=np.empty_like(out),
                               gx=np.empty((CURVE_ROWS, xs.size)),
                               gy=np.empty((CURVE_ROWS, ys.size)))
    return out / (2.0 * math.pi * sigma ** 2)


def test_dataset_validation():
    with pytest.raises(ShapeMismatch):
        Dataset([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParameter):
        Dataset([1.0, float("nan")], [0.0, 0.0])
    with pytest.raises(InvalidParameter):
        Dataset([1.0], [1.0], x_clean=[1.0])  # clean columns come in pairs


def test_dataset_prefix_preserves_order(logistic200):
    p = logistic200.prefix(10)
    assert len(p) == 10
    assert np.array_equal(p.x, logistic200.x[:10])
    assert np.array_equal(p.y, logistic200.y[:10])
    assert np.array_equal(p.x_clean, logistic200.x_clean[:10])
    with pytest.raises(InvalidParameter):
        logistic200.prefix(0)
    with pytest.raises(InvalidParameter):
        logistic200.prefix(201)


def test_dataset_columns_are_read_only(logistic200):
    with pytest.raises(ValueError):
        logistic200.x[0] = 0.0


def test_dataset_copies_what_it_is_given():
    x, y = np.array([0.1, 0.2]), np.array([1.0, -1.0])
    ds = Dataset(x, y)
    x[0] = 5.0
    assert ds.x.tolist() == [0.1, 0.2]
    assert not ds.y.flags.writeable


def test_model_requires_samples(sf02):
    with pytest.raises(EmptyDataset):
        DensityModel(Dataset([], []), sf02)


def test_joint_single_sample_peak(one_sample_model):
    assert one_sample_model.joint_pdf(0.4, -0.9) == pytest.approx(3.978873577297384, rel=1e-12)


def test_joint_two_samples_is_mean_of_kernels(sf02):
    m = DensityModel(Dataset([-0.5, 0.5], [0.0, 0.0]), sf02)
    z = (0.0, 0.1)  # equidistant in x from both samples
    k = gauss(z[0], -0.5, sf02.sigma) * gauss(z[1], 0.0, sf02.sigma)
    k2 = gauss(z[0], 0.5, sf02.sigma) * gauss(z[1], 0.0, sf02.sigma)
    assert m.joint_pdf(*z) == pytest.approx(0.5 * (k + k2), rel=1e-12)
    assert m.joint_pdf(*z) == pytest.approx(k, rel=1e-12)  # the two kernel values agree


def test_joint_mass_is_one(logistic200, sf02, span):
    axis = extended_axis(span.half_width, sf02.sigma)
    values = kernel_product_sum(logistic200, sf02.sigma, axis, axis) / len(logistic200)
    assert abs(trap2(values, axis) - 1.0) <= 1e-4


def test_joint_grid_matches_pointwise(model200):
    xs = np.linspace(-1.5, 1.5, 7)
    ys = np.linspace(-1.2, 1.2, 5)
    # The accumulator's grid against the pointwise mean of kernel products.
    grid = kernel_product_sum(model200.data, model200.sf.sigma, xs, ys) / len(model200.data)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert grid[a, b] == pytest.approx(model200.joint_pdf(x, y), rel=1e-9)


def test_joint_grid_matches_brute_force(logistic200, logistic600, sf02):
    # In blocks of CURVE_ROWS samples, 25 fit in one; 600 fill four and part
    # of a fifth.
    assert 4 * CURVE_ROWS < len(logistic600) < 5 * CURVE_ROWS
    axis = np.linspace(-2.0, 2.0, 41)
    for data in (logistic200.prefix(25), logistic600):
        expected = kde_joint_grid(data.x, data.y, sf02.sigma, axis)
        got = kernel_product_sum(data, sf02.sigma, axis, axis) / len(data)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-300)


def test_marginal_single_sample_peak(one_sample_model):
    assert one_sample_model.marginal_pdf(0.4) == pytest.approx(1.9947114020071635, rel=1e-12)


def test_marginal_two_samples_at_unit_offsets(sf02):
    m = DensityModel(Dataset([-1.0, 1.0], [0.3, 0.4]), sf02)
    expected = 1.9947114020071635 * math.exp(-12.5)
    assert m.marginal_pdf(0.0) == pytest.approx(expected, rel=1e-12)


def test_marginal_equals_joint_integrated_over_y(model200, sf02, span):
    rng = np.random.default_rng(11)
    axis_y = extended_axis(span.half_width, sf02.sigma)
    for x in rng.uniform(-1.5, 1.5, size=10):
        joint_row = [model200.joint_pdf(x, y) for y in axis_y]
        assert abs(model200.marginal_pdf(x) - trap1(joint_row, axis_y)) <= 1e-6


def test_conditional_single_sample_ignores_x(one_sample_model, sf02):
    for x in (-1.7, 0.0, 0.4, 2.5):
        for y in (-1.2, -0.9, 0.3):
            expected = gauss(y, -0.9, sf02.sigma)
            assert one_sample_model.conditional_pdf(y, x) == pytest.approx(expected, rel=1e-10)


def test_conditional_normalizes(model200, sf02, span):
    rng = np.random.default_rng(13)
    axis_y = extended_axis(span.half_width, sf02.sigma)
    for x in rng.uniform(-1.5, 1.5, size=10):
        dens = np.array([model200.conditional_pdf(y, x) for y in axis_y])
        assert abs(trap1(dens, axis_y) - 1.0) <= 1e-6


def test_conditional_peaks_at_shared_y(sf02):
    m = DensityModel(Dataset([-1.0, 0.0, 1.0], [0.25, 0.25, 0.25]), sf02)
    ys = np.linspace(-1, 1, 401)
    for x in (-1.0, 0.3, 5.0):
        dens = [m.conditional_pdf(y, x) for y in ys]
        assert ys[int(np.argmax(dens))] == pytest.approx(0.25, abs=0.01)


def test_mixture_linearity(sf02):
    rng = np.random.default_rng(5)
    a = Dataset(rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7))
    b = Dataset(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
    both = Dataset(np.concatenate([a.x, b.x]), np.concatenate([a.y, b.y]))
    ma, mb, mc = (DensityModel(d, sf02) for d in (a, b, both))
    for x, y in rng.uniform(-1.5, 1.5, size=(20, 2)):
        mixed = (7 * ma.joint_pdf(x, y) + 4 * mb.joint_pdf(x, y)) / 11
        assert mc.joint_pdf(x, y) == pytest.approx(mixed, rel=1e-12)


def test_conditional_times_marginal_is_joint(model200):
    rng = np.random.default_rng(17)
    for x, y in rng.uniform(-1.2, 1.2, size=(25, 2)):
        product = model200.conditional_pdf(y, x) * model200.marginal_pdf(x)
        assert product == pytest.approx(model200.joint_pdf(x, y), rel=1e-12)


# Oracle sums above this stay clear of the subnormal range, where the plain
# Gaussians of the oracle lose relative precision.
ORACLE_FLOOR = 1e-290


@pytest.mark.parametrize("sigma", [0.2, 1.0])
def test_pointwise_densities_match_brute_force(logistic200, span, sigma):
    # The wide kernel keeps the oracle above underflow out to |x| = 10 L.
    m = DensityModel(logistic200, ScatteringFunction(sigma))
    far = np.geomspace(span.half_width, 10 * span.half_width, 8)
    xs = np.concatenate([np.linspace(-span.half_width, span.half_width, 17), far, -far])
    ys = np.linspace(-span.half_width, span.half_width, 5)

    expected = kde_marginal_grid(logistic200.x, sigma, xs)
    ok = expected > ORACLE_FLOOR
    got = np.array([m.marginal_pdf(x) for x in xs])
    np.testing.assert_allclose(got[ok], expected[ok], rtol=1e-12, atol=0)

    checked = 0
    for x in xs:
        gx = gauss(x, logistic200.x, sigma)
        for y in ys:
            num = gx @ gauss(y, logistic200.y, sigma)
            den = gx.sum()
            if min(num, den) > ORACLE_FLOOR:
                assert m.conditional_pdf(y, x) == pytest.approx(num / den, rel=1e-12)
                checked += 1
    assert ok.sum() >= 17 and checked >= 17 * len(ys)
    if sigma == 1.0:
        assert ok.all() and checked == xs.size * ys.size


def test_densities_finite_and_nonnegative_everywhere(model200, span):
    # Conditional stays positive arbitrarily far out thanks to the log-domain
    # weights; joint and marginal may underflow to zero but never go negative.
    for x in (-10 * span.half_width, -2.0, 0.0, 3.7, 10 * span.half_width):
        c = model200.conditional_pdf(0.2, x)
        assert math.isfinite(c) and c > 0
        for v in (model200.joint_pdf(x, 0.2), model200.marginal_pdf(x)):
            assert math.isfinite(v) and v >= 0
    assert model200.marginal_pdf(2.5) > 0
    assert model200.joint_pdf(0.0, 0.1) > 0


@pytest.mark.parametrize("far", [1e200, -1.7e308])
def test_far_queries_give_zero_density_without_warnings(model200, far):
    # The squared scaled distance overflows to inf here, and the kernel's
    # correctly rounded value is 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model200.marginal_pdf(far) == 0.0
        assert model200.joint_pdf(far, 0.0) == 0.0
        assert model200.joint_pdf(0.0, far) == 0.0
        assert model200.conditional_pdf(far, 0.0) == 0.0
        grid = kernel_product_sum(model200.data, model200.sf.sigma, [far, 0.0], [0.0, far])
        assert not grid[0].any() and not grid[:, 1].any()


def test_query_validation(model200):
    with pytest.raises(InvalidParameter):
        model200.joint_pdf(float("nan"), 0.0)
    with pytest.raises(InvalidParameter):
        model200.marginal_pdf(float("inf"))
    with pytest.raises(InvalidParameter):
        model200.conditional_pdf(0.0, float("nan"))


@pytest.mark.parametrize("query", [
    lambda m, q: m.joint_pdf(q, 0.0),
    lambda m, q: m.joint_pdf(0.0, q),
    lambda m, q: m.marginal_pdf(q),
    lambda m, q: m.conditional_pdf(q, 0.0),
    lambda m, q: m.conditional_pdf(0.0, q),
    lambda m, q: m.weights(q),
    lambda m, q: m.predict(q),
], ids=["joint_x", "joint_y", "marginal", "conditional_y", "conditional_x",
        "weights", "predict"])
@pytest.mark.parametrize("value", [np.array([0.0, 1.0]), [0.5], np.array([[0.5]])],
                         ids=["pair", "list", "matrix"])
def test_pointwise_queries_reject_arrays(sf02, query, value):
    # Two samples, so a two-query array would broadcast against them silently.
    m = CaPredictor(Dataset([0.0, 1.0], [0.0, 1.0]), sf02)
    with pytest.raises(InvalidParameter):
        query(m, value)
    query(m, np.float64(0.5))  # a numpy scalar is a scalar


def test_csv_round_trip(tmp_path, logistic200):
    path = tmp_path / "samples.csv"
    write_dataset_csv(logistic200, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.x, logistic200.x)
    assert np.array_equal(back.y, logistic200.y)
    assert np.array_equal(back.x_clean, logistic200.x_clean)
    assert np.array_equal(back.y_clean, logistic200.y_clean)
    assert back.meta.seed == 1 and back.meta.n == 200
    assert back.meta.sigma_noise == 0.2
    assert back.meta.map_name == "ulam" and back.meta.prng_name == "pcg64"


@pytest.mark.parametrize("comment", ["map=henon prng=pcg64", "map=ulam prng=mt19937"])
def test_csv_from_another_generator_loads_without_meta(tmp_path, comment):
    path = tmp_path / "other.csv"
    path.write_text(f"# seed=1 sigma=0.2 {comment} n=2\ni,x,y\n1,0.1,0.2\n2,0.3,0.4\n")
    back = read_dataset_csv(path)
    assert back.meta is None
    assert back.x.tolist() == [0.1, 0.3] and back.y.tolist() == [0.2, 0.4]


def test_csv_with_a_negative_seed_loads_without_meta(tmp_path):
    path = tmp_path / "negative.csv"
    path.write_text("# seed=-1 sigma=0.2 map=ulam prng=pcg64 n=1\ni,x,y\n1,0.1,0.2\n")
    back = read_dataset_csv(path)
    assert back.meta is None and back.x.tolist() == [0.1]


def test_csv_without_clean_columns(tmp_path):
    ds = Dataset([0.1, 0.2], [1.0, -1.0])
    path = tmp_path / "plain.csv"
    write_dataset_csv(ds, path)
    text = path.read_text()
    assert text.splitlines()[0] == "i,x,y"
    back = read_dataset_csv(path)
    assert not back.has_clean and back.meta is None
    assert np.array_equal(back.x, ds.x)


def test_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidParameter):
        read_dataset_csv(path)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dataset20k():
    return generate(GenerationMeta(seed=1, sigma_noise=0.2, n=20000))


def test_csv_writer_fits_the_generate_budget(tmp_path, dataset20k):
    # generate checks 8 * FLOATS_PER_SAMPLE bytes per sample up front; the
    # writer converts rows to Python floats a block at a time, within that.
    n = len(dataset20k)
    assert _peak_bytes(write_dataset_csv, dataset20k, tmp_path / "s.csv") < 8 * FLOATS_PER_SAMPLE * n


def test_csv_reader_holds_no_python_float_per_cell(tmp_path, dataset20k):
    # The reader holds one parsed float64 table (4 columns here) and its
    # growth slack; the dataset's columns are views of it, not a second copy.
    # A Python float per cell alone would take more.
    path = tmp_path / "s.csv"
    write_dataset_csv(dataset20k, path)
    assert _peak_bytes(read_dataset_csv, path) < 1.5 * 8 * 4 * len(dataset20k)
    back = read_dataset_csv(path)
    assert np.may_share_memory(back.x, back.y_clean)
    for column in (back.x, back.y, back.x_clean, back.y_clean):
        assert not column.flags.writeable


def test_prefix_copies_no_column(dataset20k):
    n = len(dataset20k) - 1
    # Revalidating the prefix takes one bool per sample; a copy of one column
    # would take eight bytes.
    assert _peak_bytes(dataset20k.prefix, n) < 2 * n
    p = dataset20k.prefix(n)
    assert np.shares_memory(p.x, dataset20k.x)
    assert np.shares_memory(p.y_clean, dataset20k.y_clean)
    assert not p.y.flags.writeable


def test_generated_csv_prefix_comment(tmp_path):
    ds = generate(GenerationMeta(seed=9, sigma_noise=0.1, n=5))
    path = tmp_path / "gen.csv"
    write_dataset_csv(ds, path)
    first = path.read_text().splitlines()[0]
    assert first == "# seed=9 sigma=0.1 map=ulam prng=pcg64 n=5"
