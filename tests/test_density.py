import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmodel import (CaPredictor, Dataset, DensityModel, EmptyDataset,
                      InvalidParameter, ScatteringFunction, ShapeMismatch,
                      read_dataset_csv, write_dataset_csv)
from expmodel.generator import FLOATS_PER_SAMPLE, GenerationMeta, generate
from expmodel.information import _kernel_rows, _panel_rows, accumulate_kernel_products
from expmodel.scattering import _difference_operands, gaussian_exponent
from conftest import HALF_WIDTH
from oracles import dataset_rows, extended_axis, gauss, kde_joint_grid, trap1, trap2


@pytest.fixture()
def one_sample_model(sf02):
    return DensityModel(Dataset([0.4], [-0.9]), sf02)


# The kernel-row block info_curve uses at G = 257: half the grid points.
CURVE_ROWS = _kernel_rows([600], 257)


def kernel_product_sum(data, sigma, xs, ys):
    """The joint grid sum_i g(xs - x_i) g(ys - y_i)^T, not divided by the
    sample count, from the accumulator info_curve runs, with a kernel-row
    buffer of blocks of CURVE_ROWS samples and a panel of a quarter of the
    axis, as info_curve sizes them: xs and ys are joined into the one axis
    the accumulator takes, divided by sigma as info_curve passes it, the
    off-diagonal block of its grid is returned, and the sum is normalised
    here."""
    with np.errstate(over="ignore"):  # a far query scales to an infinite one
        axis = np.concatenate([np.ravel(xs), np.ravel(ys)]) / sigma
    g, height = axis.size, _panel_rows(axis.size)
    out = np.zeros((g, g))
    accumulate_kernel_products(out, data.x, data.y, _difference_operands(axis)[0], sigma,
                               rows=np.empty(CURVE_ROWS * (g + height)),
                               panel=np.empty((height, g)))
    nx = np.size(xs)
    return out[:nx, nx:] / (2.0 * math.pi * sigma ** 2)


def conditional_density(model, ys, x):
    """The conditional density of y given x at each of ys: the similarities
    C_i(x) weighting the y-channel Gaussians of the samples."""
    ys = np.asarray(ys, dtype=float)
    g = gauss(ys[..., None], model.data.y, model.sf.sigma)
    return g @ model.weights(x)


def test_dataset_validation():
    with pytest.raises(ShapeMismatch):
        Dataset([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParameter):
        Dataset([1.0, float("nan")], [0.0, 0.0])
    with pytest.raises(InvalidParameter):
        Dataset([[1.0, 2.0]], [[0.0, 0.0]])


def test_dataset_prefix_preserves_order(logistic200):
    p = logistic200.prefix(10)
    assert len(p) == 10
    assert np.array_equal(p.x, logistic200.x[:10])
    assert np.array_equal(p.y, logistic200.y[:10])
    with pytest.raises(InvalidParameter):
        logistic200.prefix(0)
    with pytest.raises(InvalidParameter):
        logistic200.prefix(201)


# A prefix size is a count, checked by prefix itself whatever the meta:
# True does not pass for 1, nor is 2.5 or 3.0 truncated.
@pytest.mark.parametrize("meta", [None, GenerationMeta(seed=1, sigma_noise=0.2)])
def test_prefix_size_is_a_count_in_range(meta):
    data = Dataset([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8], meta=meta)
    for n in (True, 2.5, 3.0, 0, len(data) + 1):
        with pytest.raises(InvalidParameter):
            data.prefix(n)
    p = data.prefix(np.int64(3))
    assert p.x.tolist() == [0.1, 0.2, 0.3] and p.meta == meta


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


def test_joint_single_sample_peak(one_sample_model, sf02):
    grid = kernel_product_sum(one_sample_model.data, sf02.sigma, [0.4], [-0.9])
    assert grid[0, 0] == pytest.approx(3.978873577297384, rel=1e-12)


def test_joint_two_samples_is_mean_of_kernels(sf02):
    data = Dataset([-0.5, 0.5], [0.0, 0.0])
    z = (0.0, 0.1)  # equidistant in x from both samples
    k = gauss(z[0], -0.5, sf02.sigma) * gauss(z[1], 0.0, sf02.sigma)
    k2 = gauss(z[0], 0.5, sf02.sigma) * gauss(z[1], 0.0, sf02.sigma)
    joint = kernel_product_sum(data, sf02.sigma, [z[0]], [z[1]])[0, 0] / len(data)
    assert joint == pytest.approx(0.5 * (k + k2), rel=1e-12)
    assert joint == pytest.approx(k, rel=1e-12)  # the two kernel values agree


def test_joint_mass_is_one(logistic200, sf02):
    axis = extended_axis(HALF_WIDTH, sf02.sigma)
    values = kernel_product_sum(logistic200, sf02.sigma, axis, axis) / len(logistic200)
    assert abs(trap2(values, axis) - 1.0) <= 1e-4


def test_joint_grid_matches_pointwise(model200):
    xs = np.linspace(-1.5, 1.5, 7)
    ys = np.linspace(-1.2, 1.2, 5)
    data, sigma = model200.data, model200.sf.sigma
    # The accumulator's grid against the pointwise mean of kernel products.
    grid = kernel_product_sum(data, sigma, xs, ys) / len(data)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            pointwise = np.mean(gauss(x, data.x, sigma) * gauss(y, data.y, sigma))
            assert grid[a, b] == pytest.approx(pointwise, rel=1e-9)


def test_joint_grid_matches_brute_force(logistic200, logistic600, sf02):
    # In blocks of CURVE_ROWS samples, 25 fit in one; 600 fill four and part
    # of a fifth.
    assert 4 * CURVE_ROWS < len(logistic600) < 5 * CURVE_ROWS
    axis = np.linspace(-2.0, 2.0, 41)
    for data in (logistic200.prefix(25), logistic600):
        expected = kde_joint_grid(data.x, data.y, sf02.sigma, axis)
        got = kernel_product_sum(data, sf02.sigma, axis, axis) / len(data)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-300)


def subtract_outer_kernel_products(out, x, y, axis, sigma, block, height):
    """accumulate_kernel_products with each block's kernel rows built by
    np.subtract.outer in fresh arrays, the same exponent, bands and adds."""
    with np.errstate(over="ignore"):
        for lo in range(0, len(x), block):
            kxt = np.subtract.outer(axis, x[lo:lo + block] / sigma)
            ky = np.ascontiguousarray(np.subtract.outer(axis, y[lo:lo + block] / sigma).T)
            np.exp(gaussian_exponent(kxt, out=kxt), out=kxt)
            np.exp(gaussian_exponent(ky, out=ky), out=ky)
            for r in range(0, len(axis), height):
                out[r:r + height] += np.dot(kxt[r:r + height], ky)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
@pytest.mark.parametrize("g,block,n", [(41, 3, 8), (257, CURVE_ROWS, 300), (257, 52, 13),
                                       (41, 1, 5), (41, 2731, 2735)])
def test_kernel_products_equal_subtract_outer_rows(fill, g, block, n):
    # Each difference axis_j - v_i/sigma is one rounded sum either way, so
    # the grid is byte-equal to the reference's. A block's x rows are built
    # a band of ceil(G/4) grid rows at a time: at G = 41 (bands of 11, 11,
    # 11 and 8) blocks of 3 end in a partial band and a partial block; at
    # G = 257 blocks of 128 (bands of 65 and a last of 62) end in one of 44
    # samples, and 13 samples fill part of one block of 52; blocks of one
    # sample and of 2731 (over np.getbufsize() // 3) take the broadcast,
    # and the last 4 of 2735 the rank-2 products. The samples include one
    # on a grid node (sigma = 0.25 divides exactly), x = -0.0 and one whose
    # scaled value overflows, which adds a zero row without a warning. The
    # row and panel buffers start as fill, which must not leak into the grid.
    sigma = 0.25
    axis = np.linspace(-HALF_WIDTH, HALF_WIDTH, g) / sigma
    x, y = np.random.default_rng(5).uniform(-2.5, 2.5, (2, n))
    x[0], x[1], x[-1] = axis[g // 3] * sigma, -0.0, 1e308
    assert x[0] / sigma == axis[g // 3] and x[-1] > sigma * np.finfo(float).max
    height = _panel_rows(g)

    def accumulate(xs, ys):
        out = np.zeros((g, g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accumulate_kernel_products(out, xs, ys, _difference_operands(axis)[0], sigma,
                                       rows=np.full(block * (g + height), fill),
                                       panel=np.full((height, g), fill))
        return out

    expected = np.zeros((g, g))
    subtract_outer_kernel_products(expected, x, y, axis, sigma, block, height)
    assert accumulate(x, y).tobytes() == expected.tobytes()
    assert not accumulate(x[-1:], y[-1:]).any()


@pytest.mark.parametrize("g,block,n", [(257, CURVE_ROWS, 300), (257, 52, 13), (41, 7, 20)])
def test_kernel_products_take_either_difference_form_bitwise(g, block, n):
    # Under a ufunc buffer of 16 values, the least numpy takes, every kernel
    # row of more than 5 entries takes the broadcast: the y rows on the axis
    # and the x rows of these multi-sample blocks, which at the default
    # buffer take the rank-2 products. The grid is the same to the byte.
    # np.errstate restores the buffer size on leaving.
    sigma = 0.25
    axis = np.linspace(-HALF_WIDTH, HALF_WIDTH, g) / sigma
    x, y = np.random.default_rng(9).uniform(-2.5, 2.5, (2, n))
    height, bufsize = _panel_rows(g), np.getbufsize()

    def accumulate(form):
        assert _difference_operands(b=x[:block] / sigma)[1].ndim == form
        out = np.zeros((g, g))
        accumulate_kernel_products(out, x, y, _difference_operands(axis)[0], sigma,
                                   rows=np.empty(block * (g + height)),
                                   panel=np.empty((height, g)))
        return out

    rank2 = accumulate(2)
    with np.errstate():
        np.setbufsize(16)
        assert _difference_operands(b=axis)[1] is axis
        broadcast = accumulate(1)
    assert np.getbufsize() == bufsize
    assert broadcast.tobytes() == rank2.tobytes()


def test_conditional_single_sample_ignores_x(one_sample_model, sf02):
    for x in (-1.7, 0.0, 0.4, 2.5):
        for y in (-1.2, -0.9, 0.3):
            expected = gauss(y, -0.9, sf02.sigma)
            assert conditional_density(one_sample_model, y, x) == pytest.approx(expected, rel=1e-10)


def test_conditional_normalizes(model200, sf02):
    rng = np.random.default_rng(13)
    axis_y = extended_axis(HALF_WIDTH, sf02.sigma)
    for x in rng.uniform(-1.5, 1.5, size=10):
        assert abs(trap1(conditional_density(model200, axis_y, x), axis_y) - 1.0) <= 1e-6


def test_conditional_peaks_at_shared_y(sf02):
    m = DensityModel(Dataset([-1.0, 0.0, 1.0], [0.25, 0.25, 0.25]), sf02)
    ys = np.linspace(-1, 1, 401)
    for x in (-1.0, 0.3, 5.0):
        dens = conditional_density(m, ys, x)
        assert ys[int(np.argmax(dens))] == pytest.approx(0.25, abs=0.01)


def test_mixture_linearity(sf02):
    rng = np.random.default_rng(5)
    a = Dataset(rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7))
    b = Dataset(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4))
    both = Dataset(np.concatenate([a.x, b.x]), np.concatenate([a.y, b.y]))
    for x, y in rng.uniform(-1.5, 1.5, size=(20, 2)):
        ja, jb, jc = (kernel_product_sum(d, sf02.sigma, [x], [y])[0, 0] / len(d)
                      for d in (a, b, both))
        assert jc == pytest.approx((7 * ja + 4 * jb) / 11, rel=1e-12)


def test_conditional_times_marginal_is_joint(model200):
    # The marginal is the mean of the x-channel Gaussians, from the oracle;
    # the conditional comes from the weights and the joint from the grid.
    data, sigma = model200.data, model200.sf.sigma
    rng = np.random.default_rng(17)
    for x, y in rng.uniform(-1.2, 1.2, size=(25, 2)):
        marginal = np.mean(gauss(x, data.x, sigma))
        joint = kernel_product_sum(data, sigma, [x], [y])[0, 0] / len(data)
        assert conditional_density(model200, y, x) * marginal == pytest.approx(joint, rel=1e-12)


# Oracle sums above this stay clear of the subnormal range, where the plain
# Gaussians of the oracle lose relative precision.
ORACLE_FLOOR = 1e-290


@pytest.mark.parametrize("sigma", [0.2, 1.0])
def test_pointwise_densities_match_brute_force(logistic200, sigma):
    # The similarities C_i(x) weight the y-channel Gaussians into the
    # conditional density of y given x. The wide kernel keeps the oracle
    # above underflow out to |x| = 10 L.
    m = DensityModel(logistic200, ScatteringFunction(sigma))
    far = np.geomspace(HALF_WIDTH, 10 * HALF_WIDTH, 8)
    xs = np.concatenate([np.linspace(-HALF_WIDTH, HALF_WIDTH, 17), far, -far])
    ys = np.linspace(-HALF_WIDTH, HALF_WIDTH, 5)

    checked = 0
    for x in xs:
        gx = gauss(x, logistic200.x, sigma)
        w = m.weights(x)
        for y in ys:
            gy = gauss(y, logistic200.y, sigma)
            num = gx @ gy
            den = gx.sum()
            if min(num, den) > ORACLE_FLOOR:
                assert w @ gy == pytest.approx(num / den, rel=1e-12)
                checked += 1
    assert checked >= 17 * len(ys)
    if sigma == 1.0:
        assert checked == xs.size * ys.size


def test_densities_finite_and_nonnegative_everywhere(model200):
    # The conditional stays positive arbitrarily far out thanks to the
    # log-domain weights; the joint grid may underflow to zero but never goes
    # negative.
    xs = (-10 * HALF_WIDTH, -2.0, 0.0, 3.7, 10 * HALF_WIDTH)
    for x in xs:
        c = conditional_density(model200, 0.2, x)
        assert math.isfinite(c) and c > 0
    grid = kernel_product_sum(model200.data, model200.sf.sigma, xs, [0.2])
    assert np.isfinite(grid).all() and (grid >= 0).all()
    assert kernel_product_sum(model200.data, model200.sf.sigma, [0.0], [0.1])[0, 0] > 0


@pytest.mark.parametrize("far", [1e200, -1.7e308])
def test_far_queries_give_zero_density_without_warnings(logistic200, sf02, far):
    # The squared scaled distance overflows to inf here, and the kernel's
    # correctly rounded value is 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = kernel_product_sum(logistic200, sf02.sigma, [far, 0.0], [0.0, far])
        assert not grid[0].any() and not grid[:, 1].any()


def test_query_validation(model200):
    with pytest.raises(InvalidParameter):
        model200.weights(float("nan"))
    with pytest.raises(InvalidParameter):
        model200.weights(float("inf"))
    p = CaPredictor(model200.data, model200.sf)
    with pytest.raises(InvalidParameter):
        p.predict_many([0.0, float("nan")])
    with pytest.raises(InvalidParameter):
        p.predict_many([float("-inf")])
    with pytest.raises(InvalidParameter):
        p.predict_many([[0.0, 0.5]])


# weights is the one pointwise query left; predict_many takes arrays.
@pytest.mark.parametrize("query", [lambda m, q: m.weights(q)], ids=["weights"])
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
    assert back.meta.seed == 1 and len(back) == 200
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
    assert back.meta is None
    assert np.array_equal(back.x, ds.x)


# Literals float() reads that a stricter parser might not: an underscore,
# padding, a bare fraction, an underflow to 0 and Arabic-Indic digits.
_FLOAT_LITERALS = ["1_0", " 0.5 ", "+.5", "1e-400", "\u0661\u0662"]


@pytest.mark.parametrize("header, sep, end, extra", [
    ("i,x,y", "\n", "\n", ""),
    ("i,x,y", "\r\n", "\r\n", ""),
    ("i,x,y", "\n\n", "\n", ""),
    ("i,x,y", "\n", "\n\n", ""),
    ("i,x,y,note", "\n", "\n", ",text"),
    ("i,x,y,x_o,y_o", "\n", "\n", ",0.25,-0.5"),
], ids=["lf", "crlf", "blank_lines", "trailing_blank_line", "extra_field", "clean_columns"])
def test_csv_reader_reads_what_float_reads(tmp_path, header, sep, end, extra):
    rows = [f"{k},{x},{y}{extra}" for k, (x, y) in
            enumerate(zip(_FLOAT_LITERALS, _FLOAT_LITERALS[::-1]), start=1)]
    path = tmp_path / "literals.csv"
    path.write_text(header + end + sep.join(rows) + end, newline="")
    back = read_dataset_csv(path)
    expected = np.array([float(t) for t in _FLOAT_LITERALS])
    assert back.x.tobytes() == expected.tobytes()
    assert back.y.tobytes() == expected[::-1].tobytes()


# Cells float() rejects, then values it reads that a dataset rejects.
_BAD_CELLS = ["", " ", "abc", '"0.1"', "0.1#c", "1__0", "0x1p3", "1e", "--1", "0.1\x00",
              "inf", "-1e400", "nan"]
_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
                  st.sampled_from(_FLOAT_LITERALS))
_ROW = st.one_of(
    st.tuples(_CELL, _CELL, st.sampled_from(["", ",z"])).map(lambda r: f"7,{r[0]},{r[1]}{r[2]}"),
    st.sampled_from(["", " ", "\t", "7,0.5"]),  # blank, whitespace-only and short rows
    st.tuples(_CELL, st.sampled_from(_BAD_CELLS), st.booleans()).map(
        lambda r: f"7,{r[0]},{r[1]}" if r[2] else f"7,{r[1]},{r[0]}"),
)
_COMMENTS = [("", None),
             ("# seed=3 sigma=0.5 map=ulam prng=pcg64\n", GenerationMeta(3, 0.5)),
             ("# seed=3 sigma=0.5 map=henon prng=pcg64\n", None)]


@settings(max_examples=40, deadline=None)
@given(comment_meta=st.sampled_from(_COMMENTS),
       header=st.sampled_from(["i,x,y"] * 3 + ["i,x,y,note"]),
       pad=st.sampled_from([0, 600]),
       rows=st.lists(st.tuples(_ROW, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
@example(comment_meta=_COMMENTS[0], header="i,x,y", pad=0, rows=[("7,0.5,0.1#c", "\n")])
@example(comment_meta=_COMMENTS[1], header="i,x,y", pad=600,
         rows=[("7,1_0,0.5", "\r"), ("", "\r\n"), ("7,0.5,abc", "\r")])
@example(comment_meta=_COMMENTS[1], header="i,x,y", pad=600, rows=[(" ", "\n")])
@example(comment_meta=_COMMENTS[0], header="i,x,y,note", pad=600, rows=[("7,0.5,0.5", "\n")])
def test_csv_reader_matches_the_float_oracle(comment_meta, header, pad, rows):
    # 600 good rows of 17-digit cells (about 27 KB) put a bad row drawn after
    # them past the file's first 16 KB, so the tokenizer fails mid-file.
    comment, meta = comment_meta
    text = (comment + header + "\n"
            + "".join(f"{k},{k / 7:.17g},{-k / 3:.17g},f\n" for k in range(1, pad + 1))
            + "".join(row + end for row, end in rows))
    expected = dataset_rows(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        if isinstance(expected, int):
            with pytest.raises(InvalidParameter, match=rf"\brow {expected}\b"):
                read_dataset_csv(path)
            return
        back = read_dataset_csv(path)
    assert back.x.tobytes() == np.array(expected[0], float).tobytes()
    assert back.y.tobytes() == np.array(expected[1], float).tobytes()
    assert back.meta == meta


def test_csv_whitespace_line_is_a_short_row(tmp_path):
    path = tmp_path / "space.csv"
    path.write_text("i,x,y\n1,0.1,0.2\n \n3,0.5,0.6\n")
    with pytest.raises(InvalidParameter, match="row 2 of .* has 1 fields"):
        read_dataset_csv(path)


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
    return generate(GenerationMeta(seed=1, sigma_noise=0.2), 20000)


def test_csv_writer_fits_the_generate_budget(tmp_path, dataset20k):
    # generate checks 8 * FLOATS_PER_SAMPLE bytes per sample up front; the
    # writer converts rows to Python floats a block at a time, within that.
    n = len(dataset20k)
    assert _peak_bytes(write_dataset_csv, dataset20k, tmp_path / "s.csv") < 8 * FLOATS_PER_SAMPLE * n


def test_csv_reader_holds_no_python_float_per_cell(tmp_path, dataset20k):
    # The reader holds one parsed float64 table (x and y) and its growth
    # slack; the dataset's columns are views of it, not a second copy.
    # A Python float per cell alone would take more.
    path = tmp_path / "s.csv"
    write_dataset_csv(dataset20k, path)
    assert _peak_bytes(read_dataset_csv, path) < 1.5 * 8 * 2 * len(dataset20k)
    back = read_dataset_csv(path)
    assert np.may_share_memory(back.x, back.y)
    for column in (back.x, back.y):
        assert not column.flags.writeable


def test_csv_round_trip_at_20000_rows(tmp_path, dataset20k):
    # 20 000 rows span many reads of the file; a bad cell in the last row
    # must still be named by its row.
    path = tmp_path / "s.csv"
    write_dataset_csv(dataset20k, path)
    back = read_dataset_csv(path)
    assert back.x.tobytes() == dataset20k.x.tobytes()
    assert back.y.tobytes() == dataset20k.y.tobytes()
    assert back.meta == dataset20k.meta
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.1#c"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParameter, match=r"row 20000 of .*'0\.1#c'"):
        read_dataset_csv(path)


def test_prefix_copies_no_column(dataset20k):
    n = len(dataset20k) - 1
    # Revalidating the prefix takes one bool per sample; a copy of one column
    # would take eight bytes.
    assert _peak_bytes(dataset20k.prefix, n) < 2 * n
    p = dataset20k.prefix(n)
    assert np.shares_memory(p.x, dataset20k.x)
    assert np.shares_memory(p.y, dataset20k.y)
    assert not p.y.flags.writeable


def test_generated_csv_prefix_comment(tmp_path):
    ds = generate(GenerationMeta(seed=9, sigma_noise=0.1), 5)
    path = tmp_path / "gen.csv"
    write_dataset_csv(ds, path)
    first = path.read_text().splitlines()[0]
    assert first == "# seed=9 sigma=0.1 map=ulam prng=pcg64"
