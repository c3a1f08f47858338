import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmodel import (CaPredictor, Dataset, DegenerateVariance, EmptyDataset,
                      GenerationMeta, InvalidParameter, ScatteringFunction, ShapeMismatch,
                      default_schedule, generate, predictor_quality, quality_sweep,
                      write_dataset_csv)
from expmodel.cli import TEST_SEED_OFFSET, main
from expmodel.density import MIN_UNSHIFTED_EXPONENT, _nearest_samples
from expmodel.predictor import (_MIN_ROWS, _QUERY_CHUNK, _QUERY_VECTORS, QUERY_BLOCK_ELEMS,
                                _block_rows)
from expmodel.scattering import gaussian_exponent
from conftest import HALF_WIDTH
from oracles import extended_axis, far_query_weights, gauss, trap1


@pytest.fixture(scope="module")
def basic50():
    return generate(GenerationMeta(seed=1, sigma_noise=0.2), 50)


@pytest.fixture(scope="module")
def predictor50(basic50):
    return CaPredictor(basic50, ScatteringFunction(0.2))


# --- weights ------------------------------------------------------------------

def test_single_sample_weight_is_one(sf02):
    p = CaPredictor(Dataset([0.3], [1.0]), sf02)
    for x in (-20.0, 0.0, 0.3, 7.5):
        assert p.weights(x).tolist() == [1.0]


def test_weights_split_evenly_between_equidistant_samples(sf02):
    p = CaPredictor(Dataset([-1.0, 1.0], [0.0, 1.0]), sf02)
    w = p.weights(0.0)
    assert w[0] == pytest.approx(0.5, abs=1e-12)
    assert w[1] == pytest.approx(0.5, abs=1e-12)


def test_weight_concentrates_on_isolated_sample(sf02):
    p = CaPredictor(Dataset([0.0, 3.0, 4.0, 5.0], [1.0, -1.0, 0.5, 0.2]), sf02)
    w = p.weights(0.0)  # nearest other sample is 15 sigma away
    assert w[0] >= 1.0 - 1e-9


def test_weights_are_a_convex_combination_everywhere(predictor50):
    rng = np.random.default_rng(23)
    half_width = 2.0
    xs = np.concatenate([rng.uniform(-10 * half_width, 10 * half_width, 998),
                         [-10 * half_width, 10 * half_width]])
    for x in xs:
        w = predictor50.weights(x)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


def test_weights_are_normalised_scattering_kernels(predictor50, basic50, sf02):
    for x in (-0.7, 0.0, 0.3):
        g = gauss(x, basic50.x, sf02.sigma)
        np.testing.assert_allclose(predictor50.weights(x), g / g.sum(), rtol=1e-12)


def test_weights_reject_empty_and_bad_input(sf02):
    with pytest.raises(EmptyDataset):
        CaPredictor(Dataset([], []), sf02)
    p = CaPredictor(Dataset([0.0], [0.0]), sf02)
    with pytest.raises(InvalidParameter):
        p.weights(float("nan"))


# --- prediction ---------------------------------------------------------------

def test_constant_targets_predict_constant(sf02):
    p = CaPredictor(Dataset([-1.0, 0.0, 2.0], [0.7, 0.7, 0.7]), sf02)
    for x in (-5.0, 0.1, 3.0):
        assert p.predict_many([x])[0] == pytest.approx(0.7, rel=1e-12)


def test_prediction_at_isolated_sample_returns_its_target(sf02):
    y = np.array([1.0, -1.0, 0.5, 0.2])
    p = CaPredictor(Dataset([0.0, 3.0, 4.0, 5.0], y), sf02)
    spread = y.max() - y.min()
    assert abs(p.predict_many([0.0])[0] - 1.0) <= 1e-6 * spread


def test_predictions_stay_inside_target_hull(predictor50, basic50):
    rng = np.random.default_rng(29)
    xs = rng.uniform(-20, 20, 500)
    preds = predictor50.predict_many(xs)
    lo, hi = basic50.y.min(), basic50.y.max()
    eps = 1e-12 * (abs(lo) + abs(hi) + 1)
    assert np.all(preds >= lo - eps) and np.all(preds <= hi + eps)


@pytest.mark.parametrize("x", [1e155, -2e300, 1.7e308])
def test_far_queries_give_the_nearest_sample_the_weight(predictor50, basic50, x):
    # Every squared scaled distance overflows here; in that limit the sample
    # nearest to x carries the whole weight.
    nearest = basic50.x.argmax() if x > 0 else basic50.x.argmin()
    w = predictor50.weights(x)
    assert w.sum() == 1.0 and w[nearest] == 1.0
    pred = predictor50.predict_many([x, 0.5])[0]
    assert basic50.y.min() <= pred <= basic50.y.max()
    assert pred == basic50.y[nearest]


def test_translation_equivariance(sf02, basic50):
    p = CaPredictor(basic50, sf02)
    shift = 3.25
    shifted_y = CaPredictor(Dataset(basic50.x, basic50.y + shift), sf02)
    shifted_x = CaPredictor(Dataset(basic50.x + shift, basic50.y), sf02)
    for x in (-1.0, 0.2, 0.9):
        base = p.predict_many([x])[0]
        assert shifted_y.predict_many([x])[0] - base == pytest.approx(shift, abs=1e-9)
        assert shifted_x.predict_many([x + shift])[0] == pytest.approx(base, abs=1e-9)


def test_prediction_smooths_training_targets():
    # Smoother output cannot be more variable than the raw targets.
    for seed in (1, 2, 3):
        for sigma in (0.1, 0.2, 0.4):
            data = generate(GenerationMeta(seed=seed, sigma_noise=sigma), 50)
            p = CaPredictor(data, ScatteringFunction(sigma))
            fitted = p.predict_many(data.x)
            assert fitted.var() <= data.y.var()


def test_predict_many_matches_scalar_path(predictor50):
    # One query at a time against one batch: each query's prediction does
    # not depend on the others in its block.
    xs = np.linspace(-2, 2, 17)
    batch = predictor50.predict_many(xs)
    for x, v in zip(xs, batch):
        assert predictor50.predict_many([x])[0] == pytest.approx(v, rel=1e-12)


def _oracle_predictions(data, sigma, xs):
    xs = np.asarray(xs)
    out = []
    for lo in range(0, xs.size, 4096):
        g = gauss(xs[lo:lo + 4096, None], data.x, sigma)
        out.append((g / g.sum(axis=1, keepdims=True)) @ data.y)
    return np.concatenate(out)


@pytest.mark.parametrize("n_queries,rows", [(200, 327), (3000, 21), (10000, 8), (10082, 8)])
def test_block_rows_fill_the_kernel_budget_within_the_cap(n_queries, rows):
    # 2^16 kernel values per block, or 8 rows where that is more; the block
    # and the per-query vectors fit QUERY_BLOCK_ELEMS, since a whole chunk of
    # queries leaves room for 8 rows.
    assert _block_rows(n_queries) == rows
    assert (rows + _QUERY_VECTORS) * n_queries <= QUERY_BLOCK_ELEMS
    assert _QUERY_CHUNK == 10082


def test_block_rows_keep_the_floor_within_the_cap_at_every_chunk_size():
    for q in range(1, _QUERY_CHUNK + 1):
        rows = _block_rows(q)
        assert _MIN_ROWS <= rows and (rows + _QUERY_VECTORS) * q <= QUERY_BLOCK_ELEMS, q


def test_predict_many_matches_oracle_across_block_boundary(basic50):
    # The queries span two chunks: in the first the 50 samples come in
    # blocks of 8 rows, in the second in blocks of 21. Far-field queries at
    # 10 L and queries shifted by their largest exponent sit on both sides
    # of the chunk boundary; a wide kernel keeps the oracle's plain
    # Gaussians above underflow at both.
    sf = ScatteringFunction(1.0)
    p = CaPredictor(basic50, sf)
    chunk, rest = _QUERY_CHUNK, 3000
    assert _block_rows(chunk) == _MIN_ROWS and _block_rows(rest) < len(basic50)
    far, low = 10 * HALF_WIDTH, 30.0
    assert -0.5 * (low - np.abs(basic50.x).max()) ** 2 < MIN_UNSHIFTED_EXPONENT
    xs = np.linspace(-1.5, 1.5, chunk + rest)
    xs[[0, chunk - 3, chunk, chunk + rest - 1]] = [far, -far, far, -far]
    xs[[1, chunk - 2, chunk - 1, chunk + 1, chunk + 2]] = [-low, low, -low, low, -low]
    expected = _oracle_predictions(basic50, sf.sigma, xs)
    np.testing.assert_allclose(p.predict_many(xs), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(basic50.y).max())


def test_predict_many_matches_oracle_with_samples_over_several_blocks(sf02):
    # More samples than one block holds at five queries.
    basic = generate(GenerationMeta(seed=3, sigma_noise=0.2), QUERY_BLOCK_ELEMS + 1)
    p = CaPredictor(basic, sf02)
    xs = np.array([-1.5, -0.3, 0.0, 0.7, 1.5])
    assert _block_rows(xs.size) < len(basic)
    got = p.predict_many(xs)
    np.testing.assert_allclose(got, _oracle_predictions(basic, sf02.sigma, xs), rtol=1e-12,
                               atol=1e-12 * np.abs(basic.y).max())
    assert got.tobytes() == p.predict_many(xs).tobytes()


_SIGMAS = st.sampled_from([0.2, 1.0, 3.0, 1e-300, 1e300, 5e-324])
_VALUES = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e308, -1e308]))


@given(sigma=_SIGMAS, x=st.lists(_VALUES, min_size=1, max_size=12),
       extra=st.lists(_VALUES, max_size=6))
def test_nearest_sample_exponent_is_the_row_max(sigma, x, extra):
    # Duplicates, queries equal to a sample or midway between two, queries
    # beyond the samples, and samples that collide or overflow when scaled.
    x = np.array(x + x[::3])
    mids = [a / 2 + b / 2 for a, b in zip(x, x[1:])]
    xs = np.array(list(x) + mids + extra + [x.min() - 1e3, x.max() + 1e3])
    with np.errstate(over="ignore", invalid="ignore"):
        qs = xs / sigma
        want = gaussian_exponent(np.subtract.outer(qs, x / sigma)).max(axis=1)
        below, above, got = _nearest_samples(np.sort(x), xs, qs, sigma)
    # Bit for bit, signed zeros included; a NaN (inf - inf) may differ in sign.
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    # The unscaled neighbours the far-query rule reads: the largest sample
    # below each query and the smallest at or above it, else the outermost.
    assert below.tolist() == [max(x[x < q], default=x.min()) for q in xs]
    assert above.tolist() == [min(x[x >= q], default=x.max()) for q in xs]


def test_far_rows_leave_the_rest_of_their_block_alone(predictor50, basic50, sf02):
    # One block mixes queries whose every scaled distance overflows with
    # ordinary ones; only the far rows take the nearest-sample limit.
    xs = np.linspace(-1.5, 1.5, 12)
    far = [2, 7]
    xs[far] = [1e155, -2e300]
    got = predictor50.predict_many(xs)
    assert got[far].tolist() == [basic50.y[basic50.x.argmax()], basic50.y[basic50.x.argmin()]]
    near = np.delete(np.arange(xs.size), far)
    np.testing.assert_allclose(got[near], _oracle_predictions(basic50, sf02.sigma, xs[near]),
                               rtol=1e-12, atol=1e-12 * np.abs(basic50.y).max())
    assert got.tobytes() == predictor50.predict_many(xs).tobytes()


_FAR_VALUES = st.one_of(
    st.floats(1e299, 1.7e308), st.floats(-1.7e308, -1e299),
    st.sampled_from([-1.7e308, -1e308, -1e300, 0.0, 1.0, 1e300, 1e308, 1.7e308]))


@settings(deadline=None)
@given(sigma=st.sampled_from([0.2, 1.0, 1e-300]), x=st.lists(_FAR_VALUES, min_size=1, max_size=8),
       extra=st.lists(_FAR_VALUES, max_size=4), data=st.data())
def test_far_queries_match_the_nearest_sample_oracle(sigma, x, extra, data):
    # Samples with duplicates, some of which overflow when scaled; queries
    # beyond them all, equal to them, midway between two far clusters (a
    # rounded midpoint need not be an exact tie) or anywhere. Those whose
    # every squared scaled distance overflows take the far-query limit.
    x = np.array(x + x[::2])
    y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=x.size, max_size=x.size)))
    values = np.unique(x)
    mids = [a / 2 + b / 2 for a, b in zip(values, values[1:])]
    xs = np.array(list(x) + mids + extra + [-1.7e308, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        top = gaussian_exponent(np.subtract.outer(xs / sigma, x / sigma)).max(axis=1)
    xs = xs[~np.isfinite(top)]
    p = CaPredictor(Dataset(x, y), ScatteringFunction(sigma))
    for q, got in zip(xs, p.predict_many(xs)):
        want = far_query_weights(x, q)
        assert p.weights(q).tobytes() == want.tobytes()
        # Relative to the targets' mean size, so their cancellation does not count.
        near = y[want > 0]
        assert abs(got - math.fsum(near) / near.size) <= 1e-14 * np.abs(near).mean()


def _shifted_oracle_prediction(data, sigma, x):
    # Weights exp(-(x - x_i)^2 / 2 sigma^2 + min_i (x - x_i)^2 / 2 sigma^2),
    # each exponent taken in exact rational arithmetic, so the shift stays
    # finite where a squared distance overflows a float.
    q = Fraction(x)
    d2 = [(q - Fraction(xi)) ** 2 for xi in data.x]
    two_s2 = 2 * Fraction(sigma) ** 2
    w = [math.exp(-float((d - min(d2)) / two_s2)) for d in d2]
    return math.fsum(wi * yi for wi, yi in zip(w, data.y)) / math.fsum(w)


def test_rows_are_shifted_only_where_they_would_underflow(predictor50, basic50, sf02):
    # One block mixes ordinary queries, two whose largest exponent sits one
    # nat either side of MIN_UNSHIFTED_EXPONENT, two where every unshifted
    # kernel underflows to 0 and one where every squared scaled distance
    # overflows.
    sigma, top = sf02.sigma, basic50.x.max()
    edge = top + sigma * np.sqrt(-2.0 * (MIN_UNSHIFTED_EXPONENT + np.array([1.0, -1.0])))
    largest = -0.5 * (edge / sigma - top / sigma) ** 2
    assert largest[0] > MIN_UNSHIFTED_EXPONENT > largest[1]
    low = np.array([10.0, -10.0])
    assert not np.exp(-0.5 * ((low[:, None] - basic50.x) / sigma) ** 2).any()
    xs = np.concatenate([np.linspace(-1.5, 1.5, 7), edge, low, [1e155]])
    got = predictor50.predict_many(xs)
    expected = [_shifted_oracle_prediction(basic50, sigma, x) for x in xs]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(basic50.y).max())
    assert got.tobytes() == predictor50.predict_many(xs).tobytes()


def test_queries_and_samples_that_overflow_when_scaled(sf02):
    # 1e308 / 0.2 is inf, so a query and a sample both there give inf - inf;
    # the exact match still takes the whole weight.
    p = CaPredictor(Dataset([0.0, 1e308], [1.0, 2.0]), sf02)
    assert p.predict_many([1e308, 1.7e308, 0.5, -1e308]).tolist() == [2.0, 2.0, 1.0, 1.0]
    assert p.weights(1e308).tolist() == [0.0, 1.0]
    # A far query midway between samples splits the weight evenly, also
    # across duplicates, as the same sets scaled to +-1 do.
    sf = ScatteringFunction(1.0)
    for x in ([-1.0, 1.0], [-1.0, 1.0, 1.0]):
        y = [0.0] + [1.0] * (len(x) - 1)
        far = CaPredictor(Dataset(np.multiply(x, 1e300), y), sf)
        near = CaPredictor(Dataset(x, y), sf)
        assert far.weights(0.0).tolist() == near.weights(0.0).tolist() == [1 / len(x)] * len(x)
        assert far.predict_many([0.0])[0] == near.predict_many([0.0])[0]
    assert CaPredictor(Dataset([-1e300, 1e300], [0.0, 1.0]), sf).predict_many([0.0])[0] == 0.5


def test_far_query_at_a_rounded_midpoint_is_no_tie(sf02):
    # Both distances round alike, but the nearer sample takes the whole weight.
    x = [1e299, 4.49423284715579e307]
    q = x[0] / 2 + x[1] / 2
    assert q - x[0] == x[1] - q
    p = CaPredictor(Dataset(x, [0.0, 1.0]), sf02)
    assert p.weights(q).tolist() == [0.0, 1.0] and p.predict_many([q]).tolist() == [1.0]


def test_targets_near_the_float_limit_give_finite_predictions():
    # Their kernel-weighted sum overflows unless the targets are scaled down;
    # each prediction is a convex combination of them.
    p = CaPredictor(Dataset([0.0, 0.1], [1e308, 1.7e308]), ScatteringFunction(0.2))
    got = p.predict_many([0.0, 0.05, 1e300])
    assert np.isfinite(got).all() and ((1e308 <= got) & (got <= 1.7e308)).all()
    assert got[1] == pytest.approx(1.35e308, rel=1e-15)
    assert got[2] == 1.7e308


def test_predict_many_shapes(predictor50):
    empty = predictor50.predict_many([])
    assert empty.shape == (0,) and empty.dtype == float
    scalar = predictor50.predict_many(0.3)
    assert scalar.shape == (1,)
    assert scalar[0] == predictor50.predict_many([0.3])[0]


def _predict_many_peak(predictor, xs):
    tracemalloc.start()
    try:
        predictor.predict_many(xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("x", [0.3, 30.0, 1e155])
def test_query_adjustments_hold_one_sorted_copy_of_the_samples(sf02, x):
    # An ordinary, a shifted and a far query: the sorted samples, 8 bytes
    # each, and per-query vectors; no scaled copy beside them.
    n = 200_000
    rng = np.random.default_rng(0)
    p = CaPredictor(Dataset(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)), sf02)
    xs = np.array([x])
    qs = xs / sf02.sigma
    tracemalloc.start()
    try:
        p._query_adjustments(xs, qs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 8192


def test_predict_many_memory_does_not_grow_with_queries(sf02):
    basic = generate(GenerationMeta(seed=5, sigma_noise=0.2), 3000)
    p = CaPredictor(basic, sf02)
    xs = np.linspace(-2.0, 2.0, 3000)
    n, peaks = len(basic), {}
    for q in (300, 2730, 3000):
        peaks[q] = _predict_many_peak(p, xs[:q])
        # A whole n x q weight matrix would be 72 MB at 3000 queries. The
        # block is built in place in one buffer of at most 2^16 kernel
        # values, with only the per-query vectors, the predictions, the
        # stacked targets [y; 1] and, where numpy would buffer a broadcast
        # (q <= np.getbufsize() // 3), the rank-2 operands [x/sigma, -1] and
        # [1; q] beside it: no 128 KB ufunc buffer.
        rank2 = 2 * (_block_rows(q) + q) if q <= np.getbufsize() // 3 else 0
        assert peaks[q] <= 8 * ((1 << 16) + (_QUERY_VECTORS + 1) * q + 2 * n + rank2) + (16 << 10)
    # Only the per-query vectors and the predictions grow with the query count.
    assert peaks[3000] <= peaks[300] + 8 * (_QUERY_VECTORS + 1) * (3000 - 300) + (64 << 10)


def test_predict_many_keeps_no_copy_of_its_samples(basic3000, test3000, sf02):
    # A scaled copy of the samples kept by the predictor would stay traced
    # after the call at 8 B per sample. The warm-up call on another predictor
    # leaves out what numpy allocates once per process.
    CaPredictor(basic3000.prefix(100), sf02).predict_many(test3000.x)
    p = CaPredictor(basic3000, sf02)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p.predict_many(test3000.x)
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left < len(basic3000)


# --- quality ------------------------------------------------------------------

def test_exact_prediction_scores_one():
    y = [0.1, 0.4, -0.3, 0.9]
    assert predictor_quality(y, y).q == 1.0


def test_mean_constant_prediction_scores_zero():
    y = np.array([0.0, 1.0, 2.0, 3.0])
    rep = predictor_quality(y, np.full(4, y.mean()))
    assert rep.q == 0.0
    assert rep.var_pred == 0.0
    assert rep.mse == rep.var_true


def test_offset_prediction_scores_documented_negative_value():
    rep = predictor_quality([0.0, 1.0], [10.0, 11.0])
    assert rep.q == -199.0
    assert rep.mse == 100.0
    assert rep.var_true == 0.25 and rep.var_pred == 0.25


def test_degenerate_variance_is_rejected():
    with pytest.raises(DegenerateVariance):
        predictor_quality([0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("y_true, y_pred", [([1e200, -1e200], [0.0, 0.0]),
                                            ([1e308, 1e308], [1e308, 1e308]),
                                            ([1e308, 0.0], [-1e308, 0.0])])
def test_moments_that_overflow_are_rejected(y_true, y_pred):
    with pytest.raises(InvalidParameter, match="overflow"):
        predictor_quality(y_true, y_pred)


def test_shape_mismatch_is_rejected():
    with pytest.raises(ShapeMismatch):
        predictor_quality([0.0, 1.0], [0.0])
    with pytest.raises(ShapeMismatch):
        predictor_quality([1.0], [1.0])


def test_report_fields_reproduce_q(predictor50, basic50):
    test = generate(GenerationMeta(seed=77, sigma_noise=0.2), 100)
    rep = predictor_quality(test.y, predictor50.predict_many(test.x))
    assert rep.q == pytest.approx(1.0 - rep.mse / (rep.var_true + rep.var_pred), abs=1e-12)
    assert rep.n_test == 100


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                min_size=2, max_size=40))
def test_quality_moment_decomposition(pairs):
    # 1 - mse/(vt+vp) must equal (2 cov - (mt-mp)^2) / (vt+vp).
    yt = [a for a, _ in pairs]
    yp = [b for _, b in pairs]
    try:
        rep = predictor_quality(yt, yp)
    except DegenerateVariance:
        return
    denom = rep.var_true + rep.var_pred
    alt = (2.0 * rep.cov - (rep.mean_true - rep.mean_pred) ** 2) / denom
    assert rep.q == pytest.approx(alt, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n,scale", [(2, 1e-3), (7, 1.0), (200, 0.2), (3000, 1e3), (4999, 37.0)])
def test_quality_moments_are_bitwise_the_np_mean_formulas(n, scale):
    # The report sums and divides as np.mean does, so each of its six
    # moments is its np.mean formula to the bit, off-centre and across
    # scales, at sizes below and past numpy's pairwise-summation blocks.
    rng = np.random.default_rng(n)
    yt = rng.normal(scale, scale, n)
    yp = 0.8 * yt + rng.normal(0.0, scale, n)
    mean_true, mean_pred = np.mean(yt), np.mean(yp)
    d_true, d_pred = yt - mean_true, yp - mean_pred
    expected = [mean_true, mean_pred, np.mean(d_true * d_true), np.mean(d_pred * d_pred),
                np.mean(d_true * d_pred), np.mean((yt - yp) ** 2)]
    rep = predictor_quality(yt, yp)
    got = [rep.mean_true, rep.mean_pred, rep.var_true, rep.var_pred, rep.cov, rep.mse]
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_model_quadrature_identities_on_reduced_set(basic50, sf02):
    # Under the estimated joint density itself, the conditional average has
    # the same mean as y and its covariance with y equals its own variance.
    # Both sides are obtained by quadrature only.
    sigma = sf02.sigma
    axis = extended_axis(HALF_WIDTH, sigma)
    p = CaPredictor(basic50, sf02)
    y_p = p.predict_many(axis)

    fx = np.zeros_like(axis)
    fy = np.zeros_like(axis)
    for xi, yi in zip(basic50.x, basic50.y):
        fx += gauss(axis, xi, sigma)
        fy += gauss(axis, yi, sigma)
    fx /= len(basic50)
    fy /= len(basic50)

    m_y = trap1(axis * fy, axis)
    m_yp = trap1(y_p * fx, axis)
    var_y = trap1(axis ** 2 * fy, axis) - m_y ** 2
    var_yp = trap1(y_p ** 2 * fx, axis) - m_yp ** 2

    # int y f(x, y) dy tabulated on the x axis by an inner quadrature
    inner = np.zeros_like(axis)
    for xi, yi in zip(basic50.x, basic50.y):
        inner += gauss(axis, xi, sigma) * trap1(axis * gauss(axis, yi, sigma), axis)
    inner /= len(basic50)
    cov = trap1(y_p * inner, axis) - m_y * m_yp

    assert abs(m_y - m_yp) <= 1e-3
    assert abs(cov - var_yp) <= 1e-3 * var_y


def test_quality_sweep_shape_and_single_sample_limit(basic50, sf02):
    test = generate(GenerationMeta(seed=4001, sigma_noise=0.2), 200)
    sweep = quality_sweep(basic50, test, sf02, schedule=[1, 2, 8, 32, 50])
    assert list(sweep) == [1, 2, 8, 32, 50]
    first = sweep[1]
    assert first.q <= 0.1  # constant predictor at y_1: no variance, mean offset
    assert first.var_pred == pytest.approx(0.0, abs=1e-30)
    # a sweep entry must match a predictor built by hand on the same prefix
    by_hand = predictor_quality(test.y,
                                CaPredictor(basic50.prefix(8), sf02).predict_many(test.x))
    assert sweep[8].q == by_hand.q


@pytest.fixture(scope="module")
def basic3000():
    return generate(GenerationMeta(seed=5, sigma_noise=0.2), 3000)


@pytest.fixture(scope="module")
def test3000():
    return generate(GenerationMeta(seed=5 + TEST_SEED_OFFSET, sigma_noise=0.2), 3000)


def _hand_built(basic, sf, n, xs):
    return CaPredictor(basic.prefix(n), sf).predict_many(xs)


def test_quality_sweep_equals_predictors_built_by_hand(basic3000, test3000, sf02):
    # The samples span many blocks; the schedule holds n = 1, points inside
    # a block and one on a block boundary.
    rows = _block_rows(len(test3000))
    schedule = [1, rows - 1, 2 * rows, 2 * rows + 1, 500, len(basic3000)]
    sweep = quality_sweep(basic3000, test3000, sf02, schedule)
    assert list(sweep) == schedule
    for n in schedule:
        by_hand = _hand_built(basic3000, sf02, n, test3000.x)
        assert sweep[n] == predictor_quality(test3000.y, by_hand)


def _far_first_samples(basic, test, sigma):
    # The first 40 samples (beyond the first block) sit more than 25 sigma
    # from some test queries, so prefixes of up to 40 shift those queries.
    x = basic.x.copy()
    x[:40] -= 10.0
    assert (test.x - x[:40].max()).max() > 25 * sigma
    return Dataset(x, basic.y), test


def _queries_beyond_all_samples(basic, test, sigma):
    x = test.x.copy()
    x[::30] = basic.x.max() + sigma * np.linspace(30, 40, x[::30].size)
    return basic, Dataset(x, test.y)


def _query_whose_distances_overflow(basic, test, sigma):
    x = test.x.copy()
    x[[7, 8]] = [1e155, -2e300]
    return basic, Dataset(x, test.y)


@pytest.mark.parametrize("case", [_far_first_samples, _queries_beyond_all_samples,
                                  _query_whose_distances_overflow])
def test_sweep_points_with_shifted_or_far_queries_equal_predictors_built_by_hand(
        case, basic3000, test3000, sf02):
    # A point whose predictor shifts a test query or gives one the far-query
    # limit is computed on its own; the others still stream.
    basic, test = case(basic3000, test3000, sf02.sigma)
    schedule = [1, 39, 40, 41, 2 * _block_rows(len(test)), len(basic)]
    sweep = quality_sweep(basic, test, sf02, schedule)
    for n in schedule:
        assert sweep[n] == predictor_quality(test.y, _hand_built(basic, sf02, n, test.x))


def test_sweep_over_two_query_chunks_equals_predictors_built_by_hand(basic50, sf02):
    # Each point of a sweep whose test set spans two chunks is computed on
    # its own, chunk by chunk.
    test = generate(GenerationMeta(seed=6, sigma_noise=0.2), _QUERY_CHUNK + 100)
    sweep = quality_sweep(basic50, test, sf02)
    assert list(sweep) == default_schedule(len(basic50))
    for n in sweep:
        assert sweep[n] == predictor_quality(test.y, _hand_built(basic50, sf02, n, test.x))


def test_prefix_predictions_over_two_query_chunks_run_to_their_end(sf02):
    # Exhausting the generator, as zip over a sweep's sizes never does,
    # runs the multi-chunk branch to its return: one array per size.
    basic = generate(GenerationMeta(seed=3, sigma_noise=0.2), 10)
    xs = np.linspace(-1.5, 1.5, _QUERY_CHUNK + 1)
    got = list(CaPredictor(basic, sf02)._predict_prefixes(xs, [4, 10]))
    assert len(got) == 2
    for n, y_p in zip([4, 10], got):
        assert y_p.tobytes() == CaPredictor(basic.prefix(n), sf02).predict_many(xs).tobytes()


def test_sweep_points_with_scaled_targets_equal_predictors_built_by_hand(basic3000, test3000,
                                                                         sf02):
    # max|y| is 1.7e307, above float max / 2n from n = 8 on, where the
    # unscaled kernel-weighted sums overflow: those points scale their
    # targets on their own. The moments of such predictions overflow, so
    # the predictions are compared themselves.
    basic = Dataset(basic3000.x, basic3000.y * 1e307)
    schedule = [1, 7, 8, 40, len(basic)]
    swept = CaPredictor(basic, sf02)._predict_prefixes(test3000.x, schedule)
    for n, y_p in zip(schedule, swept):
        assert y_p.tobytes() == _hand_built(basic, sf02, n, test3000.x).tobytes()


def test_a_suspended_sweep_leaves_numpy_error_state_as_it_was(basic3000, test3000, sf02):
    # The sweep silences overflow while it builds blocks. numpy's error state
    # is context-local, so one set across a yield would stay set in the
    # caller while the sweep is suspended there.
    with np.errstate(all="warn"):
        before = np.geterr()
        sweep = CaPredictor(basic3000, sf02)._predict_prefixes(test3000.x, [1, 40, len(basic3000)])
        next(sweep)
        assert np.geterr() == before
        sweep.close()


# --- CSV (laid out by the CLI) ----------------------------------------------------

def test_predictions_csv(tmp_path, basic50, sf02):
    test = generate(GenerationMeta(seed=4001, sigma_noise=0.2), 50)
    write_dataset_csv(basic50, tmp_path / "basic.csv")
    write_dataset_csv(test, tmp_path / "test.csv")
    assert main(["predict", "--basic", str(tmp_path / "basic.csv"),
                 "--test", str(tmp_path / "test.csv"), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x_t,y_t,y_p,err"
    assert len(lines) == 51
    x_t, y_t, y_p, err = np.loadtxt(lines[1:], delimiter=",").T
    assert np.array_equal(x_t, test.x) and np.array_equal(y_t, test.y)
    assert np.array_equal(y_p, CaPredictor(basic50, sf02).predict_many(test.x))
    assert np.array_equal(err, y_p - y_t)


def test_quality_csv(tmp_path, basic50, sf02):
    assert main(["quality", "--sigma", "0.2", "--n", "50", "--seed", "1",
                 "--schedule", "2,4", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "quality.csv").read_text().splitlines()
    assert lines[0] == "N,seed,Q,var_y,var_yp,cov,mse"
    rows = [line.split(",") for line in lines[1:]]
    # Seed-major, in schedule order within a seed.
    assert [tuple(r[:2]) for r in rows] == [
        (n, seed) for seed in ("1", "2", "3") for n in ("2", "4")]
    test = generate(GenerationMeta(seed=1 + TEST_SEED_OFFSET, sigma_noise=0.2), 50)
    sweep = quality_sweep(basic50, test, sf02, schedule=[2, 4])
    assert list(sweep) == [2, 4]
    assert [float(r[2]) for r in rows[:2]] == [rep.q for rep in sweep.values()]
