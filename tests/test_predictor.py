import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmodel import (CaPredictor, Dataset, DegenerateVariance, EmptyDataset,
                      GenerationMeta, ScatteringFunction, ShapeMismatch,
                      ca_quality_theoretical, generate,
                      predictor_quality, quality_sweep)
from expmodel.predictor import (QUERY_BLOCK_ELEMS, write_predictions_csv,
                                write_quality_csv)
from oracles import extended_axis, gauss, trap1


@pytest.fixture(scope="module")
def basic50():
    return generate(GenerationMeta(seed=1, sigma_noise=0.2, n=50))


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
    from expmodel import InvalidParameter
    with pytest.raises(InvalidParameter):
        p.weights(float("nan"))


# --- prediction ---------------------------------------------------------------

def test_constant_targets_predict_constant(sf02):
    p = CaPredictor(Dataset([-1.0, 0.0, 2.0], [0.7, 0.7, 0.7]), sf02)
    for x in (-5.0, 0.1, 3.0):
        assert p.predict(x) == pytest.approx(0.7, rel=1e-12)


def test_prediction_at_isolated_sample_returns_its_target(sf02):
    y = np.array([1.0, -1.0, 0.5, 0.2])
    p = CaPredictor(Dataset([0.0, 3.0, 4.0, 5.0], y), sf02)
    spread = y.max() - y.min()
    assert abs(p.predict(0.0) - 1.0) <= 1e-6 * spread


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
    assert np.isfinite(predictor50.conditional_pdf(0.0, x))


def test_translation_equivariance(sf02, basic50):
    p = CaPredictor(basic50, sf02)
    shift = 3.25
    shifted_y = CaPredictor(Dataset(basic50.x, basic50.y + shift), sf02)
    shifted_x = CaPredictor(Dataset(basic50.x + shift, basic50.y), sf02)
    for x in (-1.0, 0.2, 0.9):
        base = p.predict(x)
        assert shifted_y.predict(x) - base == pytest.approx(shift, abs=1e-9)
        assert shifted_x.predict(x + shift) == pytest.approx(base, abs=1e-9)


def test_prediction_smooths_training_targets():
    # Smoother output cannot be more variable than the raw targets.
    for seed in (1, 2, 3):
        for sigma in (0.1, 0.2, 0.4):
            data = generate(GenerationMeta(seed=seed, sigma_noise=sigma, n=50))
            p = CaPredictor(data, ScatteringFunction(sigma))
            fitted = p.predict_many(data.x)
            assert fitted.var() <= data.y.var()


def test_predict_many_matches_scalar_path(predictor50):
    xs = np.linspace(-2, 2, 17)
    batch = predictor50.predict_many(xs)
    for x, v in zip(xs, batch):
        assert predictor50.predict(x) == pytest.approx(v, rel=1e-12)


def _oracle_predictions(data, sigma, xs):
    out = []
    for x in xs:
        g = gauss(x, data.x, sigma)
        out.append(data.y @ (g / g.sum()))
    return np.array(out)


def test_predict_many_matches_oracle_across_block_boundary(basic50, span):
    # A wide kernel keeps the oracle's plain Gaussians above underflow out to
    # |x| = 10 L, so far-field queries can sit on both sides of the boundary.
    sf = ScatteringFunction(1.0)
    p = CaPredictor(basic50, sf)
    block = QUERY_BLOCK_ELEMS // len(basic50)
    far = 10 * span.half_width
    xs = np.linspace(-1.5, 1.5, block + 1)
    xs[[0, block - 2, block]] = [far, far, far]
    xs[[1, block - 1]] = [-far, -far]
    expected = _oracle_predictions(basic50, sf.sigma, xs)
    np.testing.assert_allclose(p.predict_many(xs), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(basic50.y).max())


def test_predict_many_matches_oracle_with_one_query_per_block(sf02):
    # More samples than a block holds: every block is a single query row.
    basic = generate(GenerationMeta(seed=3, sigma_noise=0.2, n=QUERY_BLOCK_ELEMS + 1))
    p = CaPredictor(basic, sf02)
    xs = np.array([-1.5, -0.3, 0.0, 0.7, 1.5])
    got = p.predict_many(xs)
    np.testing.assert_allclose(got, _oracle_predictions(basic, sf02.sigma, xs), rtol=1e-12,
                               atol=1e-12 * np.abs(basic.y).max())
    assert got.tobytes() == p.predict_many(xs).tobytes()


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


def test_queries_and_samples_that_overflow_when_scaled(sf02):
    # 1e308 / 0.2 is inf, so a query and a sample both there give inf - inf;
    # the exact match still takes the whole weight.
    p = CaPredictor(Dataset([0.0, 1e308], [1.0, 2.0]), sf02)
    assert p.predict_many([1e308, 1.7e308, 0.5, -1e308]).tolist() == [2.0, 2.0, 1.0, 1.0]
    assert p.weights(1e308).tolist() == [0.0, 1.0]


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


def test_predict_many_memory_does_not_grow_with_queries(sf02):
    basic = generate(GenerationMeta(seed=5, sigma_noise=0.2, n=3000))
    p = CaPredictor(basic, sf02)
    xs = np.linspace(-2.0, 2.0, 3000)
    peak_small = _predict_many_peak(p, xs[:300])
    peak = _predict_many_peak(p, xs)
    # A whole n x q weight matrix would be 72 MB here; the block is built in
    # place in one buffer, with only q- and n-vectors beside it.
    assert peak <= 2 * QUERY_BLOCK_ELEMS * 8
    # Only the q-vector of predictions grows with the query count.
    assert peak <= peak_small + 8 * xs.size + (64 << 10)


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


def test_shape_mismatch_is_rejected():
    with pytest.raises(ShapeMismatch):
        predictor_quality([0.0, 1.0], [0.0])
    with pytest.raises(ShapeMismatch):
        predictor_quality([1.0], [1.0])


def test_report_fields_reproduce_q(predictor50, basic50):
    test = generate(GenerationMeta(seed=77, sigma_noise=0.2, n=100))
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


def test_theoretical_quality_endpoints():
    assert ca_quality_theoretical(1.3, 1.3) == 1.0
    assert ca_quality_theoretical(0.7, 0.0) == 0.0
    with pytest.raises(DegenerateVariance):
        ca_quality_theoretical(0.0, 0.0)
    from expmodel import InvalidParameter
    with pytest.raises(InvalidParameter):
        ca_quality_theoretical(-1.0, 0.5)


def test_model_quadrature_identities_on_reduced_set(basic50, sf02, span):
    # Under the estimated joint density itself, the conditional average has
    # the same mean as y and its covariance with y equals its own variance.
    # Both sides are obtained by quadrature only.
    sigma = sf02.sigma
    axis = extended_axis(span.half_width, sigma)
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
    theo = ca_quality_theoretical(var_y, var_yp)
    assert theo == pytest.approx(2 * var_yp / (var_y + var_yp), rel=1e-12)


def test_quality_sweep_shape_and_single_sample_limit(basic50, sf02):
    test = generate(GenerationMeta(seed=4001, sigma_noise=0.2, n=200))
    sweep = quality_sweep(basic50, test, sf02, schedule=[1, 2, 8, 32, 50])
    assert [n for n, _ in sweep] == [1, 2, 8, 32, 50]
    first = sweep[0][1]
    assert first.q <= 0.1  # constant predictor at y_1: no variance, mean offset
    assert first.var_pred == pytest.approx(0.0, abs=1e-30)
    # a sweep entry must match a predictor built by hand on the same prefix
    by_hand = predictor_quality(test.y,
                                CaPredictor(basic50.prefix(8), sf02).predict_many(test.x))
    assert sweep[2][1].q == by_hand.q


# --- CSV ------------------------------------------------------------------------

def test_predictions_csv(tmp_path):
    path = tmp_path / "predictions.csv"
    write_predictions_csv(path, [0.0, 1.0], [1.0, 2.0], [1.5, 1.5])
    lines = path.read_text().splitlines()
    assert lines[0] == "x_t,y_t,y_p,err"
    assert lines[1].split(",")[3] == "0.5"
    assert len(lines) == 3


def test_quality_csv(tmp_path, basic50, sf02):
    test = generate(GenerationMeta(seed=4001, sigma_noise=0.2, n=50))
    sweep = quality_sweep(basic50, test, sf02, schedule=[2, 4])
    path = tmp_path / "quality.csv"
    write_quality_csv(path, [(n, 1, rep) for n, rep in sweep])
    lines = path.read_text().splitlines()
    assert lines[0] == "N,seed,Q,var_y,var_yp,cov,mse"
    assert len(lines) == 3
    assert lines[1].split(",")[:2] == ["2", "1"]
