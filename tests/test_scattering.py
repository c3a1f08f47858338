import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import InvalidParameter, ScatteringFunction, SpanConfig, gaussian_eval
from oracles import entropy_grid, gauss, trap1

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_gaussian_standard_peak():
    assert gaussian_eval(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-12)


def test_gaussian_narrow_peak():
    assert gaussian_eval(0.7, 0.7, 0.2) == pytest.approx(1.9947114020071635, rel=1e-12)


def test_gaussian_one_sigma_out():
    # peak * exp(-1/2)
    assert gaussian_eval(0.2, 0.0, 0.2) == pytest.approx(1.2098536225957168, rel=1e-12)


@given(x=finite, u=finite, sigma=st.floats(min_value=0.01, max_value=10))
def test_gaussian_positive_and_symmetric(x, u, sigma):
    d = gaussian_eval(x, u, sigma)
    assert d >= 0.0 and math.isfinite(d)
    # depends on the difference only, with even symmetry
    assert gaussian_eval(x - u, 0.0, sigma) == d
    assert gaussian_eval(-(x - u), 0.0, sigma) == d


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_rejects_bad_sigma(bad):
    with pytest.raises(InvalidParameter):
        gaussian_eval(0.0, 0.0, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_gaussian_rejects_non_finite_points(bad):
    with pytest.raises(InvalidParameter):
        gaussian_eval(bad, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        gaussian_eval(0.0, bad, 1.0)


@pytest.mark.parametrize("u,sigma", [(0.0, 1.0), (3.0, 0.2), (-1.5, 0.05)])
def test_gaussian_unit_mass(u, sigma):
    axis = np.linspace(u - 8 * sigma, u + 8 * sigma, 4001)
    mass = trap1(gaussian_eval(axis, u, sigma), axis)
    assert abs(mass - 1.0) <= 1e-6


def test_sf_peak_value(sf02):
    assert sf02.evaluate((0.5, -0.3), (0.5, -0.3)) == pytest.approx(3.978873577297384, rel=1e-12)


def test_sf_off_center_product(sf02):
    expected = 3.978873577297384 * math.exp(-12.5)
    assert sf02.evaluate((1.0, 0.0), (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_sf_separability(sf02):
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        zx, zy, ux, uy = rng.uniform(-3, 3, size=4)
        direct = sf02.evaluate((zx, zy), (ux, uy))
        product = gaussian_eval(zx, ux, sf02.sigma) * gaussian_eval(zy, uy, sf02.sigma)
        assert direct == pytest.approx(product, rel=1e-12)


def test_sf_difference_symmetry(sf02):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = tuple(rng.uniform(-2, 2, size=2))
        u = tuple(rng.uniform(-2, 2, size=2))
        assert sf02.evaluate(z, u) == pytest.approx(sf02.evaluate(u, z), rel=1e-12)


def test_span_requires_positive_half_width():
    with pytest.raises(InvalidParameter):
        SpanConfig(0.0)
    with pytest.raises(InvalidParameter):
        SpanConfig(-2.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_sf_rejects_bad_sigma(bad):
    with pytest.raises(InvalidParameter):
        ScatteringFunction(bad)


def test_calibration_entropy_closed_form(sf02, grid257):
    # 2 log(sigma/L) + log(pi/2) + 1 with sigma=0.2, L=2
    assert grid257.calibration_entropy(sf02) == pytest.approx(-3.1535874806986364, rel=1e-12)


def test_calibration_entropy_grows_with_sigma(grid257):
    values = [grid257.calibration_entropy(ScatteringFunction(s))
              for s in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_calibration_entropy_matches_quadrature(sf02, span, grid257):
    # Independent route: tabulate the kernel at the span center, integrate
    # -psi log psi over the span, subtract the uniform-reference term.
    axis = np.linspace(-span.half_width, span.half_width, 801)
    values = np.outer(gauss(axis, 0.0, sf02.sigma), gauss(axis, 0.0, sf02.sigma))
    h_u = entropy_grid(values, axis) - 2.0 * math.log(span.width)
    assert abs(h_u - grid257.calibration_entropy(sf02)) <= 1e-3
