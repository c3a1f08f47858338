import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import (Dataset, DensityModel, InvalidParameter, ScatteringFunction,
                      SpanConfig)
from expmodel.scattering import log_gaussian
from oracles import entropy_grid, gauss, trap1

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def kernel(x, u, sigma):
    """The normalised channel kernel of the pointwise densities."""
    return np.exp(log_gaussian(x, u, sigma))


def test_gaussian_standard_peak():
    assert kernel(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-12)


def test_gaussian_narrow_peak():
    assert kernel(0.7, 0.7, 0.2) == pytest.approx(1.9947114020071635, rel=1e-12)


def test_gaussian_one_sigma_out():
    # peak * exp(-1/2)
    assert kernel(0.2, 0.0, 0.2) == pytest.approx(1.2098536225957168, rel=1e-12)


@given(x=finite, u=finite, sigma=st.floats(min_value=0.01, max_value=10))
def test_gaussian_positive_and_symmetric(x, u, sigma):
    d = kernel(x, u, sigma)
    assert d >= 0.0 and math.isfinite(d)
    # depends on the difference only, with even symmetry
    assert kernel(x - u, 0.0, sigma) == d
    assert kernel(-(x - u), 0.0, sigma) == d


@pytest.mark.parametrize("u,sigma", [(0.0, 1.0), (3.0, 0.2), (-1.5, 0.05)])
def test_gaussian_unit_mass(u, sigma):
    axis = np.linspace(u - 8 * sigma, u + 8 * sigma, 4001)
    mass = trap1(kernel(axis, u, sigma), axis)
    assert abs(mass - 1.0) <= 1e-6


def sf_oracle(sf, z, u):
    """Two-channel scattering kernel at z for unit u, from the oracle."""
    return gauss(z[0], u[0], sf.sigma) * gauss(z[1], u[1], sf.sigma)


def test_sf_peak_value(sf02):
    assert sf_oracle(sf02, (0.5, -0.3), (0.5, -0.3)) == pytest.approx(3.978873577297384, rel=1e-12)


def test_sf_off_center_product(sf02):
    expected = 3.978873577297384 * math.exp(-12.5)
    assert sf_oracle(sf02, (1.0, 0.0), (0.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_sf_separability(sf02):
    # The isotropic bivariate normal is the product of its channel kernels,
    # and a one-sample joint density is that kernel at the sample.
    s = sf02.sigma
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        zx, zy, ux, uy = rng.uniform(-3, 3, size=4)
        direct = math.exp(-((zx - ux) ** 2 + (zy - uy) ** 2) / (2 * s * s)) / (2 * math.pi * s * s)
        assert direct == pytest.approx(sf_oracle(sf02, (zx, zy), (ux, uy)), rel=1e-12)
        joint = DensityModel(Dataset([ux], [uy]), sf02).joint_pdf(zx, zy)
        assert joint == pytest.approx(direct, rel=1e-12)


def test_sf_difference_symmetry(sf02):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = tuple(rng.uniform(-2, 2, size=2))
        u = tuple(rng.uniform(-2, 2, size=2))
        assert sf_oracle(sf02, z, u) == pytest.approx(sf_oracle(sf02, u, z), rel=1e-12)


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
