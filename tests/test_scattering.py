import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import InvalidParameter, ScatteringFunction
from expmodel.criteria import calibration_entropy
from expmodel.scattering import gaussian_exponent, kernel_exponents
from conftest import HALF_WIDTH
from oracles import SQRT2PI, entropy_grid, gauss, trap1

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def kernel(x, u, sigma):
    """The normalised channel kernel, from the exponent the pipeline uses."""
    return np.exp(gaussian_exponent((np.asarray(x, dtype=float) - u) / sigma)) / (SQRT2PI * sigma)


def test_gaussian_standard_peak():
    assert kernel(0.0, 0.0, 1.0) == pytest.approx(0.3989422804014327, rel=1e-12)


def test_gaussian_narrow_peak():
    assert kernel(0.7, 0.7, 0.2) == pytest.approx(1.9947114020071635, rel=1e-12)


def test_gaussian_one_sigma_out():
    # peak * exp(-1/2)
    assert kernel(0.2, 0.0, 0.2) == pytest.approx(1.2098536225957168, rel=1e-12)


def test_gaussian_exponent_is_bitwise_the_product():
    # Around the overflow of t^2, a subnormal square, a signed zero, the
    # infinities and NaN: into a fresh array and in place.
    t = np.array([1.3e154, -1.3e154, 1.4e154, -1.4e154, 1e-160, -0.0, np.inf, -np.inf, np.nan])
    with np.errstate(over="ignore"):
        expected = (t * t * -0.5).tobytes()
        fresh = gaussian_exponent(t)
        in_place = t.copy()
        assert gaussian_exponent(in_place, out=in_place) is in_place
    assert fresh.tobytes() == expected and in_place.tobytes() == expected


@pytest.mark.parametrize("past_buffer", [0, 1])
def test_kernel_exponents_are_bitwise_the_subtraction(past_buffer):
    # A row length of np.getbufsize() // 3 takes the rank-2 products, one more
    # or a single node the broadcast. Each side holds -0.0, a value of the
    # other side, 1e308 and one whose scaled form overflows (+inf among the
    # a, -inf among the b: inf - inf has no sign to compare). Rows past
    # a.size stay untouched.
    sigma = 0.25
    b = np.linspace(-4.0, 4.0, np.getbufsize() // 3 + past_buffer) / sigma
    a = np.random.default_rng(11).uniform(-5.0, 5.0, 40) / sigma
    with np.errstate(over="ignore"):
        a[:4] = -0.0, b[b.size // 3], 1e308, np.divide(1e308, sigma)
        b[:4] = -0.0, a[7], 1e308, np.divide(-1e308, sigma)
    for lhs, rhs in ((a, b), (b, a), (b, a[1:2])):
        out = np.full((lhs.size + 2, rhs.size), np.nan)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            expected = gaussian_exponent(np.subtract.outer(lhs, rhs))
            got = kernel_exponents(lhs, rhs, out)
        assert np.shares_memory(got, out) and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes() and np.isnan(out[lhs.size:]).all()


def test_kernel_exponents_allocate_no_ufunc_buffer():
    # A broadcast with rows of np.getbufsize() // 3 makes numpy allocate two
    # iteration buffers (128 KB at the default size); the rank-2 products
    # hold only their operands [a, -1] and [1; b].
    a, b = np.linspace(-8.0, 8.0, 200), np.linspace(-6.0, 6.0, np.getbufsize() // 3)
    out = np.empty((a.size, b.size))
    kernel_exponents(a, b, out)
    tracemalloc.start()
    try:
        kernel_exponents(a, b, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 * (a.size + b.size) + (4 << 10)


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
    # The isotropic bivariate normal is the product of its channel kernels.
    s = sf02.sigma
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        zx, zy, ux, uy = rng.uniform(-3, 3, size=4)
        direct = math.exp(-((zx - ux) ** 2 + (zy - uy) ** 2) / (2 * s * s)) / (2 * math.pi * s * s)
        assert direct == pytest.approx(sf_oracle(sf02, (zx, zy), (ux, uy)), rel=1e-12)


def test_sf_difference_symmetry(sf02):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = tuple(rng.uniform(-2, 2, size=2))
        u = tuple(rng.uniform(-2, 2, size=2))
        assert sf_oracle(sf02, z, u) == pytest.approx(sf_oracle(sf02, u, z), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_sf_rejects_bad_sigma(bad):
    with pytest.raises(InvalidParameter):
        ScatteringFunction(bad)


def test_calibration_entropy_closed_form(sf02):
    # 2 log(sigma/L) + log(pi/2) + 1 with sigma=0.2, L=2
    assert calibration_entropy(sf02, HALF_WIDTH) == pytest.approx(-3.1535874806986364, rel=1e-12)


def test_calibration_entropy_grows_with_sigma():
    values = [calibration_entropy(ScatteringFunction(s), HALF_WIDTH)
              for s in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_calibration_entropy_matches_quadrature(sf02):
    # Independent route: tabulate the kernel at the span center, integrate
    # -psi log psi over the span, subtract the uniform-reference term.
    axis = np.linspace(-HALF_WIDTH, HALF_WIDTH, 801)
    values = np.outer(gauss(axis, 0.0, sf02.sigma), gauss(axis, 0.0, sf02.sigma))
    h_u = entropy_grid(values, axis) - 2.0 * math.log(2.0 * HALF_WIDTH)
    assert abs(h_u - calibration_entropy(sf02, HALF_WIDTH)) <= 1e-3
