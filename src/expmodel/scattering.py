"""Calibrated Gaussian scattering kernel of a two-channel instrument.

The kernel width sigma is a calibration constant of the instrument, not a
bandwidth fitted to data. Both channels share one sigma and are independent,
so the two-dimensional kernel factors into a product of channel Gaussians.
Their exponent is written once, in gaussian_exponent, which every kernel of
the package exponentiates unnormalised. The kernel knows no span: its
entropy relative to the instrument span (-L, L) is the calibration
uncertainty H_u of :func:`expmodel.criteria.calibration_entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter


def _require_finite(name: str, value, rows: bool = False) -> None:
    """Reject a value with a non-finite entry. For an array the message
    counts the bad entries and gives the first one: its index, or with
    rows=True its 1-based row (the data row of a dataset column)."""
    finite = np.isfinite(value)
    if finite.all():
        return
    if finite.ndim == 0:
        raise InvalidParameter(f"{name} must be finite, got {float(value)!r}")
    bad = ~finite
    first = np.unravel_index(np.argmax(bad), bad.shape)
    where = f"row {first[0] + 1}" if rows else f"index {', '.join(map(str, first))}"
    raise InvalidParameter(
        f"{name} must be finite, got {float(np.asarray(value)[first])!r} at {where} "
        f"({np.count_nonzero(bad)} non-finite of {bad.size} entries)"
    )


def _is_count(value) -> bool:
    """Whether value is an int or a numpy integer but not a bool: a count
    of samples or a seed, which True would pass for as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScatteringFunction:
    """Product of two equal channel Gaussians of width sigma, centered at the
    calibration unit."""

    sigma: float

    def __post_init__(self) -> None:
        _require_finite("sigma", self.sigma)
        if self.sigma <= 0:
            raise InvalidParameter(f"sigma must be > 0, got {self.sigma}")


def gaussian_exponent(t, out=None):
    """-t^2 / 2 at scaled distances t: the one place the exponent is written.

    With out=t it is evaluated in place. A |t| above about 1.3e154 gives
    -inf, and numpy warns of the overflow unless the caller silences it.
    """
    out = np.square(t, out=out)
    out *= -0.5
    return out


def _difference_operands(a=None, b=None):
    """The operands [a, -1] (a.size x 2) and [1; b] (2 x b.size) whose
    rank-2 product holds the differences a_i - b_j, for whichever of a and b
    is given, so that each is built once for all its partners. Each entry
    a_i * 1 + (-1) * b_j is one rounded difference whether or not BLAS
    fuses it, so its bytes are those of the subtraction. The right operand
    is None where the broadcast a[:, None] - b is faster, as numpy does not
    buffer it: at one column or more than np.getbufsize() // 3."""
    lhs = rhs = None
    if a is not None:
        lhs = np.full((a.size, 2), -1.0)
        lhs[:, 0] = a
    if b is not None and 1 < b.size <= np.getbufsize() // 3:
        rhs = np.ones((2, b.size))
        rhs[1] = b
    return lhs, rhs


def kernel_exponents(a, b, out):
    """gaussian_exponent(a_i - b_j) in the rows out[:a.size], returned, for a
    and b already divided by sigma: the rank-2 products of
    :func:`_difference_operands` where numpy would buffer a broadcast, else
    the broadcast, faster there. Either way each entry is one rounded
    difference, whose sign the square drops: the bytes agree. The caller
    silences overflow and invalid-value warnings, which BLAS raises at inf."""
    rows = out[:a.size]
    _, rhs = _difference_operands(b=b)
    if rhs is None:
        np.subtract(a[:, None], b, out=rows)
    else:
        np.dot(_difference_operands(a)[0], rhs, out=rows)
    return gaussian_exponent(rows, out=rows)
