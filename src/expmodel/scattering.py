"""Calibrated Gaussian scattering kernel of a two-channel instrument.

The kernel width sigma is a calibration constant of the instrument, not a
bandwidth fitted to data. Both channels share one sigma and are independent,
so the two-dimensional kernel factors into a product of channel Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

SQRT_2PI = math.sqrt(2.0 * math.pi)


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


@dataclass(frozen=True)
class SpanConfig:
    """Symmetric instrument span (-L, L) shared by both channels."""

    half_width: float

    def __post_init__(self) -> None:
        _require_finite("half_width", self.half_width)
        if self.half_width <= 0:
            raise InvalidParameter(f"half_width must be > 0, got {self.half_width}")

    @property
    def width(self) -> float:
        return 2.0 * self.half_width


@dataclass(frozen=True)
class ScatteringFunction:
    """Product of two equal channel Gaussians of width sigma, centered at the
    calibration unit. The span its calibration entropy is measured on belongs
    to the grid (:meth:`expmodel.information.QuadratureGrid.calibration_entropy`).
    """

    sigma: float

    def __post_init__(self) -> None:
        _require_finite("sigma", self.sigma)
        if self.sigma <= 0:
            raise InvalidParameter(f"sigma must be > 0, got {self.sigma}")


def log_gaussian(x, u, sigma):
    """Log of the normalised Gaussian density
    (1/(sqrt(2 pi) sigma)) exp(-(x-u)^2 / (2 sigma^2)): the exponent at
    (x - u) / sigma plus the log of the normalisation.

    No validation. A distance too large to square gives -inf, the log of
    the kernel's correctly rounded value 0.
    """
    with np.errstate(over="ignore"):
        t = gaussian_exponent((np.asarray(x, dtype=float) - u) / sigma)
        return t - np.log(SQRT_2PI * sigma)


def gaussian_exponent(t, out=None):
    """-t^2 / 2 at scaled distances t: the one place the exponent is written.

    With out=t it is evaluated in place. A |t| above about 1.3e154 gives
    -inf, and numpy warns of the overflow unless the caller silences it.
    """
    out = np.multiply(t, t, out=out)
    out *= -0.5
    return out
