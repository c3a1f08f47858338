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


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise InvalidParameter(f"{name} must be finite, got {value!r}")


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

    def evaluate(self, z, u):
        """Kernel density at point z for calibration unit u, both (x, y) pairs."""
        zx, zy = z
        ux, uy = u
        return gaussian_eval(zx, ux, self.sigma) * gaussian_eval(zy, uy, self.sigma)


def gaussian_eval(x, u, sigma):
    """Normalized Gaussian density (1/(sqrt(2 pi) sigma)) exp(-(x-u)^2 / (2 sigma^2)).

    Accepts scalars or numpy arrays; inputs must be finite and sigma > 0.
    """
    _require_finite("x", x)
    _require_finite("u", u)
    _require_finite("sigma", sigma)
    if np.any(np.asarray(sigma) <= 0):
        raise InvalidParameter(f"sigma must be > 0, got {sigma!r}")
    out = np.exp(log_gaussian(x, u, sigma))
    return float(out) if np.isscalar(x) and np.isscalar(u) else out


def log_gaussian(x, u, sigma):
    """Log of gaussian_eval, the one place the kernel formula is written.

    No validation: the fast path of every kernel sum.
    """
    t = (np.asarray(x, dtype=float) - u) / sigma
    return -0.5 * t * t - np.log(SQRT_2PI * sigma)
