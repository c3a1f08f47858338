"""Kernel density estimates of the joint, marginal and conditional PDFs.

A DensityModel is a dataset of measured pairs plus the instrument's
scattering function. The joint density is the plain average of kernels
centered at the samples. Only accumulate_kernel_products tabulates it on a
grid, as a sum of unnormalised kernel products on sigma-scaled axes whose
normalisation the caller applies as one scalar, in blocks of samples whose
size its caller sets (info_curve: at most half the grid points and the
largest schedule segment). The marginal over x
is the analytic average of the x-channel Gaussians (integrating a channel
Gaussian over the real line gives exactly 1, so no quadrature is involved).
The conditional density of y given x averages the y-channel Gaussians with
the normalised similarities C_i(x), the weights of the conditional-average
predictor. These are computed from the kernels' exponents. A query whose
largest exponent is at least MIN_UNSHIFTED_EXPONENT is exponentiated as it
is; any other query has its largest exponent subtracted first. So far from
all samples, where the joint and marginal underflow to zero, the weights
stay a convex combination and the conditional stays well defined.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ShapeMismatch
from .scattering import ScatteringFunction, gaussian_exponent, log_gaussian, _require_finite

# Queries whose largest kernel exponent is at least this are exponentiated
# without a shift. Their largest kernel is then at least e^-300 (about
# 5e-131): every kernel within 408 nats of it is a normal float, the
# smaller ones weigh under e^-408 relative to it and cannot change a rounded
# ratio, and its product with a target above about 4e-178 in magnitude is
# normal too.
MIN_UNSHIFTED_EXPONENT = -300.0


class Dataset:
    """Ordered collection of measured pairs, optionally with clean references.

    Insertion order is significant: statistics over growing experiments are
    defined on nested prefixes, so ``prefix(n)`` must always return the same
    first n samples. The columns are read-only float arrays; the constructor
    copies what it is given, so no caller keeps a writeable alias to them.
    """

    def __init__(self, x, y, x_clean=None, y_clean=None, meta=None):
        self._adopt(*(None if c is None else np.array(c, dtype=float)
                      for c in (x, y, x_clean, y_clean)), meta)

    @classmethod
    def _owning(cls, x, y, x_clean=None, y_clean=None, meta=None) -> "Dataset":
        """Dataset over float arrays handed over without a copy; the caller
        keeps no writeable alias to them."""
        dataset = cls.__new__(cls)
        dataset._adopt(x, y, x_clean, y_clean, meta)
        return dataset

    def _adopt(self, x, y, x_clean, y_clean, meta) -> None:
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidParameter("sample columns must be one-dimensional")
        if x.shape != y.shape:
            raise ShapeMismatch(f"x has {x.size} entries, y has {y.size}")
        _require_finite("x", x, rows=True)
        _require_finite("y", y, rows=True)
        if (x_clean is None) != (y_clean is None):
            raise InvalidParameter("clean columns must be given for both channels or neither")
        if x_clean is not None:
            if x_clean.shape != x.shape or y_clean.shape != y.shape:
                raise ShapeMismatch("clean columns must match the sample count")
            _require_finite("x_clean", x_clean, rows=True)
            _require_finite("y_clean", y_clean, rows=True)
            x_clean.flags.writeable = False
            y_clean.flags.writeable = False
        x.flags.writeable = False
        y.flags.writeable = False
        self.x = x
        self.y = y
        self.x_clean = x_clean
        self.y_clean = y_clean
        self.meta = meta

    def __len__(self) -> int:
        return self.x.size

    @property
    def has_clean(self) -> bool:
        return self.x_clean is not None

    def prefix(self, n: int) -> "Dataset":
        """First n samples, preserving order and metadata."""
        if not 1 <= n <= len(self):
            raise InvalidParameter(f"prefix size {n} outside [1, {len(self)}]")
        if n == len(self):
            return self
        # Views of read-only columns: read-only themselves, nothing is copied.
        xc = self.x_clean[:n] if self.has_clean else None
        yc = self.y_clean[:n] if self.has_clean else None
        return Dataset._owning(self.x[:n], self.y[:n], xc, yc, meta=self.meta)


class DensityModel:
    """Kernel estimate of the joint PDF of a dataset under a scattering function."""

    def __init__(self, data: Dataset, sf: ScatteringFunction):
        if len(data) == 0:
            raise EmptyDataset("a density model needs at least one sample")
        self.data = data
        self.sf = sf

    @cached_property
    def _scaled_x(self) -> np.ndarray:
        return self.data.x / self.sf.sigma

    def _block_kernels(self, xs: np.ndarray) -> np.ndarray:
        # Row j is C_i(xs[j]) up to a factor, built in place in one q x n
        # buffer contiguous along the samples. A row is exponentiated as it
        # is when its largest exponent is at least MIN_UNSHIFTED_EXPONENT;
        # the other rows, which could underflow, are first shifted by their
        # largest exponent, so their largest entry is exactly 1. Either way
        # the kernels' common log normalisation cancels in C_i and is never
        # added. Far rows overflow, and give inf - inf where a query and a
        # sample both overflow when scaled; they are replaced below.
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.subtract.outer(xs / self.sf.sigma, self._scaled_x)
            gaussian_exponent(e, out=e)
            top = e.max(axis=1)
            far = ~np.isfinite(top)
            if far.any():
                # Every squared scaled distance overflowed; in that limit the
                # nearest samples share all the weight evenly, those below
                # and above alike on an exact tie. They are found from the
                # sample values, as x - x_i rounds alike for all of them there.
                x, q = self.data.x, xs[far, None]
                below = np.where(x <= q, x, -np.inf).max(axis=1, keepdims=True)
                above = np.where(x >= q, x, np.inf).min(axis=1, keepdims=True)
                nearest = (((x == below) & (q - below <= above - q))
                           | ((x == above) & (above - q <= q - below)))
                e[far] = np.where(nearest, 0.0, -np.inf)
                top[far] = 0.0
        low = top < MIN_UNSHIFTED_EXPONENT
        if low.any():
            e[low] -= top[low, None]
        np.exp(e, out=e)
        return e

    def weights(self, x: float) -> np.ndarray:
        """Similarity coefficients C_i(x): nonnegative, summing to one."""
        e = self._block_kernels(np.array([_finite_scalar("x", x)]))[0]
        return e / e.sum()

    def _kernels(self, name: str, value, column: np.ndarray) -> np.ndarray:
        """Channel Gaussians g(value - column_i) of the samples at a scalar query."""
        return np.exp(log_gaussian(_finite_scalar(name, value), column, self.sf.sigma))

    def joint_pdf(self, x: float, y: float) -> float:
        """Average of sample-centered kernels at (x, y): the mean of g(x - x_i) g(y - y_i)."""
        gx = self._kernels("x", x, self.data.x)
        return float((gx * self._kernels("y", y, self.data.y)).mean())

    def marginal_pdf(self, x: float) -> float:
        """Analytic x-marginal: average of the x-channel Gaussians."""
        return float(self._kernels("x", x, self.data.x).mean())

    def conditional_pdf(self, y: float, given_x: float) -> float:
        """Density of y given x: the y-channel Gaussians weighted by C_i(given_x)."""
        return float(self.weights(given_x) @ self._kernels("y", y, self.data.y))


def accumulate_kernel_products(out: np.ndarray, x, y, xs, ys, sigma: float, *,
                               scratch: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> None:
    """Add sum_i g(xs - x[i]/sigma) g(ys - y[i]/sigma)^T to out, in place,
    with g(t) = exp(-t^2 / 2) the unnormalised kernel.

    xs and ys are grid axes already divided by sigma; x and y are samples,
    which each block divides by sigma. So out gains 2 pi sigma^2 times the
    sum of the samples' normalised kernel products, and the normalisation
    is left to the caller as one scalar. A sample too far from the axes to
    square its scaled distance gives a zero row, without a warning.

    out and scratch have shape (xs.size, ys.size); gx and gy have one row of
    xs.size and ys.size entries per sample of a block. Samples are taken in
    blocks of len(gx), so each sample's two kernel rows are built exactly
    once, in place in gx and gy. A block's product is written to scratch and
    added to out, so nothing of grid size is allocated here. Adding the
    samples of a dataset in consecutive slices gives the joint grid of every
    prefix on the way.
    """
    block = len(gx)
    with np.errstate(over="ignore"):
        for lo in range(0, len(x), block):
            k = min(block, len(x) - lo)
            kx = np.subtract(xs, x[lo:lo + k, None] / sigma, out=gx[:k])
            ky = np.subtract(ys, y[lo:lo + k, None] / sigma, out=gy[:k])
            np.exp(gaussian_exponent(kx, out=kx), out=kx)
            np.exp(gaussian_exponent(ky, out=ky), out=ky)
            # np.dot, as np.matmul takes a slow loop for a one-sample block.
            np.dot(kx.T, ky, out=scratch)
            out += scratch


def _finite_scalar(name: str, value) -> float:
    if np.ndim(value) != 0:
        raise InvalidParameter(f"{name} must be a scalar, got shape {np.shape(value)}")
    _require_finite(name, value)
    return float(value)
