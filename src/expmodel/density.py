"""Kernel density estimates of the joint, marginal and conditional PDFs.

A DensityModel is a dataset of measured pairs plus the instrument's
scattering function. The joint density is the plain average of kernels
centered at the samples; the marginal over x is the analytic average of the
x-channel Gaussians (integrating a channel Gaussian over the real line gives
exactly 1, so no quadrature is involved). The conditional density of y given
x averages the y-channel Gaussians with the normalised similarities C_i(x),
the weights of the conditional-average predictor. These are computed in log
domain with each query's largest log kernel subtracted, so far from all
samples, where the joint and marginal underflow to zero, they stay a convex
combination and the conditional stays well defined.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ShapeMismatch
from .scattering import ScatteringFunction, gaussian_exponent, log_gaussian, _require_finite

# Samples per block of the kernel-product sum: at most this many kernel rows
# per channel are held at once, whatever the sample count.
KERNEL_BLOCK = 256


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
        _require_finite("x", x)
        _require_finite("y", y)
        if (x_clean is None) != (y_clean is None):
            raise InvalidParameter("clean columns must be given for both channels or neither")
        if x_clean is not None:
            if x_clean.shape != x.shape or y_clean.shape != y.shape:
                raise ShapeMismatch("clean columns must match the sample count")
            _require_finite("x_clean", x_clean)
            _require_finite("y_clean", y_clean)
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
        # Row j is C_i(xs[j]) up to a factor, with largest entry exactly 1,
        # built in place in one q x n buffer contiguous along the samples.
        # Each row is shifted by its largest exponent before exponentiating,
        # which keeps far queries a convex combination; the kernels' common
        # log normalisation cancels under the shift and is never added.
        # Far rows overflow, and give inf - inf where a query and a sample
        # both overflow when scaled; they are replaced below.
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.subtract.outer(xs / self.sf.sigma, self._scaled_x)
            gaussian_exponent(e, out=e)
            top = e.max(axis=1, keepdims=True)
            far = ~np.isfinite(top[:, 0])
            if far.any():
                # Every squared scaled distance overflowed; in that limit the
                # nearest sample takes all the weight. It is found from the
                # sample values, as x - x_i rounds alike for all of them there.
                x, q = self.data.x, xs[far, None]
                below = np.where(x <= q, x, -np.inf).max(axis=1, keepdims=True)
                above = np.where(x >= q, x, np.inf).min(axis=1, keepdims=True)
                e[far] = np.where(x == np.where(q - below <= above - q, below, above), 0.0, -np.inf)
                top[far] = 0.0
        e -= top
        np.exp(e, out=e)
        return e

    def weights(self, x: float) -> np.ndarray:
        """Similarity coefficients C_i(x): nonnegative, summing to one."""
        e = self._block_kernels(np.array([_finite_scalar("x", x)]))[0]
        return e / e.sum()

    def joint_pdf(self, x: float, y: float) -> float:
        """Average of sample-centered kernels at (x, y): one node of joint_on_grid."""
        return float(self.joint_on_grid([_finite_scalar("x", x)], [_finite_scalar("y", y)])[0, 0])

    def marginal_pdf(self, x: float) -> float:
        """Analytic x-marginal: average of the x-channel Gaussians."""
        x = _finite_scalar("x", x)
        return float(np.exp(log_gaussian(x, self.data.x, self.sf.sigma)).mean())

    def conditional_pdf(self, y: float, given_x: float) -> float:
        """Density of y given x: the y-channel Gaussians weighted by C_i(given_x)."""
        gy = np.exp(log_gaussian(_finite_scalar("y", y), self.data.y, self.sf.sigma))
        return float(self.weights(given_x) @ gy)

    def joint_on_grid(self, xs, ys) -> np.ndarray:
        """Joint PDF on the tensor grid xs x ys; out[a, b] = f(xs[a], ys[b]).

        Uses the separable form of the kernel: the grid is the running sum
        of g_x(x_i) g_y(y_i)^T over blocks of samples (see
        :func:`accumulate_kernel_products`), divided by n. Memory is
        O(Gx*Gy + KERNEL_BLOCK*(Gx + Gy)) for any sample count.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        _require_finite("xs", xs)
        _require_finite("ys", ys)
        out = np.zeros((xs.size, ys.size))
        accumulate_kernel_products(out, self.data.x, self.data.y, xs, ys, self.sf.sigma)
        out /= len(self.data)
        return out


def accumulate_kernel_products(out: np.ndarray, x, y, xs, ys, sigma: float) -> None:
    """Add sum_i g(xs - x[i]) g(ys - y[i])^T to out, in place.

    out has shape (xs.size, ys.size). Samples are taken in blocks of
    KERNEL_BLOCK, so each sample's two kernel rows are built exactly once and
    no more than one block of rows is held at a time. Adding the samples of
    a dataset in consecutive slices gives the unnormalized joint grid of
    every prefix on the way.
    """
    for lo in range(0, len(x), KERNEL_BLOCK):
        hi = lo + KERNEL_BLOCK
        gx = np.exp(log_gaussian(xs[None, :], x[lo:hi, None], sigma))
        gy = np.exp(log_gaussian(ys[None, :], y[lo:hi, None], sigma))
        out += gx.T @ gy


def _finite_scalar(name: str, value) -> float:
    if np.ndim(value) != 0:
        raise InvalidParameter(f"{name} must be a scalar, got shape {np.shape(value)}")
    _require_finite(name, value)
    return float(value)
