"""Measured pairs and their kernel similarities C_i(x).

A Dataset holds the measured pairs in order and, for generated data, the
GenerationMeta that regenerates them; the noise-free pairs are not stored,
as generate rebuilds them at sigma_noise = 0. A DensityModel adds the
instrument's scattering function, and its normalised similarities C_i(x)
(DensityModel.weights) weight the conditional-average predictor. They are
computed from the kernels' exponents, and a query whose largest exponent is
below MIN_UNSHIFTED_EXPONENT has it subtracted first, so far from all
samples, where every kernel underflows to zero, they stay a convex combination.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ShapeMismatch
from .scattering import ScatteringFunction, gaussian_exponent, _require_finite

# Queries whose largest kernel exponent is at least this are exponentiated
# without a shift. Their largest kernel is then at least e^-300 (about
# 5e-131): every kernel within 408 nats of it is a normal float, the
# smaller ones weigh under e^-408 relative to it and cannot change a rounded
# ratio, and its product with a target above about 4e-178 in magnitude is
# normal too.
MIN_UNSHIFTED_EXPONENT = -300.0


class Dataset:
    """Ordered collection of measured pairs and their provenance.

    Insertion order is significant: statistics over growing experiments are
    defined on nested prefixes, so ``prefix(n)`` must always return the same
    first n samples. The columns are read-only float arrays; the constructor
    copies what it is given, so no caller keeps a writeable alias to them.
    """

    def __init__(self, x, y, meta=None):
        self._adopt(np.array(x, dtype=float), np.array(y, dtype=float), meta)

    @classmethod
    def _owning(cls, x, y, meta=None) -> "Dataset":
        """Dataset over float arrays handed over without a copy; the caller
        keeps no writeable alias to them."""
        dataset = cls.__new__(cls)
        dataset._adopt(x, y, meta)
        return dataset

    def _adopt(self, x, y, meta) -> None:
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidParameter("sample columns must be one-dimensional")
        if x.shape != y.shape:
            raise ShapeMismatch(f"x has {x.size} entries, y has {y.size}")
        _require_finite("x", x, rows=True)
        _require_finite("y", y, rows=True)
        x.flags.writeable = False
        y.flags.writeable = False
        self.x = x
        self.y = y
        self.meta = meta

    def __len__(self) -> int:
        return self.x.size

    def prefix(self, n: int) -> "Dataset":
        """First n samples, preserving order; the metadata records n samples."""
        if not 1 <= n <= len(self):
            raise InvalidParameter(f"prefix size {n} outside [1, {len(self)}]")
        if n == len(self):
            return self
        # Views of read-only columns: read-only themselves, nothing is copied.
        meta = None if self.meta is None else replace(self.meta, n=n)
        return Dataset._owning(self.x[:n], self.y[:n], meta=meta)


class DensityModel:
    """A dataset under a scattering function and its similarities C_i(x)."""

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
        if np.ndim(x) != 0:
            raise InvalidParameter(f"x must be a scalar, got shape {np.shape(x)}")
        _require_finite("x", x)
        e = self._block_kernels(np.array([float(x)]))[0]
        return e / e.sum()

