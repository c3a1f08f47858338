"""Measured pairs and their kernel similarities C_i(x).

A Dataset holds the measured pairs in order and, for generated data, the
GenerationMeta that regenerates them at the dataset's length; the noise-free
pairs are not stored, as generate rebuilds them at sigma_noise = 0. A
DensityModel adds the instrument's scattering function, and its normalised
similarities C_i(x) (DensityModel.weights) weight the conditional-average
predictor. They are computed from the kernels' exponents in samples x
queries blocks. Each query's largest exponent is that of its nearest sample,
found by one binary search in the sorted samples (_nearest_samples), which
the far-query rule reads too; a query where it is below
MIN_UNSHIFTED_EXPONENT has it subtracted first, so far from all samples,
where every kernel underflows to zero, they stay a convex combination.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ShapeMismatch
from .scattering import (ScatteringFunction, gaussian_exponent, kernel_exponents, _is_count,
                         _require_finite)

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
        """First n samples, preserving order, under the same metadata."""
        if not _is_count(n) or not 1 <= n <= len(self):
            raise InvalidParameter(f"prefix size must be an integer in [1, {len(self)}], "
                                   f"got {n!r}")
        if n == len(self):
            return self
        # Views of read-only columns: read-only themselves, nothing is copied.
        return Dataset._owning(self.x[:n], self.y[:n], meta=self.meta)


def _nearest_samples(x: np.ndarray, xs: np.ndarray, qs: np.ndarray, sigma: float):
    """Each query's neighbours x[j - 1] < q <= x[j] in the sorted samples x,
    j clamped to the array, and its largest kernel exponent at qs = xs / sigma.
    Division by sigma > 0 and fl(q - s) are monotone, so that is the larger of
    the neighbours' two exponents, bit for bit the maximum over all samples,
    a NaN (a query and a sample both infinite when scaled) included."""
    j = np.searchsorted(x, xs)
    below, above = x[np.maximum(j - 1, 0)], x[np.minimum(j, x.size - 1)]
    top = gaussian_exponent(qs - below / sigma)
    return below, above, np.maximum(top, gaussian_exponent(qs - above / sigma), out=top)


class DensityModel:
    """A dataset under a scattering function and its similarities C_i(x)."""

    def __init__(self, data: Dataset, sf: ScatteringFunction):
        if len(data) == 0:
            raise EmptyDataset("a density model needs at least one sample")
        self.data = data
        self.sf = sf

    def _query_adjustments(self, xs: np.ndarray, qs: np.ndarray, n: int):
        """What the kernels of the first n samples need at the queries xs
        (qs scaled): None where every query's largest exponent is at least
        MIN_UNSHIFTED_EXPONENT, else (shift, far) for _block_kernels."""
        with np.errstate(over="ignore", invalid="ignore"):
            below, above, top = _nearest_samples(np.sort(self.data.x[:n]), xs, qs, self.sf.sigma)
            if (top >= MIN_UNSHIFTED_EXPONENT).all():
                return None
            cols, far = np.flatnonzero(~np.isfinite(top)), None
            if cols.size:
                # Every squared scaled distance overflowed: in that limit the
                # nearest samples by value share the weight evenly, both sides
                # on an exact tie. Each distance u - v is d + e exactly (Knuth's
                # two-sum), so e settles a tie of the rounded d. Beyond the
                # samples both neighbours are the outermost; the farther gets NaN.
                top[cols] = 0.0
                u, v = np.array([xs[cols], above[cols]]), np.array([below[cols], xs[cols]])
                d = u - v
                w = u - d
                e = (u - (d + w)) - (v - w)
                nearer = (d < d[::-1]) | ((d == d[::-1]) & (e <= e[::-1]))
                far = (cols, *np.where(nearer, [v[0], u[1]], np.nan))
        low = top < MIN_UNSHIFTED_EXPONENT
        return (np.where(low, top, 0.0) if low.any() else None), far

    def _block_kernels(self, lo: int, hi: int, qs: np.ndarray, out: np.ndarray,
                       adjust=None) -> np.ndarray:
        # Row i - lo is sample i's kernel at each scaled query up to a factor
        # per query, built in place in out[:hi - lo] by kernel_exponents,
        # contiguous along the queries, from the block's samples divided by
        # sigma here. A query is exponentiated as it is unless adjust, from the
        # one search of _query_adjustments, shifts it by its largest exponent
        # (its entry is then exactly 1) or gives its nearest samples the whole
        # weight. Either way the kernels' common log normalisation cancels in
        # C_i and is never added. Far queries overflow, and give inf - inf where
        # a query and a sample both overflow when scaled; their columns are
        # replaced. The caller silences overflow and invalid-value warnings.
        e = kernel_exponents(self.data.x[lo:hi] / self.sf.sigma, qs, out)
        if adjust is not None:
            shift, far = adjust
            if shift is not None:
                e -= shift
            if far is not None:
                cols, near_below, near_above = far
                x = self.data.x[lo:hi, None]
                e[:, cols] = np.where((x == near_below) | (x == near_above), 0.0, -np.inf)
        return np.exp(e, out=e)

    def weights(self, x: float) -> np.ndarray:
        """Similarity coefficients C_i(x): nonnegative, summing to one."""
        if np.ndim(x) != 0:
            raise InvalidParameter(f"x must be a scalar, got shape {np.shape(x)}")
        _require_finite("x", x)
        xs = np.array([float(x)])
        with np.errstate(over="ignore"):
            qs = xs / self.sf.sigma
        n = len(self.data)
        adjust = self._query_adjustments(xs, qs, n)
        with np.errstate(over="ignore", invalid="ignore"):
            e = self._block_kernels(0, n, qs, np.empty((n, 1)), adjust)[:, 0]
        return e / e.sum()
