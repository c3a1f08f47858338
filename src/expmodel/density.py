"""Measured pairs and their kernel similarities C_i(x).

A Dataset holds the measured pairs in order and, for generated data, the
GenerationMeta that regenerates them at the dataset's length; the noise-free
pairs are not stored, as generate rebuilds them at sigma_noise = 0. A
DensityModel adds the instrument's scattering function, and its normalised
similarities C_i(x) (DensityModel.weights) weight the conditional-average
predictor. They are computed from the kernels' exponents in samples x
queries blocks. Each query's largest exponent is that of its nearest sample,
found by one binary search in the sorted scaled samples
(_nearest_exponents); a query where it is below MIN_UNSHIFTED_EXPONENT has
it subtracted first, so far from all samples, where every kernel underflows
to zero, they stay a convex combination.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import EmptyDataset, InvalidParameter, ShapeMismatch
from .scattering import ScatteringFunction, gaussian_exponent, _is_count, _require_finite

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


def _nearest_exponents(scaled, qs: np.ndarray) -> np.ndarray:
    """Each scaled query's largest kernel exponent over the sorted scaled samples.

    fl(q - s_i) is monotone in s_i and the exponent in |fl(q - s_i)|, so the
    largest exponent is that of the nearest sample below or above q, and it
    equals the maximum over all samples bit for bit. A NaN (a query and a
    sample both infinite when scaled) propagates as it would in that maximum.
    The caller silences numpy's overflow warnings.
    """
    j = np.searchsorted(scaled, qs)
    below = gaussian_exponent(qs - scaled[np.maximum(j - 1, 0)])
    above = gaussian_exponent(qs - scaled[np.minimum(j, scaled.size - 1)])
    return np.maximum(below, above, out=below)


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

    def _query_adjustments(self, xs: np.ndarray, qs: np.ndarray, n: int):
        """What the kernels of the first n samples need at the queries xs
        (qs scaled): None where every query's largest exponent is at least
        MIN_UNSHIFTED_EXPONENT, else (shift, far) for _block_kernels."""
        x = np.sort(self.data.x[:n])  # so is x / sigma, as sigma > 0
        with np.errstate(over="ignore", invalid="ignore"):
            top = _nearest_exponents(x / self.sf.sigma, qs)
        if (top >= MIN_UNSHIFTED_EXPONENT).all():
            return None
        far = np.flatnonzero(~np.isfinite(top))
        if far.size:
            top[far] = 0.0
            far = (far, *self._far_neighbours(x, xs[far]))
        else:
            far = None
        low = top < MIN_UNSHIFTED_EXPONENT
        return (np.where(low, top, 0.0) if low.any() else None), far

    def _far_neighbours(self, x: np.ndarray, q: np.ndarray):
        # Every squared scaled distance overflowed; in that limit the nearest
        # samples share all the weight evenly, those below and above alike on
        # an exact tie. They are read from the sorted sample values x, as
        # q - x_i rounds alike for all of them there. A side that does not
        # share the weight gets NaN, which no sample equals.
        at_or_below = np.searchsorted(x, q, "right")
        at_or_above = np.searchsorted(x, q, "left")
        below = np.where(at_or_below > 0, x[np.maximum(at_or_below - 1, 0)], -np.inf)
        above = np.where(at_or_above < x.size, x[np.minimum(at_or_above, x.size - 1)], np.inf)
        with np.errstate(over="ignore"):
            return (np.where(q - below <= above - q, below, np.nan),
                    np.where(above - q <= q - below, above, np.nan))

    def _block_kernels(self, lo: int, hi: int, qs: np.ndarray, out: np.ndarray,
                       adjust=None) -> np.ndarray:
        # Row i - lo is sample i's kernel at each scaled query up to a factor
        # per query, built in place in out[:hi - lo], contiguous along the
        # queries. A query is exponentiated as it is unless adjust (from
        # _query_adjustments) shifts it by its largest exponent, whose entry
        # is then exactly 1, or gives it the far-query limit. Either way the
        # kernels' common log normalisation cancels in C_i and is never added.
        # Far queries overflow, and give inf - inf where a query and a sample
        # both overflow when scaled; their columns are replaced.
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.subtract.outer(self._scaled_x[lo:hi], qs, out=out[:hi - lo])
            gaussian_exponent(e, out=e)
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
        e = self._block_kernels(0, n, qs, np.empty((n, 1)),
                                self._query_adjustments(xs, qs, n))[:, 0]
        return e / e.sum()
