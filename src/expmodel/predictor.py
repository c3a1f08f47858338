"""Conditional-average predictor and its quality statistic.

The predictor is the conditional mean extracted from the kernel estimator: a
CaPredictor is a DensityModel, and y_p(x) = sum_i y_i C_i(x) with the
normalised similarities C_i(x) of DensityModel.weights, which stay a valid
convex combination for queries arbitrarily far from the data (see
:mod:`expmodel.density`).

Kernels are taken in samples x queries blocks. All queries of a call sit in
one chunk while their per-query vectors leave room for _MIN_ROWS sample
rows, so that a block and those vectors hold at most QUERY_BLOCK_ELEMS
values. Samples come in blocks sized from the query count: a block holds at
most _KERNEL_BLOCK_ELEMS kernel values, or _MIN_ROWS rows where that is more
(_block_rows). Each block is folded into every query's kernel-weighted
target sum and kernel sum by one matmul with the stacked targets [y; 1],
and a prediction is their ratio, so no normalised weight matrix is ever
formed. Each query's kernels are exponentiated without a shift unless its
nearest sample is far (see :mod:`expmodel.density`). Memory is one block
plus O(n + q) for any sample and query count, the operands of
scattering.kernel_exponents included.
The running sums after the first n samples are those of the predictor on
the prefix of n, so one pass predicts at every prefix of a quality sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .density import Dataset, DensityModel
from .errors import DegenerateVariance, InvalidParameter, ShapeMismatch
from .information import resolve_schedule
from .scattering import ScatteringFunction, _require_finite

# Values held by one kernel block and the per-query vectors beside it
# together (about 1 MB of float64), whatever the sample and query counts.
# kernel_exponents adds at most 2 per block row and query while it runs.
QUERY_BLOCK_ELEMS = 1 << 17
# Per-query vectors beside a block: the scaled queries, the running sums
# and a block's sums (two each).
_QUERY_VECTORS = 5
# Kernel values of one block (512 KB of float64): a larger block saves little
# time per kernel value but adds its whole size to the peak memory.
_KERNEL_BLOCK_ELEMS = 1 << 16
# Fewest sample rows per block: at many queries the kernel budget alone gives
# blocks of a row or two, each paying the fixed cost of a block's calls.
_MIN_ROWS = 8
# Queries per chunk (10 082): as many as leave room for _MIN_ROWS sample rows.
_QUERY_CHUNK = QUERY_BLOCK_ELEMS // (_QUERY_VECTORS + _MIN_ROWS)


def _block_rows(n_queries: int) -> int:
    """Samples per kernel block at one chunk of n_queries queries."""
    return max(_MIN_ROWS, _KERNEL_BLOCK_ELEMS // max(n_queries, 1))


def _target_shift(y: np.ndarray) -> int:
    # Kernels are at most 1, so only where 2 n max|y| overflows are the
    # targets scaled by an exact power of two.
    top = max(y.max(), -y.min())
    return np.frexp(top)[1] if top > np.finfo(float).max / (2 * len(y)) else 0


class CaPredictor(DensityModel):
    """Conditional-average predictor built on a basic dataset."""

    def predict_many(self, xs) -> np.ndarray:
        """Predictions at every query, one kernel block at a time."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.ndim != 1:
            raise InvalidParameter(f"queries must be one-dimensional, got shape {xs.shape}")
        _require_finite("xs", xs)
        return next(self._predict_prefixes(xs, [len(self.data)]))

    def _predict_prefixes(self, xs: np.ndarray, sizes: Sequence[int]) -> Iterator[np.ndarray]:
        """Predictions at xs of the predictors on the first n samples, for
        each n of the increasing sizes, bit for bit those of
        CaPredictor(self.data.prefix(n), self.sf).predict_many(xs).

        The points that need neither a query shift, the far-query rule nor
        scaled targets are read off one pass over the samples; each other
        point is computed on its own, as is each point when the queries span
        several chunks.
        """
        if xs.size > _QUERY_CHUNK:
            for n in sizes:
                yield np.concatenate([next(self._predict_prefixes(xs[lo:lo + _QUERY_CHUNK], [n]))
                                      for lo in range(0, xs.size, _QUERY_CHUNK)])
            return
        with np.errstate(over="ignore"):
            qs = xs / self.sf.sigma
        y = self.data.y
        plain, settled = [], False
        for n in sizes:
            # Each query's largest exponent only grows with n: once no query
            # needs an adjustment, no longer prefix does.
            adjust = None if settled else self._query_adjustments(xs, qs, n)
            settled = adjust is None
            shift = _target_shift(y[:n])
            if adjust is None and not shift:
                plain.append(n)
                continue
            yield from self._running_predictions(qs, plain)
            plain = []
            yield from self._running_predictions(qs, [n], shift, adjust)
        yield from self._running_predictions(qs, plain)

    def _running_predictions(self, qs: np.ndarray, sizes: Sequence[int], shift: int = 0,
                             adjust=None) -> Iterator[np.ndarray]:
        # Predictions at the scaled queries qs on each prefix of the
        # increasing sizes, from sums running over whole sample blocks. A
        # point inside a block adds its rows of the block to the sums, which
        # are the operations, in order, of a pass that ends at that point.
        if not sizes:
            return
        last = sizes[-1]
        y = self.data.y[:last]
        targets = np.stack([np.ldexp(y, -shift), np.ones(last)], axis=1)
        rows = _block_rows(qs.size)
        block = np.empty((min(rows, last), qs.size))
        sums, part = np.zeros((2, qs.size)), np.empty((2, qs.size))

        # The sums hold the samples before lo, and e the kernels of the block
        # from lo once it is built. Overflow is silenced up to each yield
        # only: numpy's error state is context-local, so one set across a
        # yield would stay set in the caller.
        lo, e = 0, None
        for n in sizes:
            with np.errstate(over="ignore", invalid="ignore"):
                while lo < n:
                    if e is None:
                        e = self._block_kernels(lo, min(lo + rows, last), qs, block, adjust)
                    if n < lo + rows:
                        break
                    sums += np.dot(targets[lo:lo + rows].T, e, out=part)
                    lo, e = lo + rows, None
                s = sums
                if n > lo:
                    s = np.add(sums, np.dot(targets[lo:n].T, e[:n - lo], out=part), out=part)
            out = np.divide(s[0], s[1])
            yield np.ldexp(out, shift, out=out)


@dataclass(frozen=True)
class QualityReport:
    """Moments of a prediction run against a test set, population moments
    (divide by n) throughout; q is read from them."""

    mean_true: float
    mean_pred: float
    var_true: float
    var_pred: float
    cov: float
    mse: float
    n_test: int

    @property
    def q(self) -> float:
        """1 - mse / (var_true + var_pred): exactly 1 for perfect prediction,
        0 for an independent predictor with matching mean, negative under
        mean bias."""
        return 1.0 - self.mse / (self.var_true + self.var_pred)


def predictor_quality(y_true: Sequence[float], y_pred: Sequence[float]) -> QualityReport:
    """Quality statistic of predictions y_pred against observed y_true."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise ShapeMismatch(f"y_true has shape {yt.shape}, y_pred {yp.shape}")
    if yt.size < 2:
        raise ShapeMismatch("need at least two test points")
    _require_finite("y_true", yt)
    _require_finite("y_pred", yp)

    n = yt.size
    with np.errstate(over="ignore", invalid="ignore"):
        # np.mean's arithmetic, one sum and one division, without its fixed
        # cost per call; each product is formed in place.
        mean_true, mean_pred = float(np.add.reduce(yt) / n), float(np.add.reduce(yp) / n)
        err = yt - yp
        mse = float(np.add.reduce(np.multiply(err, err, out=err)) / n)
        d_true, d_pred = yt - mean_true, yp - mean_pred
        cov = float(np.add.reduce(np.multiply(d_true, d_pred, out=err)) / n)
        var_true = float(np.add.reduce(np.multiply(d_true, d_true, out=d_true)) / n)
        var_pred = float(np.add.reduce(np.multiply(d_pred, d_pred, out=d_pred)) / n)
        denom = var_true + var_pred
    if not all(map(math.isfinite, (mean_true, mean_pred, denom, cov, mse))):
        # Finite values near the float64 limit overflow their sums or squares.
        raise InvalidParameter("moments of y_true and y_pred overflow float64; quality undefined")
    if denom < np.finfo(float).tiny:
        # Subnormal variances keep too few significant bits to give q.
        raise DegenerateVariance(f"variance sum {denom!r} vanishes; quality undefined")
    return QualityReport(
        mean_true=mean_true,
        mean_pred=mean_pred,
        var_true=var_true,
        var_pred=var_pred,
        cov=cov,
        mse=mse,
        n_test=n,
    )


def quality_sweep(basic: Dataset,
                  test: Dataset,
                  sf: ScatteringFunction,
                  schedule: Optional[Sequence[int]] = None) -> dict[int, QualityReport]:
    """Quality of predictors built on growing prefixes of the basic set.

    Every schedule point n yields a predictor on the first n basic samples,
    evaluated on the full test set; reports are keyed by n in schedule order.
    The predictions at every point come from one pass over the basic set and
    equal those of CaPredictor(basic.prefix(n), sf).predict_many(test.x) bit
    for bit. A point whose predictor shifts a test query, gives one the
    far-query limit or scales its targets is computed on its own, as is
    every point when the test set spans several query chunks (more than
    10 082 queries); at any size a kernel block keeps at least 8 samples.
    """
    sizes = resolve_schedule(schedule, len(basic))
    predictions = CaPredictor(basic, sf)._predict_prefixes(test.x, sizes)
    return {n: predictor_quality(test.y, y_p) for n, y_p in zip(sizes, predictions)}
