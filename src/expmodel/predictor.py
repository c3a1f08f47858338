"""Conditional-average predictor and its quality statistic.

The predictor is the conditional mean extracted from the kernel estimator: a
CaPredictor is a DensityModel, and y_p(x) = sum_i y_i C_i(x) with the
normalised similarities C_i(x) of DensityModel.weights, which stay a valid
convex combination for queries arbitrarily far from the data (see
:mod:`expmodel.density`).

Queries are taken in blocks of at most QUERY_BLOCK_ELEMS kernel values
(max(1, QUERY_BLOCK_ELEMS // n) queries for n stored samples). A block is
queries x samples, each row one query's kernels over contiguous samples up
to a factor per row, built in place in one buffer. One matmul of the block
with the n x 2 stack [y, 1] gives each query's kernel-weighted target sum
and kernel sum, and a prediction is their ratio, so no normalised weight
matrix is ever formed. Memory is one block plus O(n + q) for any sample and
query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import Dataset, DensityModel
from .errors import DegenerateVariance, InvalidParameter, ShapeMismatch
from .information import resolve_schedule
from .scattering import ScatteringFunction, _require_finite

# Kernel values held per query block (about 1 MB of float64): the memory of
# one prediction call, whatever the sample and query counts.
QUERY_BLOCK_ELEMS = 1 << 17


class CaPredictor(DensityModel):
    """Conditional-average predictor built on a basic dataset."""

    def predict_many(self, xs) -> np.ndarray:
        """Predictions at every query, one query block at a time."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.ndim != 1:
            raise InvalidParameter(f"queries must be one-dimensional, got shape {xs.shape}")
        _require_finite("xs", xs)
        # Column 0 of each block @ targets is the kernel-weighted target sum,
        # column 1 the kernel sum. Kernels are at most 1, so only where
        # 2 n max|y| overflows are the targets scaled by an exact power of two.
        y = self.data.y
        top = max(y.max(), -y.min())
        shift = np.frexp(top)[1] if top > np.finfo(float).max / (2 * len(y)) else 0
        targets = np.stack([np.ldexp(y, -shift), np.ones(len(y))], axis=1)
        block = max(1, QUERY_BLOCK_ELEMS // len(self.data))
        out = np.empty(xs.shape)
        for lo in range(0, xs.size, block):
            num, den = (self._block_kernels(xs[lo:lo + block]) @ targets).T
            np.divide(num, den, out=out[lo:lo + block])
        return np.ldexp(out, shift, out=out)


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

    with np.errstate(over="ignore", invalid="ignore"):
        mean_true = float(yt.mean())
        mean_pred = float(yp.mean())
        var_true = float(np.mean((yt - mean_true) ** 2))
        var_pred = float(np.mean((yp - mean_pred) ** 2))
        cov = float(np.mean((yt - mean_true) * (yp - mean_pred)))
        mse = float(np.mean((yt - yp) ** 2))
        denom = var_true + var_pred
    if not np.isfinite([mean_true, mean_pred, denom, cov, mse]).all():
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
        n_test=yt.size,
    )


def quality_sweep(basic: Dataset,
                  test: Dataset,
                  sf: ScatteringFunction,
                  schedule: Optional[Sequence[int]] = None) -> dict[int, QualityReport]:
    """Quality of predictors built on growing prefixes of the basic set.

    Every schedule point n yields a predictor on the first n basic samples,
    evaluated on the full test set; reports are keyed by n in schedule order.
    """
    reports = {}
    for n in resolve_schedule(schedule, len(basic)):
        y_p = CaPredictor(basic.prefix(n), sf).predict_many(test.x)
        reports[n] = predictor_quality(test.y, y_p)
    return reports
