"""Conditional-average predictor and its quality statistic.

The predictor is the conditional mean extracted from the kernel estimator: a
CaPredictor is a DensityModel, and y_p(x) = sum_i y_i C_i(x) with the same
normalised similarities C_i(x) that weight its conditional density. They are
computed in log domain (maximum-exponent subtraction, see
:class:`expmodel.density.DensityModel`), so they stay a valid convex
combination for queries arbitrarily far from the data.

Queries are taken in blocks of at most QUERY_BLOCK_ELEMS kernel values
(max(1, QUERY_BLOCK_ELEMS // n) queries for n stored samples). A block is
queries x samples, each row one query's shifted kernels over contiguous
samples, built in place in one buffer. One matmul of the block with the
n x 2 stack [y, 1] gives each query's kernel-weighted target sum and kernel
sum, and a prediction is their ratio, so no normalised weight matrix is ever
formed. Memory is one block plus O(n + q) for any sample and query count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import Dataset, DensityModel
from .errors import DegenerateVariance, InvalidParameter, ShapeMismatch
from .information import resolve_schedule
from .scattering import ScatteringFunction, _require_finite
from .tables import column_rows, write_table

# Kernel values held per query block (about 1 MB of float64): the memory of
# one prediction call, whatever the sample and query counts.
QUERY_BLOCK_ELEMS = 1 << 17


class CaPredictor(DensityModel):
    """Conditional-average predictor built on a basic dataset."""

    def predict(self, x: float) -> float:
        """Kernel-weighted average of the stored y values at query x."""
        return float(self.predict_many([x])[0])

    def predict_many(self, xs) -> np.ndarray:
        """Predictions at every query, one query block at a time."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if xs.ndim != 1:
            raise InvalidParameter(f"queries must be one-dimensional, got shape {xs.shape}")
        _require_finite("xs", xs)
        # Column 0 of each block @ targets is the kernel-weighted target sum,
        # column 1 the kernel sum.
        targets = np.stack([self.data.y, np.ones(len(self.data))], axis=1)
        block = max(1, QUERY_BLOCK_ELEMS // len(self.data))
        out = np.empty(xs.shape)
        for lo in range(0, xs.size, block):
            num, den = (self._block_kernels(xs[lo:lo + block]) @ targets).T
            np.divide(num, den, out=out[lo:lo + block])
        return out


@dataclass(frozen=True)
class QualityReport:
    """Moment breakdown of a prediction run against a test set.

    q is 1 - mse / (var_true + var_pred): exactly 1 for perfect prediction,
    0 for an independent predictor with matching mean, negative under mean
    bias. Population moments (divide by n) throughout.
    """

    q: float
    mean_true: float
    mean_pred: float
    var_true: float
    var_pred: float
    cov: float
    mse: float
    n_test: int


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

    mean_true = float(yt.mean())
    mean_pred = float(yp.mean())
    var_true = float(np.mean((yt - mean_true) ** 2))
    var_pred = float(np.mean((yp - mean_pred) ** 2))
    denom = var_true + var_pred
    if denom < np.finfo(float).tiny:
        # Subnormal variances keep too few significant bits to give q.
        raise DegenerateVariance(f"variance sum {denom!r} vanishes; quality undefined")
    cov = float(np.mean((yt - mean_true) * (yp - mean_pred)))
    mse = float(np.mean((yt - yp) ** 2))
    return QualityReport(
        q=1.0 - mse / denom,
        mean_true=mean_true,
        mean_pred=mean_pred,
        var_true=var_true,
        var_pred=var_pred,
        cov=cov,
        mse=mse,
        n_test=yt.size,
    )


def ca_quality_theoretical(var_true: float, var_pred: float) -> float:
    """Quality of an exact conditional average: 2 Var(y_p) / (Var(y) + Var(y_p)).

    Follows from the identities m(y) = m(y_p) and Cov(y, y_p) = Var(y_p),
    which hold when the conditional average is taken under the model
    distribution itself.
    """
    if not (np.isfinite(var_true) and np.isfinite(var_pred)):
        raise InvalidParameter("variances must be finite")
    if var_true < 0 or var_pred < 0:
        raise InvalidParameter("variances must be nonnegative")
    denom = var_true + var_pred
    if denom == 0.0:
        raise DegenerateVariance("both variances vanish; quality undefined")
    return 2.0 * var_pred / denom


def quality_sweep(basic: Dataset,
                  test: Dataset,
                  sf: ScatteringFunction,
                  schedule: Optional[Sequence[int]] = None) -> list[tuple[int, QualityReport]]:
    """Quality of predictors built on growing prefixes of the basic set.

    Every schedule point n yields a predictor on the first n basic samples,
    evaluated on the full test set.
    """
    sched = resolve_schedule(schedule, len(basic))
    out = []
    for n in sched:
        predictor = CaPredictor(basic.prefix(n), sf)
        y_p = predictor.predict_many(test.x)
        out.append((n, predictor_quality(test.y, y_p)))
    return out


def write_predictions_csv(path, x_t, y_t, y_p) -> None:
    """Prediction table: x_t, y_t, y_p, err with err = y_p - y_t."""
    x_t = np.asarray(x_t, dtype=float)
    y_t = np.asarray(y_t, dtype=float)
    y_p = np.asarray(y_p, dtype=float)
    if not (x_t.shape == y_t.shape == y_p.shape):
        raise ShapeMismatch("prediction columns must have equal length")
    write_table(path, ["x_t", "y_t", "y_p", "err"],
                ((a, b, c, c - b) for a, b, c in column_rows(x_t, y_t, y_p)))


def write_quality_csv(path, rows: Sequence[tuple[int, int, QualityReport]]) -> None:
    """Quality table over (n, seed) runs."""
    write_table(path, ["N", "seed", "Q", "var_y", "var_yp", "cov", "mse"],
                ((n, seed, rep.q, rep.var_true, rep.var_pred, rep.cov, rep.mse)
                 for n, seed, rep in rows))
