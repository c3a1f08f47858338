"""Entropy statistics of an experiment and selection of the sample count.

All quantities are in nats. The reference distribution is uniform over the
instrument span, so the indeterminacy of the estimated joint density is

    H_z = -integral_span f log f  -  2 log(2L)

which is never positive. Subtracting the calibration uncertainty H_u of the
scattering kernel gives the experimental information I(N) = H_z - H_u, the
net information carried by N noisy measurements. From I(N) follow the
redundancy R = log N - I, the cost C = log N - 2 I whose minimizer is the
proper number of samples, and the complexity K = exp(I), the equivalent
count of non-overlapping kernels.

Entropy integrals are evaluated with the trapezoid rule on a uniform tensor
grid restricted to the span. Kernel mass that leaks outside the span is not
renormalized; the leak is a property of the instrument, not of the estimator.
The joint density is tabulated as a running sum S of unnormalised kernel
products seeded with DENSITY_FLOOR, and its normalisation 1/(2 pi sigma^2 n)
enters the entropy as one scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import Dataset, accumulate_kernel_products
from .errors import InvalidGrid, InvalidSchedule
from .memory import memory_limit
from .scattering import ScatteringFunction, SpanConfig
from .tables import write_table

# The running kernel sum of an information curve starts at this value, so
# its log is finite at every node and a node no kernel reaches contributes
# about c * 1e-300 * log(c * 1e-300) to the integral of f log f, with c the
# normalisation. A sum above about 1e-284 absorbs it exactly.
DENSITY_FLOOR = 1e-300

# Near-geometric ladder used when no explicit schedule is given.
_BASE_SCHEDULE = (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 90, 128, 180)

# Bytes held per grid node by info_curve, float64 each: the running sum, the
# scratch grid that holds each block's kernel product and then the entropy
# integrand, and the two kernel-row buffers, which together hold at most one
# grid. They are allocated once per curve.
GRID_BYTES_PER_NODE = 3 * 8


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor grid over the span square [-L, L]^2, the one holder of
    the span: the uniform reference and H_u are taken on it.

    Parameters
    ----------
    span:
        Instrument span configuration providing the half width L.
    points_per_axis:
        Number of nodes per axis, at least 129. The step is
        2L / (points_per_axis - 1) and must not exceed sigma/4 of the kernel
        being integrated, which must be narrower than L (both checked by
        :meth:`require_resolves`). The arrays an information curve holds at
        once on this grid must fit in physical memory and in what the soft
        RLIMIT_AS leaves of the address space.
    """

    span: SpanConfig
    points_per_axis: int

    def __post_init__(self) -> None:
        if not isinstance(self.points_per_axis, (int, np.integer)) or self.points_per_axis < 129:
            raise InvalidGrid(
                f"points_per_axis must be an integer >= 129, got {self.points_per_axis}"
            )
        needed = GRID_BYTES_PER_NODE * int(self.points_per_axis) ** 2
        available = memory_limit()
        if needed > available:
            raise InvalidGrid(
                f"a {self.points_per_axis}^2 grid needs {needed} bytes, more than "
                f"the {available} bytes this process may allocate"
            )

    @property
    def step(self) -> float:
        return self.span.width / (self.points_per_axis - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.span.half_width, self.span.half_width, self.points_per_axis)

    def weights(self) -> np.ndarray:
        w = np.full(self.points_per_axis, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def require_resolves(self, sf: ScatteringFunction) -> None:
        """Reject kernels as wide as the span or narrower than 4 grid steps."""
        if sf.sigma >= self.span.half_width:
            raise InvalidGrid(
                f"sigma={sf.sigma} must be smaller than the span half width "
                f"{self.span.half_width}"
            )
        if self.step > sf.sigma / 4.0 + 1e-15:
            raise InvalidGrid(
                f"grid step {self.step:.6g} exceeds sigma/4 = {sf.sigma / 4.0:.6g}; "
                f"increase points_per_axis"
            )

    def calibration_entropy(self, sf: ScatteringFunction) -> float:
        """Closed-form calibration uncertainty H_u of sf, in nats: the kernel's
        entropy relative to the uniform reference on this span,
        2*log(sigma/L) + log(pi/2) + 1, exact while its mass lies inside."""
        return 2.0 * math.log(sf.sigma / self.span.half_width) + math.log(math.pi / 2.0) + 1.0


def _kernel_rows(sched: Sequence[int], points_per_axis: int) -> int:
    """Samples per kernel-product block of a curve: at most half the grid
    points, so the two kernel-row buffers hold no more than one grid (as
    GRID_BYTES_PER_NODE counts), and at most the largest schedule segment."""
    segment = max(b - a for a, b in zip([0, *sched], sched))
    return min(points_per_axis // 2, segment)


def _indeterminacy(joint_sum: np.ndarray, c: float, grid: QuadratureGrid,
                   scratch: np.ndarray) -> float:
    """H_z of the joint density f = c * joint_sum tabulated on the grid: the
    trapezoid estimate of -integral_span f log f minus the uniform
    reference's 2 log(2L). joint_sum S is positive (it is seeded with
    DENSITY_FLOOR), and f log f = c S (log S + log c) is integrated as
    c (w S log S w + log c w S w), with S log S built in scratch."""
    s_log_s = np.log(joint_sum, out=scratch)
    s_log_s *= joint_sum
    w = grid.weights()
    f_log_f = c * (float(w @ s_log_s @ w) + math.log(c) * float(w @ joint_sum @ w))
    return -f_log_f - 2.0 * math.log(grid.span.width)


@dataclass(frozen=True)
class InfoRecord:
    """Statistics of one prefix experiment of size n.

    redundancy, cost and complexity are derived from (n, info) at
    construction, so the identities R = log n - I, C = log n - 2I and
    K = exp(I) hold exactly.
    """

    n: int
    log_n: float
    info: float
    redundancy: float
    cost: float
    complexity: float

    @classmethod
    def from_info(cls, n: int, info: float) -> "InfoRecord":
        log_n = math.log(n)
        return cls(
            n=n,
            log_n=log_n,
            info=info,
            redundancy=log_n - info,
            cost=log_n - 2.0 * info,
            complexity=math.exp(info),
        )


@dataclass(frozen=True)
class InfoCurve:
    """Information statistics over a growing schedule of prefix sizes."""

    records: tuple[InfoRecord, ...]
    n_opt: int
    info_limit: float
    complexity_limit: float

    # Columns of the information-curve table, one row per record.
    COLUMNS = ("N", "logN", "I", "R", "C", "K")

    def rows(self):
        """The records as rows of the information-curve table."""
        return ((r.n, r.log_n, r.info, r.redundancy, r.cost, r.complexity)
                for r in self.records)

    def write_records_csv(self, path) -> None:
        write_table(path, self.COLUMNS, self.rows())

    def write_summary_csv(self, path) -> None:
        write_table(path, ["N_opt", "I_inf", "K_inf"],
                    [(self.n_opt, self.info_limit, self.complexity_limit)])


def default_schedule(n_max: int) -> list[int]:
    """Near-geometric ladder 1, 2, 3, 4, 6, ... clipped to and ending at n_max."""
    if n_max < 1:
        raise InvalidSchedule(f"n_max must be >= 1, got {n_max}")
    return [n for n in _BASE_SCHEDULE if n < n_max] + [n_max]


def resolve_schedule(schedule: Optional[Sequence[int]], n_available: int) -> list[int]:
    """The schedule checked against n_available samples; None gives the default."""
    if schedule is None:
        return default_schedule(n_available)
    sched = [int(n) for n in schedule]
    if len(sched) == 0:
        raise InvalidSchedule("schedule is empty")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise InvalidSchedule(f"schedule must be strictly increasing, got {sched}")
    if sched[0] < 1:
        raise InvalidSchedule(f"schedule starts below 1: {sched[0]}")
    if sched[-1] > n_available:
        raise InvalidSchedule(
            f"schedule reaches {sched[-1]} but only {n_available} samples exist"
        )
    return sched


def info_curve(data: Dataset,
               sf: ScatteringFunction,
               grid: QuadratureGrid,
               schedule: Optional[Sequence[int]] = None) -> InfoCurve:
    """Evaluate I, R, C, K over nested prefixes and select the proper count.

    The joint grid of prefix n is c = 1/(2 pi sigma^2 n) times the running
    sum of the samples' unnormalised kernel products on the sigma-scaled
    axis, a sum seeded with DENSITY_FLOOR. The samples between two schedule
    points are added to the sum once (see
    :func:`expmodel.density.accumulate_kernel_products`), and at each point
    the entropy is taken of the sum with the one scalar c. Every sample's
    kernel rows are built exactly once. With G the grid points per axis, the
    curve allocates three G x G float64 arrays' worth once
    (GRID_BYTES_PER_NODE): the running sum, one scratch grid for the kernel
    products and the entropy integrand, and kernel rows holding at most one
    grid between them. Nothing of grid size is allocated per schedule point,
    and memory does not grow with the dataset or the schedule. Each I(n) is
    H_z - H_u of the kernel estimate on the first n
    samples: the trapezoid entropy of its joint density on the grid, less
    2 log(2L) and the closed-form H_u of ``grid.calibration_entropy(sf)``.

    n_opt is the schedule point with the smallest cost (ties resolved toward
    the smallest n). The limit of I is estimated as the mean of the top tenth
    of the schedule (at least the last three records) and the complexity
    limit is its exponential.
    """
    grid.require_resolves(sf)
    sched = resolve_schedule(schedule, len(data))

    scaled_axis = grid.axis / sf.sigma
    g = scaled_axis.size
    joint_sum = np.full((g, g), DENSITY_FLOOR)
    scratch = np.empty_like(joint_sum)
    gx, gy = np.empty((2, _kernel_rows(sched, g), g))
    kernel_norm = 1.0 / (2.0 * math.pi * sf.sigma ** 2)
    h_u = grid.calibration_entropy(sf)
    records = []
    done = 0
    for n in sched:
        accumulate_kernel_products(joint_sum, data.x[done:n], data.y[done:n],
                                   scaled_axis, scaled_axis, sf.sigma,
                                   scratch=scratch, gx=gx, gy=gy)
        done = n
        h_z = _indeterminacy(joint_sum, kernel_norm / n, grid, scratch)
        records.append(InfoRecord.from_info(n, h_z - h_u))

    n_opt = min(records, key=lambda rec: rec.cost).n

    tail = min(len(records), max(3, math.ceil(len(records) / 10)))
    info_limit = float(np.mean([r.info for r in records[-tail:]]))
    return InfoCurve(
        records=tuple(records),
        n_opt=n_opt,
        info_limit=info_limit,
        complexity_limit=math.exp(info_limit),
    )
