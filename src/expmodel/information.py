"""Entropy statistics of an experiment and selection of the sample count.

All quantities are in nats. The experimental information of N noisy
measurements is the entropy of their kernel estimate f of the joint density
less that of one kernel, I(N) = -integral f log f - log(2 pi e sigma^2).
This is H_z - H_u, the indeterminacy of f less the calibration uncertainty
of the kernel, each relative to a uniform reference on the instrument span
(-L, L)^2: the reference adds -2 log(2L) to both and cancels, so only
criterion 1's ceiling -H_u reads it (expmodel.criteria). From I(N) follow
the redundancy R = log N - I, the cost C = log N - 2 I whose minimizer is
the proper number of samples, and the complexity K = exp(I), the equivalent
count of non-overlapping kernels.

Entropy integrals are evaluated with the trapezoid rule on a uniform tensor
grid over the square [-L, L]^2, the grid's extent, on at least its nodes and
at a step <= sigma/4. Kernel mass that leaks outside it is not renormalized;
the leak is a property of the instrument, not of the estimator. The joint
density is tabulated as a running sum S of unnormalised kernel products
seeded with DENSITY_FLOOR, and its normalisation 1/(2 pi sigma^2 n) enters
the entropy as one scalar together with the squared grid step, so the
quadrature sums stay of the order of the grid size at any extent or sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import Dataset
from .errors import EmptyDataset, InvalidGrid, InvalidParameter, InvalidSchedule
from .memory import memory_limit
from .scattering import ScatteringFunction, gaussian_exponent, _require_finite

# The running kernel sum of an information curve starts at this value, so
# its log is finite at every node and a node no kernel reaches contributes
# about c * 1e-300 * log(c * 1e-300) to the integral of f log f, with c the
# normalisation. A sum above about 1e-284 absorbs it exactly.
DENSITY_FLOOR = 1e-300

# Near-geometric ladder used when no explicit schedule is given.
_BASE_SCHEDULE = (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 90, 128, 180)

# Bytes held per grid node by info_curve's one workspace, float64 each: the
# running sum, the scratch grid that holds each block's kernel product and
# then the entropy integrand, and one kernel-row buffer, which holds at most
# one grid. The workspace is allocated once per curve.
GRID_BYTES_PER_NODE = 3 * 8


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform tensor grid over the square [-L, L]^2 that both channels share.

    Parameters
    ----------
    half_width:
        Half width L of the square, positive and finite.
    points_per_axis:
        Nodes per axis, at least 129: a floor, which info_curve raises to
        ceil(8L/sigma) + 1 for a step 2L/(G - 1) <= sigma/4 of a kernel
        narrower than L (:meth:`require_resolves`). The arrays an information
        curve holds at once on its grid must fit in physical memory and in
        what the soft RLIMIT_AS leaves of the address space.
    """

    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        _require_finite("half_width", self.half_width)
        if self.half_width <= 0:
            raise InvalidParameter(f"half_width must be > 0, got {self.half_width}")
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
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def require_resolves(self, sf: ScatteringFunction) -> float:
        """Reject kernels as wide as the square or with a normalisation
        1/(2 pi sigma^2) that is not positive and finite; return it."""
        if sf.sigma >= self.half_width:
            raise InvalidGrid(
                f"sigma={sf.sigma} must be smaller than the grid's half width {self.half_width}"
            )
        try:  # sigma ** 2 overflows above about 1.3e154 and is 0 below about 1e-162
            norm = 1.0 / (2.0 * math.pi * sf.sigma ** 2)
        except (OverflowError, ZeroDivisionError):
            norm = 0.0
        if not 0.0 < norm < math.inf:
            raise InvalidGrid(f"sigma={sf.sigma}: 1/(2 pi sigma^2) is not positive and finite")
        return norm


def _kernel_rows(sched: Sequence[int], points_per_axis: int) -> int:
    """Samples per kernel-product block of a curve: at most half the grid
    points, so the one kernel-row buffer, with a block's x and y rows, holds
    no more than one grid (as GRID_BYTES_PER_NODE counts), and at most the
    largest schedule segment."""
    segment = max(b - a for a, b in zip([0, *sched], sched))
    return min(points_per_axis // 2, segment)


def _entropy(joint_sum: np.ndarray, c: float, grid: QuadratureGrid,
             scratch: np.ndarray) -> float:
    """The trapezoid estimate of -integral f log f over the grid of the joint
    density f = c * joint_sum tabulated on it. joint_sum S is positive (it is
    seeded with DENSITY_FLOOR), and f log f = c S (log S + log c) is
    integrated as c h^2 (u S log S u + log c u S u), with S log S built in
    scratch, h the step and u the unit trapezoid weights (1/2, 1, ..., 1,
    1/2). As h <= sigma/4, c h^2 <= 1/(32 pi n): the sums do not grow with
    the grid's extent."""
    s_log_s = np.log(joint_sum, out=scratch)
    s_log_s *= joint_sum
    u = np.ones(grid.points_per_axis)
    u[[0, -1]] = 0.5
    return -c * grid.step ** 2 * (float(u @ s_log_s @ u)
                                  + math.log(c) * float(u @ joint_sum @ u))


@dataclass(frozen=True)
class InfoRecord:
    """Experimental information I(n) of the prefix experiment of size n.

    log_n, redundancy, cost and complexity are read from (n, info), so the
    identities R = log n - I, C = log n - 2I and K = exp(I) hold exactly.
    """

    n: int
    info: float

    @property
    def log_n(self) -> float:
        return math.log(self.n)

    @property
    def redundancy(self) -> float:
        return self.log_n - self.info

    @property
    def cost(self) -> float:
        return self.log_n - 2.0 * self.info

    @property
    def complexity(self) -> float:
        return math.exp(self.info)


@dataclass(frozen=True)
class InfoCurve:
    """Information records over a growing schedule of prefix sizes."""

    records: tuple[InfoRecord, ...]

    @property
    def n_opt(self) -> int:
        """The schedule point with the smallest cost, ties resolved toward the
        smallest n: the proper number of samples."""
        return min(self.records, key=lambda rec: rec.cost).n

    @property
    def info_limit(self) -> float:
        """The limit of I, estimated as the mean of the top tenth of the
        schedule, at least its last three records."""
        tail = min(len(self.records), max(3, math.ceil(len(self.records) / 10)))
        return float(np.mean([r.info for r in self.records[-tail:]]))

    @property
    def complexity_limit(self) -> float:
        return math.exp(self.info_limit)


def default_schedule(n_max: int) -> list[int]:
    """Near-geometric ladder 1, 2, 3, 4, 6, ... clipped to and ending at n_max."""
    if n_max < 1:
        raise InvalidSchedule(f"n_max must be >= 1, got {n_max}")
    return [n for n in _BASE_SCHEDULE if n < n_max] + [n_max]


def resolve_schedule(schedule: Optional[Sequence[int]], n_available: int) -> list[int]:
    """The schedule checked against n_available samples; None gives the default."""
    if n_available < 1:
        raise EmptyDataset("a schedule of prefixes needs at least one sample")
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
    """Evaluate I over nested prefixes; R, C, K and N_opt follow (InfoCurve).

    The joint grid of prefix n is c = 1/(2 pi sigma^2 n) times the running
    sum of the samples' unnormalised kernel products on the sigma-scaled
    axis, a sum seeded with DENSITY_FLOOR. The samples between two schedule
    points are added to the sum once (see :func:`accumulate_kernel_products`),
    and at each point the entropy is taken of the sum with the one scalar c.
    Every sample's kernel rows are built exactly once. On the grid's square
    with G = max(grid.points_per_axis, ceil(8L/sigma) + 1) nodes per axis,
    a step <= sigma/4, the curve allocates one workspace of at most three
    G x G float64 arrays' worth (GRID_BYTES_PER_NODE): the running sum, one
    scratch grid for the kernel products and the entropy integrand, and one
    kernel-row buffer holding at most one grid. Nothing of grid size is
    allocated per schedule point, and memory does not grow with the dataset
    or the schedule. Each I(n) is the trapezoid entropy of the joint density
    of the first n samples on the grid, less log(2 pi e sigma^2) = 1 - log c1,
    the entropy of one kernel, with c1 = 1/(2 pi sigma^2) its normalisation.
    """
    kernel_norm = grid.require_resolves(sf)
    try:  # 8L/sigma may overflow to inf, and G's workspace exceed memory
        points = max(grid.points_per_axis, math.ceil(8.0 * grid.half_width / sf.sigma) + 1)
        grid = QuadratureGrid(grid.half_width, points)
    except (OverflowError, InvalidGrid) as exc:
        raise InvalidGrid(f"sigma={sf.sigma}, L={grid.half_width}, step <= sigma/4: {exc}") from None
    sched = resolve_schedule(schedule, len(data))

    scaled_axis = grid.axis / sf.sigma
    g = scaled_axis.size
    workspace = np.empty((2 * g + 2 * _kernel_rows(sched, g)) * g)
    joint_sum, scratch = workspace[:2 * g * g].reshape(2, g, g)
    joint_sum.fill(DENSITY_FLOOR)
    rows = workspace[2 * g * g:].reshape(-1, g)
    records = []
    done = 0
    for n in sched:
        accumulate_kernel_products(joint_sum, data.x[done:n], data.y[done:n],
                                   scaled_axis, sf.sigma, scratch=scratch, rows=rows)
        done = n
        h = _entropy(joint_sum, kernel_norm / n, grid, scratch)
        records.append(InfoRecord(n, h - (1.0 - math.log(kernel_norm))))
    return InfoCurve(tuple(records))


def accumulate_kernel_products(out: np.ndarray, x, y, axis, sigma: float, *,
                               scratch: np.ndarray, rows: np.ndarray) -> None:
    """Add sum_i g(axis - x[i]/sigma) g(axis - y[i]/sigma)^T to out, in place,
    with g(t) = exp(-t^2 / 2) the unnormalised kernel.

    axis is the grid axis both channels share, already divided by sigma; x
    and y are samples, which each block divides by sigma. So out gains
    2 pi sigma^2 times the sum of the samples' normalised kernel products,
    and the normalisation is left to the caller as one scalar. A sample too
    far from the axis to square its scaled distance gives a zero row,
    without a warning.

    out and scratch have shape (axis.size, axis.size); rows has an even
    number of rows of axis.size entries. Samples are taken in blocks of
    len(rows) // 2, so each sample's two kernel rows are built exactly once,
    in place in rows: a block's x kernels in its first half and its y
    kernels in its second. A block's product is written to scratch and
    added to out, so nothing of grid size is allocated here. Adding the
    samples of a dataset in consecutive slices gives the joint grid of every
    prefix on the way.
    """
    block = len(rows) // 2
    with np.errstate(over="ignore"):
        for lo in range(0, len(x), block):
            k = min(block, len(x) - lo)
            kx = np.subtract(axis, x[lo:lo + k, None] / sigma, out=rows[:k])
            ky = np.subtract(axis, y[lo:lo + k, None] / sigma, out=rows[block:block + k])
            np.exp(gaussian_exponent(kx, out=kx), out=kx)
            np.exp(gaussian_exponent(ky, out=ky), out=ky)
            # np.dot, as np.matmul takes a slow loop for a one-sample block.
            np.dot(kx.T, ky, out=scratch)
            out += scratch
