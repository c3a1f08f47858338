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
grid over the square [-L, L]^2, whose nodes per axis the kernel sets
(grid_points). Kernel mass that leaks outside it is not renormalized;
the leak is a property of the instrument, not of the estimator. The joint
density is tabulated as a running sum S of unnormalised kernel products
seeded with DENSITY_FLOOR. Its normalisation c = 1/(2 pi sigma^2 n) enters
the integrand of f log f only as log c added to log S, and multiplies the
quadrature sum as one scalar together with the squared grid step, so the
sums stay of the order of the grid size at any extent or sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .density import Dataset
from .errors import EmptyDataset, InvalidGrid, InvalidParameter, InvalidSchedule
from .memory import memory_limit
from .scattering import (ScatteringFunction, kernel_exponents, _difference_operands,
                         _is_count, _require_finite)

# The running kernel sum of an information curve starts at this value, so
# its log is finite at every node and a node no kernel reaches contributes
# about c * 1e-300 * log(c * 1e-300) to the integral of f log f, with c the
# normalisation. A sum above about 1e-284 absorbs it exactly.
DENSITY_FLOOR = 1e-300

# Near-geometric ladder used when no explicit schedule is given.
_BASE_SCHEDULE = (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64, 90, 128, 180)

# Least nodes per axis of an information curve's grid (grid_points).
GRID_POINTS = 257

# info_curve allocates one workspace of float64 per curve, laid out as
# _workspace_floats counts it: the running sum (G x G), the y kernel rows of
# one block (block x G), the block's x kernel rows of one band of ceil(G/4)
# grid rows (block x ceil(G/4)), and a panel of ceil(G/4) grid rows through
# which each band's product and then the entropy integrand pass. With a
# block of at most G/2 samples (_kernel_rows) that is at most 1.875 grids
# and 1.125 grid rows. As the kernel rows are built without numpy's
# ufunc buffers, a curve's traced peak is within a few axis-sized vectors
# (under 32 KB) of its workspace.


def _workspace_floats(g: int, block: int) -> int:
    """Float64 values of info_curve's workspace on a grid of g nodes per axis
    with kernel-product blocks of `block` samples."""
    height = _panel_rows(g)
    return g * g + block * (g + height) + height * g


def workspace_bytes(g: int) -> int:
    """The most an information curve on a grid of G = g nodes per axis
    allocates: its workspace at the largest block, G // 2 samples, in
    Python integers."""
    g = int(g)
    return 8 * _workspace_floats(g, g // 2)


def _kernel_norm(sf: ScatteringFunction) -> float:
    """1/(2 pi sigma^2), or 0 where sigma ** 2 overflows (above about
    1.3e154) or underflows to 0 (below about 1e-162)."""
    try:
        return 1.0 / (2.0 * math.pi * sf.sigma ** 2)
    except (OverflowError, ZeroDivisionError):
        return 0.0


def grid_points(half_width: float, sf: ScatteringFunction) -> int:
    """Nodes per axis G of the grid on which info_curve integrates the
    entropy of kernel sf over the square [-L, L]^2, L = half_width:
    G = max(GRID_POINTS, ceil(8L/sigma) + 1), a step 2L/(G - 1) <= sigma/4.

    L must be positive and finite (InvalidParameter). The kernel must be
    narrower than L with a normalisation 1/(2 pi sigma^2) that is positive
    and finite, 8L/sigma must not overflow, and the curve's workspace on G
    (:func:`workspace_bytes`) must fit in physical memory and in what the
    soft RLIMIT_AS leaves of the address space (InvalidGrid, naming sigma,
    L and G).
    """
    _require_finite("L", half_width)
    if half_width <= 0:
        raise InvalidParameter(f"L must be > 0, got {half_width}")
    try:  # 8L/sigma may overflow to inf
        g = max(GRID_POINTS, math.ceil(8.0 * half_width / sf.sigma) + 1)
    except OverflowError:
        raise InvalidGrid(f"sigma={sf.sigma}, L={half_width}: "
                          f"G = ceil(8L/sigma) + 1 overflows") from None
    where = f"sigma={sf.sigma}, L={half_width}, G={g}"
    if sf.sigma >= half_width:
        raise InvalidGrid(f"{where}: sigma must be smaller than L")
    if not 0.0 < _kernel_norm(sf) < math.inf:
        raise InvalidGrid(f"{where}: 1/(2 pi sigma^2) is not positive and finite")
    needed, available = workspace_bytes(g), memory_limit()
    if needed > available:
        raise InvalidGrid(f"{where}, step <= sigma/4: a {g}^2 grid needs {needed} bytes, "
                          f"more than the {available} bytes this process may allocate")
    return g


def _kernel_rows(sched: Sequence[int], g: int) -> int:
    """Samples per kernel-product block of a curve: at most half the grid
    points g, which bounds the workspace (see above), and at most the
    largest schedule segment."""
    segment = max(b - a for a, b in zip([0, *sched], sched))
    return min(g // 2, segment)


def _panel_rows(g: int) -> int:
    """Grid rows of the panel through which a curve adds kernel products and
    takes the entropy integrand: a quarter of the grid, rounded up. It
    follows G alone, so every curve on a grid sums in the same bands
    whatever its schedule."""
    return -(-g // 4)


def _entropy(joint_sum: np.ndarray, c: float, step: float,
             weights: np.ndarray, panel: np.ndarray) -> float:
    """The trapezoid estimate of -integral f log f over the grid of the joint
    density f = c * joint_sum tabulated on it. joint_sum S is positive (it is
    seeded with DENSITY_FLOOR), and f log f = c S (log S + log c) is
    integrated as c h^2 u (S (log S + log c)) u, with h the step and
    u = weights, the unit trapezoid weights (1/2, 1, ..., 1, 1/2). The
    integrand is built a band of len(panel) grid rows at a time in panel;
    log c is added to log S rather than c taken into S, where c * 1e-300
    would underflow at a large sigma^2 n. As h <= sigma/4,
    c h^2 <= 1/(32 pi n): the sums do not grow with the grid's extent."""
    total = 0.0
    for lo in range(0, len(joint_sum), len(panel)):
        band = joint_sum[lo:lo + len(panel)]
        term = np.log(band, out=panel[:len(band)])
        term += math.log(c)
        term *= band
        total += float(weights[lo:lo + len(band)] @ term @ weights)
    return -c * step ** 2 * total


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
    if not _is_count(n_max) or n_max < 1:
        raise InvalidSchedule(f"n_max must be an integer >= 1, got {n_max}")
    return [n for n in _BASE_SCHEDULE if n < n_max] + [n_max]


def resolve_schedule(schedule: Optional[Sequence[int]], n_available: int) -> list[int]:
    """The schedule checked against n_available samples; None gives the
    default. Every entry must be an int or a numpy integer, not a bool: a
    prefix size is a count, so 2.5 is rejected, not truncated, and True is
    not taken for 1."""
    if n_available < 1:
        raise EmptyDataset("a schedule of prefixes needs at least one sample")
    if schedule is None:
        return default_schedule(n_available)
    sched = list(schedule)
    if not all(_is_count(n) for n in sched):
        raise InvalidSchedule(f"schedule entries must be integers, got {sched}")
    sched = [int(n) for n in sched]
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
               schedule: Optional[Sequence[int]] = None, *,
               half_width: float) -> InfoCurve:
    """Evaluate I over nested prefixes; R, C, K and N_opt follow (InfoCurve).

    The curve integrates on the square [-L, L]^2, L = half_width, on the
    G = grid_points(half_width, sf) nodes per axis of :func:`grid_points`,
    which also checks L and the kernel. The joint grid of prefix n is
    c = 1/(2 pi sigma^2 n) times the running sum S of the samples'
    unnormalised kernel products on the sigma-scaled axis, a sum seeded with
    DENSITY_FLOOR. The samples between two schedule points are added to S
    once (see :func:`accumulate_kernel_products`), and at each point the
    entropy is taken of S with the one scalar c. Every sample's kernel rows
    are built exactly once. The curve allocates one workspace of at most
    1.875 G x G float64 arrays and 1.125 rows (:func:`workspace_bytes`),
    laid out as the note above _workspace_floats states. Nothing of grid
    size is allocated per schedule point, and memory does not grow with the
    dataset or the schedule. Each I(n) is the trapezoid entropy of
    the joint density of the first n samples on the grid, less
    log(2 pi e sigma^2) = 1 - log c1, the entropy of one kernel, with
    c1 = 1/(2 pi sigma^2) its normalisation.
    """
    g = grid_points(half_width, sf)
    kernel_norm = _kernel_norm(sf)
    sched = resolve_schedule(schedule, len(data))

    step = 2.0 * half_width / (g - 1)
    axis_operand, _ = _difference_operands(np.linspace(-half_width, half_width, g) / sf.sigma)
    workspace = np.empty(_workspace_floats(g, _kernel_rows(sched, g)))
    joint_sum, rows, panel = np.split(workspace, [g * g, -_panel_rows(g) * g])
    joint_sum, panel = joint_sum.reshape(g, g), panel.reshape(-1, g)
    joint_sum.fill(DENSITY_FLOOR)
    weights = np.ones(g)
    weights[[0, -1]] = 0.5
    records = []
    done = 0
    for n in sched:
        accumulate_kernel_products(joint_sum, data.x[done:n], data.y[done:n],
                                   axis_operand, sf.sigma, rows=rows, panel=panel)
        done = n
        h = _entropy(joint_sum, kernel_norm / n, step, weights, panel)
        records.append(InfoRecord(n, h - (1.0 - math.log(kernel_norm))))
    return InfoCurve(tuple(records))


def accumulate_kernel_products(out: np.ndarray, x, y, axis_operand, sigma: float, *,
                               rows: np.ndarray, panel: np.ndarray) -> None:
    """Add sum_i g(t - x[i]/sigma) g(t - y[i]/sigma)^T to out, in place,
    with g(u) = exp(-u^2 / 2) the unnormalised kernel and t the grid axis.

    axis_operand is the rank-2 operand [t, -1] (G x 2) of
    :func:`_difference_operands` of the axis t both channels share, already
    divided by sigma, which a curve builds once; x and y are samples, which
    each block divides by sigma. So out gains 2 pi sigma^2 times the sum of
    the samples' normalised kernel products, and the normalisation is left
    to the caller as one scalar. A sample too far from the axis to square
    its scaled distance gives a zero row, without a warning.

    out has shape (G, G) with G = len(axis_operand), and panel G columns
    and at most G rows; rows is a flat buffer of at least G + len(panel)
    floats, laid out as the y and x kernel rows of info_curve's workspace
    (the note above _workspace_floats). Samples are taken in blocks of
    len(rows) // (G + len(panel)), and every kernel row is built by
    :func:`kernel_exponents`, in place in rows, exactly once. A block's y
    rows are built against the axis operand [1; t], made once per call.
    Then, a band of len(panel) grid rows at a time, the band's x rows are
    built grid-major from its rows of axis_operand and the block's operand
    [1; x/sigma], and their product with the y rows is formed in panel and
    added to the same band of out. So nothing larger than a few axis-sized
    vectors is allocated here. Adding the samples of a dataset in
    consecutive slices gives the joint grid of every prefix on the way.
    """
    g, height = len(axis_operand), len(panel)
    block = len(rows) // (g + height)
    y_rows, x_rows = rows[:block * g], rows[block * g:]
    _, axis = _difference_operands(b=axis_operand[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), block):
            k = min(block, len(x) - lo)
            ky = y_rows[:k * g].reshape(k, g)
            np.exp(kernel_exponents(y[lo:lo + k] / sigma, axis, ky), out=ky)
            _, xs = _difference_operands(b=x[lo:lo + k] / sigma)
            kx = x_rows[:height * k].reshape(height, k)
            for r in range(0, g, height):
                e = kernel_exponents(axis_operand[r:r + height], xs, kx)
                # np.dot, as np.matmul takes a slow loop for a one-sample block.
                out[r:r + height] += np.dot(np.exp(e, out=e), ky, out=panel[:len(e)])
