"""Brute-force reference computations used as independent test oracles.

Deliberately written from the defining formulas (plain sums, np.trapezoid),
not from the library's log-domain / separable-matmul code paths.
"""

import math
import re
from fractions import Fraction

import numpy as np

SQRT2PI = math.sqrt(2.0 * math.pi)
# log(2 pi e): a kernel of width sigma has entropy LOG_2PIE + 2 log sigma.
LOG_2PIE = math.log(2 * math.pi * math.e)


def gauss(x, u, s):
    return np.exp(-((np.asarray(x, float) - u) ** 2) / (2.0 * s * s)) / (SQRT2PI * s)


def kde_joint_grid(x_data, y_data, sigma, axis_x, axis_y=None):
    """Joint KDE values on a tensor grid by direct summation over samples."""
    if axis_y is None:
        axis_y = axis_x
    out = np.zeros((len(axis_x), len(axis_y)))
    for xi, yi in zip(x_data, y_data):
        out += np.outer(gauss(axis_x, xi, sigma), gauss(axis_y, yi, sigma))
    return out / len(x_data)


def trap2(values, axis_x, axis_y=None):
    """2-D trapezoid integral of tabulated values."""
    if axis_y is None:
        axis_y = axis_x
    return float(np.trapezoid(np.trapezoid(values, axis_y, axis=1), axis_x))


def trap1(values, axis):
    return float(np.trapezoid(values, axis))


def entropy_grid(values, axis_x, axis_y=None):
    """-integral f log f over the tabulated grid, with 0 log 0 = 0."""
    f = np.asarray(values, float)
    integrand = np.where(f > 0, -f * np.log(np.where(f > 0, f, 1.0)), 0.0)
    return trap2(integrand, axis_x, axis_y)


def extended_axis(half_width, sigma, step_divisor=8):
    """Axis covering [-(L + 8 sigma), L + 8 sigma] at step sigma/step_divisor."""
    ext = half_width + 8.0 * sigma
    n = int(round(2.0 * ext / (sigma / step_divisor))) + 1
    return np.linspace(-ext, ext, n)


def quadratic_map(x):
    """One iterate of the generator's chaotic map y = 1 - 2 x^2."""
    return 1.0 - 2.0 * x * x


def far_query_weights(x_data, q):
    """C_i(q) in the limit far from every sample, where a kernel outweighs any
    farther one without bound: the samples nearest to q share the weight
    evenly, ties on both sides included. Distances are exact rationals, so
    no rounding makes or breaks a tie."""
    d = [abs(Fraction(q) - Fraction(xi)) for xi in x_data]
    nearest = min(d)
    near = np.array([di == nearest for di in d], float)
    return near / near.sum()


def dataset_rows(text):
    """The x and y columns of a dataset file's text by the README's contract,
    or the number of the row a reader must reject. Lines end at LF, CRLF or
    CR; an optional '#' comment line precedes the header; empty lines are
    skipped and the others count as rows from 1 after the header. A row needs
    as many fields as the header and one float() per x and y cell; a
    non-finite value rejects the first row holding one in x, else in y."""
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[0].startswith("#"):
        lines = lines[1:]
    width = len(lines[0].split(","))
    x, y = [], []
    for k, line in enumerate((line for line in lines[1:] if line), start=1):
        fields = line.split(",")
        if len(fields) < width:
            return k
        try:
            x.append(float(fields[1]))
            y.append(float(fields[2]))
        except ValueError:
            return k
    for column in (x, y):
        bad = [k for k, v in enumerate(column, start=1) if not math.isfinite(v)]
        if bad:
            return bad[0]
    return x, y
