"""Seedable generator of the noisy chaotic benchmark data.

Clean pairs are successive iterates of the fully chaotic quadratic map
y = 1 - 2 x^2 on [-1, 1]; each coordinate is then corrupted with independent
zero-mean Gaussian noise. Determinism contract:

* one 64-bit seed spawns three independent substreams (initial condition,
  x noise, y noise), so the same seed always yields bit-identical data and
  extending n never changes the earlier samples;
* Gaussian noise comes from the Box-Muller transform applied to consecutive
  uniform pairs of a named generator (PCG64 by default), which keeps the
  stream reproducible from the recorded seed alone;
* 100 transient iterations are discarded before the first recorded pair,
  and a randomly drawn initial condition avoids the interval endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from .density import Dataset
from .errors import InvalidParameter, OutOfDomain
from .memory import memory_limit

TRANSIENT_STEPS = 100

# Float64 values held per sample at the peak of generate: the clean and noisy
# columns and the Box-Muller temporaries (the Dataset takes the columns over
# without a copy).
FLOATS_PER_SAMPLE = 9


@dataclass(frozen=True)
class GenerationMeta:
    """Provenance of a generated dataset; sufficient to regenerate it."""

    seed: int
    sigma_noise: float
    n: int
    initial_x: Optional[float] = None

    # The map and the noise generator are fixed; the dataset CSV names them.
    map_name: ClassVar[str] = "ulam"
    prng_name: ClassVar[str] = "pcg64"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameter(f"n must be >= 1, got {self.n}")
        if not math.isfinite(self.sigma_noise) or self.sigma_noise < 0:
            raise InvalidParameter(f"sigma_noise must be >= 0, got {self.sigma_noise}")
        if self.initial_x is not None and not -1.0 <= self.initial_x <= 1.0:
            raise InvalidParameter(f"initial_x must lie in [-1, 1], got {self.initial_x}")


def logistic_step(x: float) -> float:
    """One iterate of the chaotic map 1 - 2 x^2 on [-1, 1]."""
    if not -1.0 <= x <= 1.0:
        raise OutOfDomain(f"x={x} outside [-1, 1]")
    return 1.0 - 2.0 * x * x


def _box_muller(stream: np.random.SeedSequence, n: int) -> np.ndarray:
    """n standard normals from consecutive uniform pairs (cosine branch).

    Sample i consumes uniforms 2i and 2i+1, so a longer run extends a shorter
    one without disturbing its prefix.
    """
    rng = np.random.Generator(np.random.PCG64(stream))
    u = rng.random(2 * n)
    u1 = 1.0 - u[0::2]  # shift (0, 1] to keep the log finite
    u2 = u[1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def generate(meta: GenerationMeta) -> Dataset:
    """Produce the noisy benchmark dataset described by meta.

    Returns a dataset whose x, y columns carry the noisy measurements and
    whose clean columns hold the underlying map iterates. The attached meta
    records the initial condition actually used.
    """
    needed = 8 * FLOATS_PER_SAMPLE * meta.n
    available = memory_limit()
    if needed > available:
        raise InvalidParameter(f"n={meta.n} samples need {needed} bytes, more than "
                               f"the {available} bytes this process may allocate")
    s_init, s_x, s_y = np.random.SeedSequence(meta.seed).spawn(3)

    if meta.initial_x is not None:
        x = float(meta.initial_x)
    else:
        rng = np.random.Generator(np.random.PCG64(s_init))
        x = -0.99 + 1.98 * rng.random()
    initial_x = x

    for _ in range(TRANSIENT_STEPS):
        x = logistic_step(x)

    x_clean = np.empty(meta.n)
    y_clean = np.empty(meta.n)
    for i in range(meta.n):
        x_clean[i] = x
        y_clean[i] = logistic_step(x)
        x = y_clean[i]

    if meta.sigma_noise > 0:
        x_noisy = x_clean + meta.sigma_noise * _box_muller(s_x, meta.n)
        y_noisy = y_clean + meta.sigma_noise * _box_muller(s_y, meta.n)
    else:
        x_noisy, y_noisy = x_clean, y_clean

    resolved = replace(meta, initial_x=initial_x)
    return Dataset._owning(x_noisy, y_noisy, x_clean, y_clean, meta=resolved)
