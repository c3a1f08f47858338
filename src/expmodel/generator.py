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
from array import array
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

import numpy as np

from .density import Dataset
from .errors import InvalidParameter, OutOfDomain
from .memory import memory_limit

TRANSIENT_STEPS = 100

# Float64 values held per sample at the peak of generate: the clean orbit,
# the noisy columns and the Box-Muller uniforms and result (the Dataset takes
# the columns over without a copy).
FLOATS_PER_SAMPLE = 6

# The largest |normal| of _box_muller: its uniforms are multiples of 2^-53,
# so 1 - u is at least 2^-53. Noise up to sigma_noise times this must stay
# finite.
NOISE_BOUND = math.sqrt(-2.0 * math.log(2.0 ** -53))


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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidParameter(f"seed must be an integer >= 0, got {self.seed}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InvalidParameter(f"n must be an integer >= 1, got {self.n}")
        if not (self.sigma_noise >= 0 and math.isfinite(self.sigma_noise * NOISE_BOUND)):
            raise InvalidParameter(f"sigma_noise must be >= 0 and keep the noise finite, "
                                   f"got {self.sigma_noise}")
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
    # sqrt(-2 log(1 - u1)) * cos(2 pi u2), each factor built in place in its
    # half of the uniforms, so only the product is a new array.
    radius, angle = u[0::2], u[1::2]
    np.subtract(1.0, radius, out=radius)  # shift (0, 1] to keep the log finite
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(2.0 * np.pi, angle, out=angle)
    np.cos(angle, out=angle)
    return radius * angle


def generate(meta: GenerationMeta) -> Dataset:
    """Produce the noisy benchmark dataset described by meta.

    Returns a dataset whose x, y columns carry the noisy measurements and
    whose clean columns hold the underlying map iterates. The attached meta
    records the initial condition actually used.
    """
    needed = 8 * FLOATS_PER_SAMPLE * int(meta.n)
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

    # The first step checks the initial condition; the map keeps [-1, 1]
    # exactly, so the later steps need no check and run in plain floats,
    # with the same arithmetic as logistic_step.
    x = logistic_step(x)
    for _ in range(TRANSIENT_STEPS - 1):
        x = 1.0 - 2.0 * x * x
    orbit = array("d", [x])
    for _ in range(meta.n):
        x = 1.0 - 2.0 * x * x
        orbit.append(x)
    # Pair i is (orbit[i], orbit[i + 1]); both columns view the one orbit.
    clean = np.frombuffer(orbit)
    clean.flags.writeable = False
    x_clean, y_clean = clean[:-1], clean[1:]

    if meta.sigma_noise > 0:
        x_noisy = x_clean + meta.sigma_noise * _box_muller(s_x, meta.n)
        y_noisy = y_clean + meta.sigma_noise * _box_muller(s_y, meta.n)
    else:
        x_noisy, y_noisy = x_clean, y_clean

    resolved = replace(meta, initial_x=initial_x)
    return Dataset._owning(x_noisy, y_noisy, x_clean, y_clean, meta=resolved)
