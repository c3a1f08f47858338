"""Seedable generator of the noisy chaotic benchmark data.

Clean pairs are successive iterates of the fully chaotic quadratic map
y = 1 - 2 x^2 on [-1, 1]; each coordinate is then corrupted with independent
zero-mean Gaussian noise. A dataset holds only the noisy pairs; at
sigma_noise = 0 they are the clean pairs themselves. Determinism contract:

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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .density import Dataset
from .errors import InvalidParameter
from .memory import memory_limit
from .scattering import _is_count

TRANSIENT_STEPS = 100

# Float64 values held per sample at the peak of generate: the clean orbit,
# the noisy columns and the Box-Muller uniforms and result (the Dataset takes
# the noisy columns over without a copy and keeps no clean column).
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

    # The map and the noise generator are fixed; the dataset CSV names them.
    map_name: ClassVar[str] = "ulam"
    prng_name: ClassVar[str] = "pcg64"

    def __post_init__(self) -> None:
        if not _is_count(self.seed) or self.seed < 0:
            raise InvalidParameter(f"seed must be an integer >= 0, got {self.seed}")
        if not _is_count(self.n) or self.n < 1:
            raise InvalidParameter(f"n must be an integer >= 1, got {self.n}")
        if not (self.sigma_noise >= 0 and math.isfinite(self.sigma_noise * NOISE_BOUND)):
            raise InvalidParameter(f"sigma_noise must be >= 0 and keep the noise finite, "
                                   f"got {self.sigma_noise}")


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
    whose meta is the given one. The noise-free map iterates are not kept:
    generate(replace(meta, sigma_noise=0.0)) returns them as its x, y.
    """
    needed = 8 * FLOATS_PER_SAMPLE * int(meta.n)
    available = memory_limit()
    if needed > available:
        raise InvalidParameter(f"n={meta.n} samples need {needed} bytes, more than "
                               f"the {available} bytes this process may allocate")
    s_init, s_x, s_y = np.random.SeedSequence(meta.seed).spawn(3)
    x = -0.99 + 1.98 * np.random.Generator(np.random.PCG64(s_init)).random()

    # The start lies in [-0.99, 0.99] and the map keeps [-1, 1]: no domain check.
    for _ in range(TRANSIENT_STEPS):
        x = 1.0 - 2.0 * x * x
    orbit = array("d", [x])
    for _ in range(meta.n):
        x = 1.0 - 2.0 * x * x
        orbit.append(x)
    # Pair i is (orbit[i], orbit[i + 1]); both columns view the one orbit.
    clean = np.frombuffer(orbit)
    clean.flags.writeable = False
    x, y = clean[:-1], clean[1:]
    if meta.sigma_noise > 0:
        x = x + meta.sigma_noise * _box_muller(s_x, meta.n)
        y = y + meta.sigma_noise * _box_muller(s_y, meta.n)
    return Dataset._owning(x, y, meta=meta)
