import pytest

from expmodel import DensityModel, GenerationMeta, ScatteringFunction, generate

SIGMA = 0.2
HALF_WIDTH = 2.0


@pytest.fixture(scope="session")
def sf02():
    return ScatteringFunction(SIGMA)


@pytest.fixture(scope="session")
def logistic200():
    """Benchmark dataset: 200 noisy chaotic pairs, seed 1, sigma 0.2."""
    return generate(GenerationMeta(seed=1, sigma_noise=SIGMA), 200)


@pytest.fixture(scope="session")
def logistic600():
    """Longer benchmark dataset spanning several kernel-product blocks."""
    return generate(GenerationMeta(seed=1, sigma_noise=SIGMA), 600)


@pytest.fixture(scope="session")
def model200(logistic200, sf02):
    return DensityModel(logistic200, sf02)
