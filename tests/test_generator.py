import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import (GenerationMeta, InvalidParameter, OutOfDomain, generate,
                      logistic_step, write_dataset_csv)
from expmodel.generator import FLOATS_PER_SAMPLE, TRANSIENT_STEPS


def test_map_values():
    assert logistic_step(0.0) == 1.0
    assert logistic_step(1.0) == -1.0
    assert logistic_step(-1.0) == -1.0
    assert abs(logistic_step(1.0 / math.sqrt(2.0))) <= 1e-12


@given(st.floats(min_value=-1.0, max_value=1.0))
def test_map_stays_in_interval(x):
    assert -1.0 <= logistic_step(x) <= 1.0


@pytest.mark.parametrize("x", [1.0001, -1.2, 5.0])
def test_map_rejects_outside_domain(x):
    with pytest.raises(OutOfDomain):
        logistic_step(x)


def test_meta_validation():
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=-1, sigma_noise=0.2, n=10)
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=0.2, n=0)
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=-0.1, n=10)
    # Noise of this width overflows float64 in some samples.
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=5.448323523428893e307, n=10)
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=0.2, n=10, initial_x=1.5)


def test_noise_free_pairs_satisfy_the_map():
    ds = generate(GenerationMeta(seed=3, sigma_noise=0.0, n=50))
    assert np.array_equal(ds.x, ds.x_clean)
    assert np.array_equal(ds.y, ds.y_clean)
    expected = 1.0 - 2.0 * ds.x * ds.x
    assert np.array_equal(ds.y, expected)
    # consecutive pairs chain: x_{i+1} is the previous output
    assert np.array_equal(ds.x[1:], ds.y[:-1])


def test_clean_columns_iterate_the_map_from_the_recorded_start():
    n = 200
    ds = generate(GenerationMeta(seed=1, sigma_noise=0.2, n=n))
    orbit = [ds.meta.initial_x]
    for _ in range(TRANSIENT_STEPS + n):
        orbit.append(logistic_step(orbit[-1]))
    orbit = np.array(orbit[TRANSIENT_STEPS:])
    assert ds.x_clean.tobytes() == orbit[:-1].tobytes()
    assert ds.y_clean.tobytes() == orbit[1:].tobytes()
    assert not ds.x_clean.flags.writeable and not ds.y_clean.flags.writeable


def test_generate_peak_stays_within_its_checked_budget():
    # The up-front memory check counts FLOATS_PER_SAMPLE float64 values per
    # sample; generate must not allocate more than that.
    n = 20_000
    tracemalloc.start()
    try:
        generate(GenerationMeta(seed=1, sigma_noise=0.2, n=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * FLOATS_PER_SAMPLE * n


def test_clean_trajectory_stays_in_interval():
    ds = generate(GenerationMeta(seed=12, sigma_noise=0.2, n=500))
    assert np.all(ds.x_clean >= -1.0) and np.all(ds.x_clean <= 1.0)
    assert np.all(ds.y_clean >= -1.0) and np.all(ds.y_clean <= 1.0)


def test_same_seed_gives_identical_csv_bytes(tmp_path):
    meta = GenerationMeta(seed=99, sigma_noise=0.2, n=64)
    buf_a, buf_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(generate(meta), buf_a)
    write_dataset_csv(generate(meta), buf_b)
    assert buf_a.read_bytes() == buf_b.read_bytes()


def test_extending_n_preserves_the_prefix():
    short = generate(GenerationMeta(seed=5, sigma_noise=0.2, n=50))
    long = generate(GenerationMeta(seed=5, sigma_noise=0.2, n=100))
    assert np.array_equal(short.x, long.x[:50])
    assert np.array_equal(short.y, long.y[:50])
    assert np.array_equal(short.x_clean, long.x_clean[:50])
    assert np.array_equal(short.y_clean, long.y_clean[:50])


def test_noise_statistics():
    n = 10_000
    sigma = 0.2
    ds = generate(GenerationMeta(seed=2, sigma_noise=sigma, n=n))
    for noise in (ds.x - ds.x_clean, ds.y - ds.y_clean):
        assert noise.std() == pytest.approx(sigma, abs=0.01)
        assert abs(noise.mean()) <= 3.0 * sigma / math.sqrt(n)


def test_noise_channels_are_uncorrelated():
    ds = generate(GenerationMeta(seed=8, sigma_noise=0.2, n=10_000))
    nx = ds.x - ds.x_clean
    ny = ds.y - ds.y_clean
    assert abs(np.corrcoef(nx, ny)[0, 1]) <= 0.05


def test_explicit_initial_condition_controls_the_trajectory():
    a = generate(GenerationMeta(seed=1, sigma_noise=0.0, n=20, initial_x=0.3))
    b = generate(GenerationMeta(seed=999, sigma_noise=0.0, n=20, initial_x=0.3))
    assert np.array_equal(a.x_clean, b.x_clean)
    assert a.meta.initial_x == 0.3


def test_drawn_initial_condition_is_recorded():
    ds = generate(GenerationMeta(seed=1, sigma_noise=0.2, n=5))
    assert ds.meta.initial_x is not None
    assert -0.99 <= ds.meta.initial_x <= 0.99
    again = generate(GenerationMeta(seed=1, sigma_noise=0.2, n=5))
    assert again.meta.initial_x == ds.meta.initial_x
