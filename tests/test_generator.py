import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import (GenerationMeta, InvalidParameter, generate,
                      read_dataset_csv, write_dataset_csv)
from expmodel.generator import FLOATS_PER_SAMPLE, TRANSIENT_STEPS
from oracles import quadratic_map


def test_map_values():
    assert quadratic_map(0.0) == 1.0
    assert quadratic_map(1.0) == -1.0
    assert quadratic_map(-1.0) == -1.0
    assert abs(quadratic_map(1.0 / math.sqrt(2.0))) <= 1e-12


# The map keeps [-1, 1], so generate's loop needs no domain check.
@given(st.floats(min_value=-1.0, max_value=1.0))
def test_map_stays_in_interval(x):
    assert -1.0 <= quadratic_map(x) <= 1.0


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
        GenerationMeta(seed=1, sigma_noise=0.2, n=1.5)  # not a sample count
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1.5, sigma_noise=0.2, n=5)  # not a seed
    # A bool passes for 0 or 1, but the dataset CSV would record "seed=True",
    # which read_dataset_csv cannot parse back.
    for seed, n in ((True, 5), (False, 5), (1, True)):
        with pytest.raises(InvalidParameter):
            GenerationMeta(seed=seed, sigma_noise=0.2, n=n)
    assert GenerationMeta(seed=np.int64(7), sigma_noise=0.2, n=5).seed == 7
    assert GenerationMeta(seed=1, sigma_noise=0.2, n=np.int64(10)).n == 10


def test_generate_budget_does_not_wrap_in_fixed_width(monkeypatch):
    # 72 * 2^60 bytes wraps to a negative int64; counted in Python ints it
    # exceeds any memory and is refused before the first random draw.
    def unreachable(*args, **kwargs):
        raise AssertionError("the byte budget let 2^60 samples through")

    monkeypatch.setattr(np.random, "SeedSequence", unreachable)
    with pytest.raises(InvalidParameter):
        generate(GenerationMeta(seed=1, sigma_noise=0.2, n=np.int64(2 ** 60)))


def noise_free(ds):
    """The noise-free pairs under a generated dataset, regenerated from its meta."""
    return generate(replace(ds.meta, sigma_noise=0.0))


def test_noise_free_pairs_satisfy_the_map():
    meta = GenerationMeta(seed=3, sigma_noise=0.2, n=50)
    ds = noise_free(generate(meta))
    assert ds.meta == replace(meta, sigma_noise=0.0)
    expected = 1.0 - 2.0 * ds.x * ds.x
    assert np.array_equal(ds.y, expected)
    # consecutive pairs chain: x_{i+1} is the previous output
    assert np.array_equal(ds.x[1:], ds.y[:-1])


def test_clean_columns_iterate_the_map_from_the_recorded_start():
    n = 200
    ds = generate(GenerationMeta(seed=1, sigma_noise=0.2, n=n))
    # The start is drawn from the first of the seed's three substreams.
    stream = np.random.SeedSequence(1).spawn(3)[0]
    orbit = [-0.99 + 1.98 * np.random.Generator(np.random.PCG64(stream)).random()]
    for _ in range(TRANSIENT_STEPS + n):
        orbit.append(quadratic_map(orbit[-1]))
    orbit = np.array(orbit[TRANSIENT_STEPS:])
    clean = noise_free(ds)
    assert clean.x.tobytes() == orbit[:-1].tobytes()
    assert clean.y.tobytes() == orbit[1:].tobytes()
    assert not clean.x.flags.writeable and not clean.y.flags.writeable


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
    clean = noise_free(generate(GenerationMeta(seed=12, sigma_noise=0.2, n=500)))
    assert np.all(clean.x >= -1.0) and np.all(clean.x <= 1.0)
    assert np.all(clean.y >= -1.0) and np.all(clean.y <= 1.0)


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
    assert np.array_equal(noise_free(short).x, noise_free(long).x[:50])
    assert np.array_equal(noise_free(short).y, noise_free(long).y[:50])
    assert long.prefix(50).meta == short.meta


def test_noise_statistics():
    n = 10_000
    sigma = 0.2
    ds = generate(GenerationMeta(seed=2, sigma_noise=sigma, n=n))
    clean = noise_free(ds)
    for noise in (ds.x - clean.x, ds.y - clean.y):
        assert noise.std() == pytest.approx(sigma, abs=0.01)
        assert abs(noise.mean()) <= 3.0 * sigma / math.sqrt(n)


def test_noise_channels_are_uncorrelated():
    ds = generate(GenerationMeta(seed=8, sigma_noise=0.2, n=10_000))
    clean = noise_free(ds)
    nx = ds.x - clean.x
    ny = ds.y - clean.y
    assert abs(np.corrcoef(nx, ny)[0, 1]) <= 0.05


def test_provenance_round_trips_through_generate_and_the_csv(tmp_path):
    meta = GenerationMeta(seed=1, sigma_noise=0.2, n=50)
    ds = generate(meta)
    assert ds.meta == meta
    write_dataset_csv(ds, tmp_path / "samples.csv")
    assert read_dataset_csv(tmp_path / "samples.csv").meta == meta


def test_truncated_csv_records_the_rows_it_holds(tmp_path):
    # A file cut short reads back as the dataset its rows hold, and its
    # provenance regenerates exactly those rows, also under an older comment
    # whose n= field still names the rows written.
    path = tmp_path / "samples.csv"
    write_dataset_csv(generate(GenerationMeta(seed=1, sigma_noise=0.2, n=50)), path)
    lines = path.read_text().splitlines()
    lines[0] += " n=50"
    path.write_text("\n".join(lines[:2 + 10]) + "\n")  # comment, header, 10 rows
    back = read_dataset_csv(path)
    assert len(back) == 10 and back.meta.n == 10
    again = generate(back.meta)
    assert again.x.tobytes() == back.x.tobytes()
    assert again.y.tobytes() == back.y.tobytes()
