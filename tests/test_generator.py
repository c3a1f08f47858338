import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expmodel import (Dataset, GenerationMeta, InvalidParameter, generate,
                      read_dataset_csv, write_dataset_csv)
from expmodel import generator
from expmodel.cli import main
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
        GenerationMeta(seed=-1, sigma_noise=0.2)
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=-0.1)
    # Noise of this width overflows float64 in some samples.
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1, sigma_noise=5.448323523428893e307)
    with pytest.raises(InvalidParameter):
        GenerationMeta(seed=1.5, sigma_noise=0.2)  # not a seed
    # A bool passes for 0 or 1, but the dataset CSV would record "seed=True",
    # which read_dataset_csv cannot parse back.
    for seed in (True, False):
        with pytest.raises(InvalidParameter):
            GenerationMeta(seed=seed, sigma_noise=0.2)
    assert GenerationMeta(seed=np.int64(7), sigma_noise=0.2).seed == 7
    # The sample count is generate's argument, checked there: 1.5 is not a
    # count, and True would pass for 1.
    meta = GenerationMeta(seed=1, sigma_noise=0.2)
    for n in (0, 1.5, True):
        with pytest.raises(InvalidParameter):
            generate(meta, n)
    assert len(generate(meta, np.int64(10))) == 10
    # Sizes are taken in Python integers: 2 n uniforms do not wrap in uint8.
    assert len(generate(meta, np.uint8(200))) == 200


def test_generate_budget_does_not_wrap_in_fixed_width(monkeypatch):
    # 72 * 2^60 bytes wraps to a negative int64; counted in Python ints it
    # exceeds any memory and is refused before the first random draw.
    def unreachable(*args, **kwargs):
        raise AssertionError("the byte budget let 2^60 samples through")

    monkeypatch.setattr(np.random, "SeedSequence", unreachable)
    with pytest.raises(InvalidParameter):
        generate(GenerationMeta(seed=1, sigma_noise=0.2), np.int64(2 ** 60))


def noise_free(ds):
    """The noise-free pairs under a generated dataset, regenerated from its meta."""
    return generate(replace(ds.meta, sigma_noise=0.0), len(ds))


def test_noise_free_pairs_satisfy_the_map():
    meta = GenerationMeta(seed=3, sigma_noise=0.2)
    ds = noise_free(generate(meta, 50))
    assert ds.meta == replace(meta, sigma_noise=0.0)
    expected = 1.0 - 2.0 * ds.x * ds.x
    assert np.array_equal(ds.y, expected)
    # consecutive pairs chain: x_{i+1} is the previous output
    assert np.array_equal(ds.x[1:], ds.y[:-1])


def test_clean_columns_iterate_the_map_from_the_recorded_start():
    n = 200
    ds = generate(GenerationMeta(seed=1, sigma_noise=0.2), n)
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


def test_generate_refuses_an_orbit_that_collapsed_onto_minus_one(monkeypatch, tmp_path, capsys):
    # 2^-29 maps to 1 - 2^-57, which rounds to 1.0, and 1.0 to the fixed
    # point -1.0, where the float orbit stays.
    real = generator._orbit
    assert real(2.0 ** -29, 3).tolist() == [2.0 ** -29, 1.0, -1.0, -1.0]
    # The seed's transient as drawn, then an orbit from 2^-29: pair 0 is
    # (2^-29, 1.0) and pair 1 is (1.0, -1.0).
    monkeypatch.setattr(generator, "_orbit", lambda x0, n: np.concatenate(
        [real(x0, TRANSIENT_STEPS - 1), real(2.0 ** -29, n - TRANSIENT_STEPS)]))
    assert noise_free(generate(GenerationMeta(seed=8, sigma_noise=0.2), 1)).y.tolist() == [1.0]
    message = ("the float orbit of seed 8 collapses onto the map's fixed point -1.0: "
               "the seed supports n <= 1")
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}, got 2$"):
        generate(GenerationMeta(seed=8, sigma_noise=0.2), 2)
    assert main(["generate", "--sigma", "0.2", "--seed", "8", "--n", "50",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"InvalidParameter: {message}, got 50\n"
    assert not list(tmp_path.iterdir())


def test_generate_peak_stays_within_its_checked_budget():
    # The up-front memory check counts FLOATS_PER_SAMPLE float64 values per
    # sample; generate must not allocate more than that.
    n = 20_000
    tracemalloc.start()
    try:
        generate(GenerationMeta(seed=1, sigma_noise=0.2), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * FLOATS_PER_SAMPLE * n


def test_clean_trajectory_stays_in_interval():
    clean = noise_free(generate(GenerationMeta(seed=12, sigma_noise=0.2), 500))
    assert np.all(clean.x >= -1.0) and np.all(clean.x <= 1.0)
    assert np.all(clean.y >= -1.0) and np.all(clean.y <= 1.0)


def test_same_seed_gives_identical_csv_bytes(tmp_path):
    meta = GenerationMeta(seed=99, sigma_noise=0.2)
    buf_a, buf_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(generate(meta, 64), buf_a)
    write_dataset_csv(generate(meta, 64), buf_b)
    assert buf_a.read_bytes() == buf_b.read_bytes()


def test_extending_n_preserves_the_prefix():
    short = generate(GenerationMeta(seed=5, sigma_noise=0.2), 50)
    long = generate(GenerationMeta(seed=5, sigma_noise=0.2), 100)
    assert np.array_equal(short.x, long.x[:50])
    assert np.array_equal(short.y, long.y[:50])
    assert np.array_equal(noise_free(short).x, noise_free(long).x[:50])
    assert np.array_equal(noise_free(short).y, noise_free(long).y[:50])
    assert long.prefix(50).meta == short.meta


def test_noise_statistics():
    n = 10_000
    sigma = 0.2
    ds = generate(GenerationMeta(seed=2, sigma_noise=sigma), n)
    clean = noise_free(ds)
    for noise in (ds.x - clean.x, ds.y - clean.y):
        assert noise.std() == pytest.approx(sigma, abs=0.01)
        assert abs(noise.mean()) <= 3.0 * sigma / math.sqrt(n)


def test_noise_channels_are_uncorrelated():
    ds = generate(GenerationMeta(seed=8, sigma_noise=0.2), 10_000)
    clean = noise_free(ds)
    nx = ds.x - clean.x
    ny = ds.y - clean.y
    assert abs(np.corrcoef(nx, ny)[0, 1]) <= 0.05


def test_provenance_round_trips_through_generate_and_the_csv(tmp_path):
    meta = GenerationMeta(seed=1, sigma_noise=0.2)
    ds = generate(meta, 50)
    assert ds.meta == meta
    write_dataset_csv(ds, tmp_path / "samples.csv")
    assert read_dataset_csv(tmp_path / "samples.csv").meta == meta
    # A hand-built dataset's meta reads back equal too: it holds no count
    # that could disagree with the rows.
    write_dataset_csv(Dataset([0.1, 0.2], [0.3, 0.4], meta=meta), tmp_path / "hand.csv")
    assert read_dataset_csv(tmp_path / "hand.csv").meta == meta


def test_truncated_csv_records_the_rows_it_holds(tmp_path):
    # A file cut short reads back as the dataset its rows hold, and its
    # provenance regenerates exactly those rows, also under an older comment
    # whose n= field still names the rows written.
    path = tmp_path / "samples.csv"
    write_dataset_csv(generate(GenerationMeta(seed=1, sigma_noise=0.2), 50), path)
    lines = path.read_text().splitlines()
    lines[0] += " n=50"
    path.write_text("\n".join(lines[:2 + 10]) + "\n")  # comment, header, 10 rows
    back = read_dataset_csv(path)
    assert len(back) == 10 and back.meta == GenerationMeta(seed=1, sigma_noise=0.2)
    again = generate(back.meta, len(back))
    assert again.x.tobytes() == back.x.tobytes()
    assert again.y.tobytes() == back.y.tobytes()
