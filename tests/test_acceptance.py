"""Acceptance criteria for the benchmark reproduction, one test per criterion.

Each test prints "ACCEPTANCE ... PASS|FAIL" lines (visible with pytest -s or
in failure reports) and then asserts the criterion at its stated tolerance.
Criteria 1-4 assert on the records of ``expmodel.criteria``, the same ones
``expmodel reproduce`` writes to report.txt; that module states them, and
the README gives the values this configuration produces.
"""

import math
import time

import numpy as np
import pytest

from expmodel import (CaPredictor, Dataset, GenerationMeta,
                      ScatteringFunction, criteria, default_schedule,
                      generate, info_curve, information, predictor_quality,
                      quality_sweep)
from expmodel.cli import N_SAMPLES, SIGMA_SWEEP, SPAN_L, TEST_SEED_OFFSET, main as cli_main
import studies
from oracles import LOG_2PIE, extended_axis, gauss, trap1

SEEDS = (1, 2, 3)
TEST_SEED = SEEDS[0] + TEST_SEED_OFFSET


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def report_records(records) -> str:
    """Print a criterion's records as ACCEPTANCE lines; return its verdict."""
    for rec in records:
        print(f"ACCEPTANCE {rec}")
    return records[0].verdict


@pytest.fixture(scope="module")
def curves():
    """Info curves by sigma and seed, plus per-seed wall time at 0.2."""
    out = {sigma: {} for sigma in SIGMA_SWEEP}
    times = {}
    for sigma in SIGMA_SWEEP:
        sf = ScatteringFunction(sigma)
        for seed in SEEDS:
            data = generate(GenerationMeta(seed=seed, sigma_noise=sigma), N_SAMPLES)
            start = time.perf_counter()
            out[sigma][seed] = info_curve(data, sf, half_width=SPAN_L)
            if sigma == 0.2:
                times[seed] = time.perf_counter() - start
    return out, times


@pytest.fixture(scope="module")
def sweeps():
    """Quality sweeps at sigma 0.2 for the three basic seeds, one test set."""
    sf = ScatteringFunction(0.2)
    test = generate(GenerationMeta(seed=TEST_SEED, sigma_noise=0.2), N_SAMPLES)
    out = {}
    for seed in SEEDS:
        basic = generate(GenerationMeta(seed=seed, sigma_noise=0.2), N_SAMPLES)
        out[seed] = quality_sweep(basic, test, sf)
    return out


def test_criterion_1_information_plateau(curves):
    # I = H_z - H_u <= -H_u since H_z <= 0, and I <= log N. -H_u is the closed
    # form here, so the bounds the records carry are checked independently.
    by_sigma, times = curves
    neg_h_u = -(2.0 * math.log(0.2 / SPAN_L) + math.log(math.pi / 2.0) + 1.0)
    half = max(n for n in default_schedule(N_SAMPLES) if n <= N_SAMPLES // 2)
    records = criteria.plateau(by_sigma[0.2], ScatteringFunction(0.2), SPAN_L)
    for rec in records[1:]:
        assert rec.values["bound"] == pytest.approx(min(math.log(N_SAMPLES), neg_h_u), rel=1e-12)
        assert rec.values["k_cap"] == pytest.approx(min(N_SAMPLES, math.exp(neg_h_u)), rel=1e-12)
        assert rec.values["half"] == half
    assert all(t <= 60.0 for t in times.values()), f"per-seed runtime {times}"
    assert report_records(records) == "PASS"


def test_criterion_2_optimal_sample_count(curves):
    by_sigma, _ = curves
    assert report_records(criteria.sample_count(by_sigma[0.2])) == "PASS"


def test_criterion_3_sigma_monotonicity(curves):
    by_sigma, _ = curves
    assert report_records(criteria.monotonicity(by_sigma)) == "PASS"


def test_criterion_4_predictor_quality(sweeps):
    assert report_records(criteria.quality(sweeps)) == "PASS"


def test_criteria_1_to_3_pass_in_19_of_20_seed_triples():
    # The bound is pre-registered from the 20, 20 and 19 passes measured over
    # the triples of seeds 1-60; criterion 4's rate (0 of 20) is in the
    # README and not asserted.
    passes = studies.criterion_passes()
    print(f"ACCEPTANCE passes over {len(studies.TRIPLES)} seed triples: {dict(passes)}")
    assert sorted(passes) == [1, 2, 3, 4]
    assert all(passes[c] >= 19 for c in (1, 2, 3)), passes


def test_criterion_5a_information_bounds(curves):
    by_sigma, _ = curves
    ok = True
    worst = 0.0
    for s in SEEDS:
        recs = by_sigma[0.2][s].records
        ok = ok and abs(recs[0].info) <= 1e-2
        for r in recs:
            ok = ok and r.info <= r.log_n + 5e-2
            worst = max(worst, r.info - r.log_n)
    detail = f"I(1) ~ 0 and I <= log N (max excess {worst:.2e})"
    assert report("5a exact-cases information-bounds", ok, detail), detail


def test_criterion_5b_isolated_kernels():
    sf = ScatteringFunction(0.05)  # G = 321, step = sigma/4
    data = Dataset([1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0])
    info = info_curve(data, sf, [len(data)], half_width=SPAN_L).records[0].info
    ok = abs(info - math.log(4.0)) <= 0.02
    detail = f"I(4 isolated kernels) = {info:.5f} vs log 4 = {math.log(4.0):.5f}"
    assert report("5b exact-cases isolated-kernels", ok, detail), detail


def test_criterion_5c_kernel_entropy():
    sf = ScatteringFunction(0.2)
    # The kernel's quadrature entropy, from the record of one sample at (0, 0).
    info = info_curve(Dataset([0.0], [0.0]), sf, [1], half_width=SPAN_L).records[0].info
    h = info + LOG_2PIE + 2.0 * math.log(sf.sigma)
    ok_h = abs(h - (-0.38083)) <= 1e-3
    h_u = h - 2.0 * math.log(2.0 * SPAN_L)
    gap = abs(h_u - criteria.calibration_entropy(sf, SPAN_L))
    ok_match = gap <= 1e-3
    detail = f"quadrature entropy {h:.5f} (pinned -0.38083), H_u gap {gap:.2e}"
    assert report("5c exact-cases kernel-entropy", ok_h and ok_match, detail), detail


def test_criterion_5d_weights_and_bounds():
    sf = ScatteringFunction(0.2)
    basic = generate(GenerationMeta(seed=SEEDS[0], sigma_noise=0.2), 50)
    p = CaPredictor(basic, sf)
    rng = np.random.default_rng(101)
    xs = np.concatenate([rng.uniform(-10 * SPAN_L, 10 * SPAN_L, 998),
                         [-10 * SPAN_L, 10 * SPAN_L]])
    ok = True
    for x in xs:
        w = p.weights(x)
        ok = ok and abs(w.sum() - 1.0) <= 1e-12 and w.min() >= 0.0 and w.max() <= 1.0
    preds = p.predict_many(xs)
    lo, hi = basic.y.min(), basic.y.max()
    eps = 1e-12 * (abs(lo) + abs(hi) + 1)
    ok = ok and preds.min() >= lo - eps and preds.max() <= hi + eps
    detail = "similarity weights sum to 1 +- 1e-12 out to |x| = 10 L; predictions in hull"
    assert report("5d exact-cases weights", ok, detail), detail


def test_criterion_5e_quality_exact_cases():
    y = np.array([0.2, -0.4, 0.9, 0.1])
    ok = predictor_quality(y, y).q == 1.0
    ok = ok and predictor_quality(y, np.full(4, y.mean())).q == 0.0
    ok = ok and predictor_quality([0.0, 1.0], [10.0, 11.0]).q == -199.0
    detail = "exact -> 1, mean-constant -> 0, documented offset case -> -199"
    assert report("5e exact-cases quality", ok, detail), detail


def test_criterion_5f_model_quadrature_identities():
    sigma = 0.2
    sf = ScatteringFunction(sigma)
    basic = generate(GenerationMeta(seed=SEEDS[0], sigma_noise=sigma), 50)
    axis = extended_axis(SPAN_L, sigma)
    y_p = CaPredictor(basic, sf).predict_many(axis)
    fx = np.zeros_like(axis)
    fy = np.zeros_like(axis)
    inner = np.zeros_like(axis)
    for xi, yi in zip(basic.x, basic.y):
        fx += gauss(axis, xi, sigma)
        fy += gauss(axis, yi, sigma)
        inner += gauss(axis, xi, sigma) * trap1(axis * gauss(axis, yi, sigma), axis)
    fx /= len(basic)
    fy /= len(basic)
    inner /= len(basic)
    m_y = trap1(axis * fy, axis)
    m_yp = trap1(y_p * fx, axis)
    var_y = trap1(axis ** 2 * fy, axis) - m_y ** 2
    var_yp = trap1(y_p ** 2 * fx, axis) - m_yp ** 2
    cov = trap1(y_p * inner, axis) - m_y * m_yp
    ok = abs(m_yp - m_y) <= 1e-3 and abs(cov - var_yp) <= 1e-3 * var_y
    detail = f"|m(y_p)-m(y)|={abs(m_yp - m_y):.2e}, |Cov-Var(y_p)|={abs(cov - var_yp):.2e}"
    assert report("5f exact-cases conditional-average-identities", ok, detail), detail


def test_criterion_5g_grid_convergence(monkeypatch):
    # The curve's 257-node grid against a floor of twice as many nodes.
    sf = ScatteringFunction(0.2)
    data = generate(GenerationMeta(seed=SEEDS[0], sigma_noise=0.2), N_SAMPLES)
    infos = []
    for floor in (information.GRID_POINTS, 2 * information.GRID_POINTS):
        monkeypatch.setattr(information, "GRID_POINTS", floor)
        infos.append(info_curve(data, sf, [N_SAMPLES], half_width=SPAN_L).records[0].info)
    coarse, fine = infos
    ok = abs(coarse - fine) <= 1e-3
    detail = f"I(200) change on grid doubling = {abs(coarse - fine):.2e}"
    assert report("5g exact-cases grid-convergence", ok, detail), detail


def test_criterion_6_reproduce_determinism(tmp_path, reproduced):
    # A fresh run against the session's reproduce --seed 1.
    assert cli_main(["reproduce", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    names = ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "report.txt"]
    same = all((reproduced / n).read_bytes() == (tmp_path / n).read_bytes() for n in names)
    detail = "two identical reproduce runs emit byte-identical artifacts"
    assert report("6 determinism", same, detail), detail
