"""The benchmark's workloads and the check applied to every operation's output.

Each workload turns the benchmark seed into CLI arguments (and, for
``info_dense20k``, a dataset made during set-up). One operation is one
``expmodel`` command writing its CSV files into ``<work>/out``.

The check has two parts. Identities that hold for any seed: R = logN - I,
C = logN - 2I, K = exp(I), I <= log N, I <= -H_u, N_opt = argmin C,
Q = 1 - mse / (var_y + var_yp) <= 1 and err = y_p - y_t. And, for the seeds
recorded in ``references.json``, equality with the values this benchmark
recorded: integers exactly, I, Q and y_p within a relative 1e-9.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

SIGMA = 0.2
SPAN_L = 2.0
# sqrt(2)-geometric ladder 1, 2, 3, 4, 6, 8, 11, 16, 23, ..., 16384, then 20000.
LADDER = sorted({round(2 ** (k / 2)) for k in range(29)}) + [20000]

# Identities are computed by the program in float64; allow reordered sums.
TOL_IDENTITY = 1e-12
# Reference values recorded by this benchmark.
TOL_REFERENCE = 1e-9


def close(a: float, b: float, rel: float) -> bool:
    """|a - b| <= rel * max(|b|, 1): relative for the O(1) quantities compared."""
    return abs(a - b) <= rel * max(abs(b), 1.0)


def calibration_entropy(sigma: float) -> float:
    """H_u = 2 log(sigma/L) + log(pi/2) + 1 for the benchmark's span."""
    return 2.0 * math.log(sigma / SPAN_L) + math.log(math.pi / 2.0) + 1.0


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _curve_problems(rows, sigma, where: str) -> tuple[list[str], int]:
    """Identity problems of one information curve, and its argmin-C N_opt."""
    problems = []
    neg_hu = -calibration_entropy(sigma)
    for r in rows:
        n, log_n, i = int(r["N"]), float(r["logN"]), float(r["I"])
        if not close(log_n, math.log(n), TOL_IDENTITY):
            problems.append(f"{where} N={n}: logN={log_n} != log(N)")
        if not close(float(r["R"]), log_n - i, TOL_IDENTITY):
            problems.append(f"{where} N={n}: R != logN - I")
        if not close(float(r["C"]), log_n - 2.0 * i, TOL_IDENTITY):
            problems.append(f"{where} N={n}: C != logN - 2I")
        if not close(float(r["K"]), math.exp(i), TOL_IDENTITY):
            problems.append(f"{where} N={n}: K != exp(I)")
        if i > log_n + TOL_IDENTITY * max(1.0, log_n):  # equality for isolated kernels
            problems.append(f"{where} N={n}: I={i} > log N")
        if i > neg_hu:
            problems.append(f"{where} N={n}: I={i} > -H_u={neg_hu}")
    costs = [float(r["C"]) for r in rows]
    n_opt = int(rows[costs.index(min(costs))]["N"]) if rows else 0
    return problems, n_opt


def _quality_problems(rows, where: str) -> list[str]:
    problems = []
    for r in rows:
        q = float(r["Q"])
        expect = 1.0 - float(r["mse"]) / (float(r["var_y"]) + float(r["var_yp"]))
        if not q <= 1.0:
            problems.append(f"{where} N={r['N']} seed={r['seed']}: Q={q} > 1")
        if not close(q, expect, TOL_IDENTITY):
            problems.append(f"{where} N={r['N']} seed={r['seed']}: Q != 1 - mse/(var_y+var_yp)")
    return problems


def _groups(rows, keys):
    out: dict[tuple, list] = {}
    for r in rows:
        out.setdefault(tuple(r[k] for k in keys), []).append(r)
    return out


# --- per-workload checks -----------------------------------------------------
#
# Each check returns (problems, values). ``values`` has "exact" lists
# (integers) and "close" lists (floats), compared with the references.


def check_reproduce(out: Path) -> tuple[list[str], dict]:
    problems: list[str] = []
    fig2, fig3 = read_table(out / "fig2.csv"), read_table(out / "fig3.csv")
    n_opt: dict[tuple[float, str], int] = {}
    for (seed,), rows in _groups(fig2, ["seed"]).items():
        p, n_opt[(SIGMA, seed)] = _curve_problems(rows, SIGMA, f"fig2 seed={seed}")
        problems += p
    for (sigma, seed), rows in _groups(fig3, ["sigma", "seed"]).items():
        p, n_opt[(float(sigma), seed)] = _curve_problems(rows, float(sigma), f"fig3 sigma={sigma} seed={seed}")
        problems += p

    report = (out / "report.txt").read_text()
    reported = [int(v) for v in re.findall(r"N_opt = (\d+)", report)]
    reported += [int(v) for m in re.findall(r"N_opt non-increasing in sigma \((\d+), (\d+), (\d+)\)", report)
                 for v in m]
    seeds = sorted({s for _, s in n_opt}, key=int)
    expected = [n_opt[(SIGMA, s)] for s in seeds]
    expected += [n_opt[(sig, s)] for s in seeds for sig in (0.1, 0.2, 0.4)]
    if reported != expected:
        problems.append(f"report N_opt {reported} != argmin C of the curves {expected}")

    fig4 = read_table(out / "fig4.csv")
    for r in fig4:
        if not close(float(r["err"]), float(r["y_p"]) - float(r["y_t"]), TOL_IDENTITY):
            problems.append(f"fig4 x_t={r['x_t']}: err != y_p - y_t")
    fig5 = read_table(out / "fig5.csv")
    problems += _quality_problems(fig5, "fig5")

    values = {
        "exact": {
            "fig2.N": [int(r["N"]) for r in fig2],
            "fig3.N": [int(r["N"]) for r in fig3],
            "fig5.N": [int(r["N"]) for r in fig5],
            "N_opt": expected,
        },
        "close": {
            "fig2.I": [float(r["I"]) for r in fig2],
            "fig3.I": [float(r["I"]) for r in fig3],
            "fig4.y_p": [float(r["y_p"]) for r in fig4],
            "fig5.Q": [float(r["Q"]) for r in fig5],
        },
    }
    return problems, values


def check_info(out: Path) -> tuple[list[str], dict]:
    rows = read_table(out / "info_curve.csv")
    problems, n_opt = _curve_problems(rows, SIGMA, "info_curve")
    (summary,) = read_table(out / "summary.csv")
    if int(summary["N_opt"]) != n_opt:
        problems.append(f"summary N_opt={summary['N_opt']} != argmin C = {n_opt}")
    tail = min(len(rows), max(3, math.ceil(len(rows) / 10)))
    i_inf = sum(float(r["I"]) for r in rows[-tail:]) / tail
    if not close(float(summary["I_inf"]), i_inf, TOL_IDENTITY):
        problems.append(f"summary I_inf={summary['I_inf']} != mean of last {tail} I = {i_inf}")
    if not close(float(summary["K_inf"]), math.exp(float(summary["I_inf"])), TOL_IDENTITY):
        problems.append("summary K_inf != exp(I_inf)")
    values = {
        "exact": {"N": [int(r["N"]) for r in rows], "N_opt": [int(summary["N_opt"])]},
        "close": {"I": [float(r["I"]) for r in rows], "I_inf": [float(summary["I_inf"])]},
    }
    return problems, values


def check_quality(out: Path) -> tuple[list[str], dict]:
    rows = read_table(out / "quality.csv")
    values = {
        "exact": {"N": [int(r["N"]) for r in rows], "seed": [int(r["seed"]) for r in rows]},
        "close": {"Q": [float(r["Q"]) for r in rows]},
    }
    return _quality_problems(rows, "quality"), values


def compare(values: dict, reference: dict) -> list[str]:
    """Differences between an operation's values and the recorded ones."""
    problems = []
    for key, ref in reference["exact"].items():
        got = values["exact"].get(key)
        if got != ref:
            problems.append(f"{key}: {got} != reference {ref}")
    for key, ref in reference["close"].items():
        got = values["close"].get(key, [])
        if len(got) != len(ref):
            problems.append(f"{key}: {len(got)} values, reference has {len(ref)}")
            continue
        bad = [i for i, (a, b) in enumerate(zip(got, ref)) if not close(a, b, TOL_REFERENCE)]
        if bad:
            i = bad[0]
            problems.append(f"{key}: {len(bad)} values off the reference, first [{i}] {got[i]!r} vs {ref[i]!r}")
    return problems


# --- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (work dir, program seed) -> argv of the set-up command, or None.
    setup_argv: Callable[[Path, int], list[str] | None]
    # (work dir, program seed) -> argv of one operation.
    argv: Callable[[Path, int], list[str]]
    check: Callable[[Path], tuple[list[str], dict]]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "paper_sweep",
            "expmodel reproduce: the paper's sweep, 144 small-prefix info evaluations plus quality; "
            "fixed per-prefix cost and thread-pool start-up dominate",
            lambda work, seed: None,
            lambda work, seed: ["reproduce", "--seed", str(seed), "--out-dir", str(work / "out")],
            check_reproduce,
        ),
        Workload(
            "info_dense20k",
            "expmodel info on 20000 samples over a sqrt(2) ladder of 29 prefixes; "
            "kernel matrices and grid matmul dominate, and a 20000-row CSV is read",
            lambda work, seed: ["generate", "--sigma", str(SIGMA), "--n", "20000", "--seed", str(seed),
                                "--out-dir", str(work / "data")],
            lambda work, seed: ["info", "--basic", str(work / "data" / "samples.csv"),
                                "--schedule", ",".join(map(str, LADDER)), "--out-dir", str(work / "out")],
            check_info,
        ),
        Workload(
            "quality3000",
            "expmodel quality at n=3000: 3 seeds x 16 prefixes against 3000 test points; "
            "the predictor dominates and the information layer is bypassed",
            lambda work, seed: None,
            lambda work, seed: ["quality", "--sigma", str(SIGMA), "--n", "3000", "--seed", str(seed),
                                "--out-dir", str(work / "out")],
            check_quality,
        ),
    ]
}


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())
