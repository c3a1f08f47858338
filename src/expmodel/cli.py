"""Command-line front end emitting CSV artifacts for every experiment.

Subcommands
-----------
generate    write a noisy chaotic benchmark dataset
info        information curve and proper-sample-count summary for a dataset
predict     conditional-average predictions of a test set from a basic set
quality     predictor quality over growing sample counts, three seeds
reproduce   full benchmark sweep: fig2..fig5 CSV files plus report.txt, the
            records of expmodel.criteria next to the published targets

Each subcommand accepts only the flags it reads (COMMANDS below); any other
flag is a usage error (exit 2). reproduce runs the one configuration its
criteria are stated for, so it reads only --seed and --out-dir. All outputs
are deterministic functions of the flags. Entropic quantities are in nats.

The library returns numbers; this module alone lays them out as tables, one
write_table call per file (cell format in expmodel.tables). info_curve.csv,
fig2.csv and fig3.csv share CURVE_COLUMNS behind their seed and sigma
columns; fig4.csv is a predictions.csv table and fig5.csv a quality.csv
table, whose rows run seed-major and in schedule order within a seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Mapping, Optional, Sequence

import numpy as np

from . import criteria
from .density import Dataset
from .errors import ExperimentModelError, InvalidParameter
from .generator import GenerationMeta, generate
from .information import InfoCurve, QuadratureGrid, info_curve
from .predictor import CaPredictor, QualityReport, quality_sweep
from .scattering import ScatteringFunction
from .tables import column_rows, read_dataset_csv, write_dataset_csv, write_table

# Offset between the basic-set seed and the seed of the held-out test set.
TEST_SEED_OFFSET = 7919

# Noise and kernel widths of the benchmark sweep; fig2, fig4, fig5 and the
# sample-count criteria use the main one, fig3 the others.
SIGMA_MAIN = 0.2
SIGMA_SWEEP = (0.1, 0.2, 0.4)

# Samples per dataset and span half width L of the benchmark sweep, which the
# other commands default to, and the least grid points per axis of info_curve.
N_SAMPLES = 200
SPAN_L = 2.0
GRID_POINTS = 257

# Columns of the information-curve table, one row per record.
CURVE_COLUMNS = ("N", "logN", "I", "R", "C", "K")


def _seeds(args) -> list[int]:
    return [args.seed, args.seed + 1, args.seed + 2]


def _generate(seed: int, sigma: float, n: Optional[int] = None) -> Dataset:
    n = N_SAMPLES if n is None else n
    return generate(GenerationMeta(seed=seed, sigma_noise=sigma, n=n))


def _resolve_sigma(args, dataset: Dataset) -> float:
    if args.sigma is not None:
        return args.sigma
    meta = dataset.meta
    if meta is not None and meta.sigma_noise > 0:
        return meta.sigma_noise
    raise InvalidParameter("--sigma not given and the dataset records no usable width")


def _out(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _curve_rows(curve: InfoCurve):
    return ((r.n, r.log_n, r.info, r.redundancy, r.cost, r.complexity) for r in curve.records)


def _write_predictions(path: str, test: Dataset, y_p: np.ndarray) -> None:
    write_table(path, ("x_t", "y_t", "y_p", "err"),
                ((x, y, p, p - y) for x, y, p in column_rows(test.x, test.y, y_p)))


def _write_quality(path: str, reports: Mapping[int, Mapping[int, QualityReport]]) -> None:
    """reports[seed][n] is the quality of the first n basic samples of seed."""
    write_table(path, ("N", "seed", "Q", "var_y", "var_yp", "cov", "mse"),
                ((n, seed, r.q, r.var_true, r.var_pred, r.cov, r.mse)
                 for seed, sweep in reports.items() for n, r in sweep.items()))


def cmd_generate(args) -> None:
    if args.sigma is None:
        raise InvalidParameter("generate requires --sigma (noise standard deviation)")
    dataset = _generate(args.seed, args.sigma, args.n)
    path = _out(args, "samples.csv")
    write_dataset_csv(dataset, path)
    print(path)


def cmd_info(args) -> None:
    if args.basic is None:
        raise InvalidParameter("info requires --basic <dataset.csv>")
    dataset = read_dataset_csv(args.basic)
    sf = ScatteringFunction(_resolve_sigma(args, dataset))
    grid = QuadratureGrid(args.span_l, GRID_POINTS).refined_for(sf)
    if grid.points_per_axis > GRID_POINTS:
        print(f"info: sigma={sf.sigma} sets G={grid.points_per_axis} grid points per axis "
              f"(step {grid.step:.6g} <= sigma/4), a workspace of at most "
              f"{grid.workspace_bytes} bytes", file=sys.stderr)
    curve = info_curve(dataset, sf, grid, args.schedule)
    n = curve.records[-1].n  # the curve reads only the samples up to its last point
    outside = int(np.count_nonzero((abs(dataset.x[:n]) > grid.half_width)
                                   | (abs(dataset.y[:n]) > grid.half_width)))
    if outside:
        print(f"warning: {outside} samples lie outside the span (-L, L)", file=sys.stderr)
    write_table(_out(args, "info_curve.csv"), CURVE_COLUMNS, _curve_rows(curve))
    write_table(_out(args, "summary.csv"), ("N_opt", "I_inf", "K_inf"),
                [(curve.n_opt, curve.info_limit, curve.complexity_limit)])
    print(f"N_opt={curve.n_opt} I_inf={curve.info_limit:.6f} K_inf={curve.complexity_limit:.6f}")


def cmd_predict(args) -> None:
    if args.basic is None or args.test is None:
        raise InvalidParameter("predict requires --basic and --test dataset paths")
    basic = read_dataset_csv(args.basic)
    test = read_dataset_csv(args.test)
    sigma = _resolve_sigma(args, basic)
    if args.n is not None:
        basic = basic.prefix(args.n)
    y_p = CaPredictor(basic, ScatteringFunction(sigma)).predict_many(test.x)
    _write_predictions(_out(args, "predictions.csv"), test, y_p)
    print(_out(args, "predictions.csv"))


def cmd_quality(args) -> None:
    if args.sigma is None:
        raise InvalidParameter("quality requires --sigma")
    test = _generate(args.seed + TEST_SEED_OFFSET, args.sigma, args.n)
    sf = ScatteringFunction(args.sigma)
    # One basic set at a time: memory stays that of one set whatever the seeds.
    reports = {seed: quality_sweep(_generate(seed, args.sigma, args.n), test, sf, args.schedule)
               for seed in _seeds(args)}
    _write_quality(_out(args, "quality.csv"), reports)
    print(_out(args, "quality.csv"))


def cmd_reproduce(args) -> None:
    seeds = _seeds(args)
    # Only the main-width sets are used again (fig4, fig5); the others are
    # made when their curve is, so one of them is held at a time.
    basics = {seed: _generate(seed, SIGMA_MAIN) for seed in seeds}
    grid = QuadratureGrid(SPAN_L, GRID_POINTS)
    curves = {s: {seed: info_curve(basics[seed] if s == SIGMA_MAIN else _generate(seed, s),
                                   ScatteringFunction(s), grid)
                  for seed in seeds}
              for s in SIGMA_SWEEP}

    write_table(_out(args, "fig2.csv"), ("seed",) + CURVE_COLUMNS,
                ((seed, *row) for seed in seeds for row in _curve_rows(curves[SIGMA_MAIN][seed])))
    write_table(_out(args, "fig3.csv"), ("sigma", "seed") + CURVE_COLUMNS,
                ((repr(float(s)), seed, *row)
                 for s in SIGMA_SWEEP if s != SIGMA_MAIN
                 for seed in seeds for row in _curve_rows(curves[s][seed])))

    # Prediction trace: reduced 50-sample basic set against the test set.
    sf = ScatteringFunction(SIGMA_MAIN)
    test = _generate(args.seed + TEST_SEED_OFFSET, SIGMA_MAIN)
    y_p = CaPredictor(basics[args.seed].prefix(50), sf).predict_many(test.x)
    _write_predictions(_out(args, "fig4.csv"), test, y_p)

    reports = {seed: quality_sweep(basic, test, sf) for seed, basic in basics.items()}
    _write_quality(_out(args, "fig5.csv"), reports)

    _write_report(_out(args, "report.txt"), criteria.evaluate(curves, reports, sf, SPAN_L))
    print(_out(args, "report.txt"))


def _write_report(path: str, records) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{record}\n" for record in records))


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {exc}")


# Every flag once, with its type, default and help text.
FLAGS = {
    "--basic": dict(default=None, help="basic dataset CSV path"),
    "--test": dict(default=None, help="test dataset CSV path"),
    "--sigma": dict(type=float, default=None,
                    help="kernel / noise standard deviation; for info, the grid step is <= sigma/4"),
    "--n": dict(type=int, default=None,
                help=f"number of samples (default {N_SAMPLES}); for predict, the "
                     "basic-set prefix to use (default: all rows)"),
    "--seed": dict(type=int, default=1, help="base PRNG seed"),
    "--span-l": dict(type=float, default=SPAN_L,
                     help=f"half width L of the integration square [-L, L]^2, on "
                          f"max({GRID_POINTS}, ceil(8L/sigma) + 1) nodes per axis"),
    "--schedule": dict(type=_parse_schedule, default=None,
                       help="comma-separated strictly increasing sample counts"),
    "--out-dir": dict(default=".", help="directory for output files"),
}

# Subcommand, its function, help text and the flags it reads.
COMMANDS = [
    ("generate", cmd_generate, "write a noisy chaotic benchmark dataset (samples.csv)",
     ("--sigma", "--n", "--seed", "--out-dir")),
    ("info", cmd_info, "information curve and summary for a dataset",
     ("--basic", "--sigma", "--span-l", "--schedule", "--out-dir")),
    ("predict", cmd_predict, "conditional-average predictions for a test set",
     ("--basic", "--test", "--sigma", "--n", "--out-dir")),
    ("quality", cmd_quality, "predictor quality over sample counts, three seeds",
     ("--sigma", "--n", "--seed", "--schedule", "--out-dir")),
    ("reproduce", cmd_reproduce, "full benchmark sweep: fig2..fig5 CSVs and report.txt",
     ("--seed", "--out-dir")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmodel",
        description="Statistical modeling of a physical law from noisy paired measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, helptext, flags in COMMANDS:
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ExperimentModelError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
