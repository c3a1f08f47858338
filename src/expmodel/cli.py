"""Command-line front end emitting CSV artifacts for every experiment.

Subcommands
-----------
generate    write a noisy chaotic benchmark dataset
info        information curve and proper-sample-count summary for a dataset
predict     conditional-average predictions of a test set from a basic set
quality     predictor quality over growing sample counts, three seeds
reproduce   full benchmark sweep: fig2..fig5 CSV files plus report.txt, the
            records of expmodel.criteria next to the published targets

All outputs are deterministic functions of the flags. Entropic quantities
are in nats. The EXPMODEL_THREADS environment variable of earlier versions
is accepted and ignored; every command runs serially.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

from . import criteria
from .density import Dataset
from .errors import ExperimentModelError, InvalidParameter
from .generator import GenerationMeta, generate
from .information import InfoCurve, QuadratureGrid, info_curve
from .predictor import (CaPredictor, quality_sweep, write_predictions_csv,
                        write_quality_csv)
from .scattering import ScatteringFunction, SpanConfig
from .tables import read_dataset_csv, write_dataset_csv, write_table

# Offset between the basic-set seed and the seed of the held-out test set.
TEST_SEED_OFFSET = 7919


@dataclasses.dataclass
class RunConfig:
    sigma: Optional[float]
    n: Optional[int]
    seed: int
    span_l: float
    grid_points: int
    schedule: Optional[list[int]]
    out_dir: str
    basic: Optional[str] = None
    test: Optional[str] = None

    def sample_count(self) -> int:
        return 200 if self.n is None else self.n

    def span(self) -> SpanConfig:
        return SpanConfig(self.span_l)

    def grid(self) -> QuadratureGrid:
        return QuadratureGrid(self.span(), self.grid_points)

    def sf(self, sigma: float) -> ScatteringFunction:
        return ScatteringFunction(sigma, self.span())


def _resolve_sigma(config: RunConfig, dataset: Dataset) -> float:
    if config.sigma is not None:
        return config.sigma
    meta = dataset.meta
    if meta is not None and meta.sigma_noise > 0:
        return meta.sigma_noise
    raise InvalidParameter("--sigma not given and the dataset records no usable width")


def _out(config: RunConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def cmd_generate(config: RunConfig) -> None:
    if config.sigma is None:
        raise InvalidParameter("generate requires --sigma (noise standard deviation)")
    meta = GenerationMeta(seed=config.seed, sigma_noise=config.sigma,
                          n=config.sample_count())
    dataset = generate(meta)
    path = _out(config, "samples.csv")
    write_dataset_csv(dataset, path)
    print(path)


def cmd_info(config: RunConfig) -> None:
    if config.basic is None:
        raise InvalidParameter("info requires --basic <dataset.csv>")
    dataset = read_dataset_csv(config.basic)
    sigma = _resolve_sigma(config, dataset)
    curve = info_curve(dataset, config.sf(sigma), config.grid(), config.schedule)
    curve.write_records_csv(_out(config, "info_curve.csv"))
    curve.write_summary_csv(_out(config, "summary.csv"))
    print(f"N_opt={curve.n_opt} I_inf={curve.info_limit:.6f} K_inf={curve.complexity_limit:.6f}")


def cmd_predict(config: RunConfig) -> None:
    if config.basic is None or config.test is None:
        raise InvalidParameter("predict requires --basic and --test dataset paths")
    basic = read_dataset_csv(config.basic)
    test = read_dataset_csv(config.test)
    sigma = _resolve_sigma(config, basic)
    sf = config.sf(sigma)
    if config.n is not None:
        basic = basic.prefix(config.n)
    predictor = CaPredictor(basic, sf)
    outside = int((abs(test.x) > config.span_l).sum())
    if outside:
        print(f"warning: {outside} test inputs lie outside the span (-L, L)",
              file=sys.stderr)
    y_p = predictor.predict_many(test.x)
    write_predictions_csv(_out(config, "predictions.csv"), test.x, test.y, y_p)
    print(_out(config, "predictions.csv"))


def _quality_rows(config: RunConfig, sigma: float, seeds: Sequence[int]):
    sf = config.sf(sigma)
    n = config.sample_count()
    test = generate(GenerationMeta(seed=config.seed + TEST_SEED_OFFSET,
                                   sigma_noise=sigma, n=n))
    rows = []
    per_seed = {}
    for seed in seeds:
        basic = generate(GenerationMeta(seed=seed, sigma_noise=sigma, n=n))
        sweep = quality_sweep(basic, test, sf, config.schedule)
        per_seed[seed] = dict(sweep)
        rows.extend((n, seed, rep) for n, rep in sweep)
    return rows, per_seed


def cmd_quality(config: RunConfig) -> None:
    if config.sigma is None:
        raise InvalidParameter("quality requires --sigma")
    seeds = [config.seed, config.seed + 1, config.seed + 2]
    rows, _ = _quality_rows(config, config.sigma, seeds)
    write_quality_csv(_out(config, "quality.csv"), rows)
    print(_out(config, "quality.csv"))


def _curves_by_seed(config: RunConfig, sigma: float, seeds: Sequence[int]) -> dict[int, InfoCurve]:
    sf = config.sf(sigma)
    grid = config.grid()
    out = {}
    for seed in seeds:
        data = generate(GenerationMeta(seed=seed, sigma_noise=sigma,
                                       n=config.sample_count()))
        out[seed] = info_curve(data, sf, grid, config.schedule)
    return out


def cmd_reproduce(config: RunConfig) -> None:
    seeds = [config.seed, config.seed + 1, config.seed + 2]
    sigma_main = 0.2
    sigma_sweep = [0.1, 0.2, 0.4]

    curves = {s: _curves_by_seed(config, s, seeds) for s in sigma_sweep}

    write_table(_out(config, "fig2.csv"), ("seed",) + InfoCurve.COLUMNS,
                ((seed, *row) for seed in seeds for row in curves[sigma_main][seed].rows()))
    write_table(_out(config, "fig3.csv"), ("sigma", "seed") + InfoCurve.COLUMNS,
                ((repr(float(s)), seed, *row)
                 for s in (0.1, 0.4) for seed in seeds for row in curves[s][seed].rows()))

    # Prediction trace: reduced 50-sample basic set against a fresh test set.
    sf = config.sf(sigma_main)
    n = config.sample_count()
    basic = generate(GenerationMeta(seed=config.seed, sigma_noise=sigma_main, n=n))
    test = generate(GenerationMeta(seed=config.seed + TEST_SEED_OFFSET,
                                   sigma_noise=sigma_main, n=n))
    reduced = basic.prefix(min(50, len(basic)))
    y_p = CaPredictor(reduced, sf).predict_many(test.x)
    write_predictions_csv(_out(config, "fig4.csv"), test.x, test.y, y_p)

    rows, per_seed = _quality_rows(config, sigma_main, seeds)
    write_quality_csv(_out(config, "fig5.csv"), rows)

    _write_report(_out(config, "report.txt"), criteria.evaluate(curves, per_seed, sf))
    print(_out(config, "report.txt"))


def _write_report(path: str, records) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{record}\n" for record in records))


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmodel",
        description="Statistical modeling of a physical law from noisy paired measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sigma", type=float, default=None,
                       help="kernel / noise standard deviation")
        p.add_argument("--n", type=int, default=None,
                       help="number of samples (default 200); for predict, the "
                            "basic-set prefix to use (default: all rows)")
        p.add_argument("--seed", type=int, default=1, help="base PRNG seed")
        p.add_argument("--span-l", type=float, default=2.0,
                       help="span half width L; channels cover (-L, L)")
        p.add_argument("--grid-points", type=int, default=257,
                       help="quadrature nodes per axis (>= 129, step <= sigma/4)")
        p.add_argument("--schedule", type=_parse_schedule, default=None,
                       help="comma-separated strictly increasing sample counts")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--basic", default=None, help="basic dataset CSV path")
        p.add_argument("--test", default=None, help="test dataset CSV path")

    for name, func, helptext in [
        ("generate", cmd_generate, "write a noisy chaotic benchmark dataset (samples.csv)"),
        ("info", cmd_info, "information curve and summary for a dataset"),
        ("predict", cmd_predict, "conditional-average predictions for a test set"),
        ("quality", cmd_quality, "predictor quality over sample counts, three seeds"),
        ("reproduce", cmd_reproduce, "full benchmark sweep: fig2..fig5 CSVs and report.txt"),
    ]:
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.set_defaults(func=func)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(RunConfig)})
    try:
        args.func(config)
    except (ExperimentModelError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical or internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
