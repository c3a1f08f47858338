"""Seed studies: how often the acceptance criteria pass over many seeds.

``reproduce`` evaluates criteria 1-4 on one triple of consecutive basic
seeds. The studies here run the same computation, without its files, over
disjoint triples, so a change that moves a verdict on seeds the suite does
not otherwise read shows as a changed pass rate.
"""

from collections import Counter

from expmodel import ScatteringFunction, criteria, info_curve, quality_sweep
from expmodel.cli import SIGMA_MAIN, SIGMA_SWEEP, SPAN_L, TEST_SEED_OFFSET, _generate

# First seeds of the 20 disjoint triples of seeds 1-60.
TRIPLES = range(1, 61, 3)


def triple_records(first_seed: int) -> list:
    """The records reproduce --seed first_seed writes to report.txt."""
    seeds = (first_seed, first_seed + 1, first_seed + 2)
    curves = {s: {seed: info_curve(_generate(seed, s), ScatteringFunction(s), half_width=SPAN_L)
                  for seed in seeds}
              for s in SIGMA_SWEEP}
    sf = ScatteringFunction(SIGMA_MAIN)
    test = _generate(first_seed + TEST_SEED_OFFSET, SIGMA_MAIN)
    reports = {seed: quality_sweep(_generate(seed, SIGMA_MAIN), test, sf) for seed in seeds}
    return criteria.evaluate(curves, reports, sf, SPAN_L)


def criterion_passes(first_seeds=TRIPLES) -> Counter:
    """Triples in which each criterion passes, keyed by its number (1-4)."""
    passes = Counter()
    for first in first_seeds:
        for record in triple_records(first):
            if record.name.startswith("criterion "):
                passes[int(record.name.split()[1])] += record.verdict == "PASS"
    return passes
