"""Seed studies: how often the acceptance criteria pass over many seeds.

``reproduce`` evaluates criteria 1-4 on one triple of consecutive basic
seeds. The studies here run the same computation, ``cli._sweep``, without
its files, over disjoint triples, so a change that moves a verdict on seeds
the suite does not otherwise read shows as a changed pass rate.
"""

from collections import Counter

from expmodel import criteria
from expmodel.cli import _sweep

# First seeds of the 20 disjoint triples of seeds 1-60.
TRIPLES = range(1, 61, 3)


def triple_records(first_seed: int) -> list:
    """The records reproduce --seed first_seed writes to report.txt."""
    _, curves, _, reports = _sweep(first_seed)
    return criteria.evaluate(curves, reports)


def criterion_passes(first_seeds=TRIPLES) -> Counter:
    """Triples in which each criterion passes, keyed by its number (1-4)."""
    passes = Counter()
    for first in first_seeds:
        for record in triple_records(first):
            if record.name.startswith("criterion "):
                passes[int(record.name.split()[1])] += record.verdict == "PASS"
    return passes
