#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` compares operations against.

    python3 bench/record_references.py

Runs one operation of every workload for each seed in SEEDS, requires it to
exit 0 and pass the identity checks, and writes the extracted values to
``bench/references.json``. Run it only when the program's outputs are meant
to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import REFERENCES, WORKLOADS

# The default seed and one seed held out while the benchmark was tuned.
SEEDS = (1, 7)


def main() -> int:
    expmodel = run._import_program()
    references: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            runner = run.Runner(expmodel, workload, run.WORK / f"record-{name}", seed, None)
            try:
                runner.setup()
                code, _, _, err = runner.call(workload.argv(runner.work, seed))
                if code != 0:
                    sys.exit(f"{name} seed {seed}: exit code {code}: {err}")
                problems, values = workload.check(runner.work / "out")
            finally:
                shutil.rmtree(runner.work, ignore_errors=True)
            if problems:
                sys.exit(f"{name} seed {seed}: {problems[:5]}")
            references.setdefault(name, {})[str(seed)] = values
            print(f"{name} seed {seed}: recorded")
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
