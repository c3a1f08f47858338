"""Tests of the benchmark itself: the output check, the tracer and the contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, load_references

REFS = load_references()


@pytest.fixture(scope="module")
def expmodel():
    return run._import_program()


def edit_csv(path: Path, row: int, changes) -> None:
    """Apply {column: fn(old float) -> new float} to one data row of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    for col, fn in changes.items():
        rows[row][col] = repr(fn(float(rows[row][col])))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def shift_info(delta):
    """Move I by delta and keep R, C and K consistent with it."""

    def apply(out: Path, name: str, row: int) -> None:
        with open(out / name, newline="") as fh:
            r = list(csv.DictReader(fh))[row]
        i = float(r["I"]) + delta
        log_n = float(r["logN"])
        edit_csv(out / name, row, {"I": lambda _: i, "R": lambda _: log_n - i,
                                   "C": lambda _: log_n - 2 * i, "K": lambda _: math.exp(i)})
    return apply


def replace_text(name, old, new):
    def apply(out: Path) -> None:
        text = (out / name).read_text()
        assert old in text
        (out / name).write_text(text.replace(old, new, 1))
    return apply


# (workload, perturbation of the output directory, what catches it)
PERTURBATIONS = {
    "y_p shifted with err kept consistent": (
        "paper_sweep",
        lambda out: edit_csv(out / "fig4.csv", 7, {"y_p": lambda v: v + 1e-7, "err": lambda v: v + 1e-7}),
        "reference"),
    "I shifted with R, C, K kept consistent": (
        "paper_sweep", lambda out: shift_info(1e-7)(out, "fig2.csv", 9), "reference"),
    "report N_opt changed": (
        "paper_sweep", replace_text("report.txt", "seed=1: N_opt = ", "seed=1: N_opt = 1"), "identity"),
    "summary N_opt changed": (
        "info_dense20k", lambda out: edit_csv(out / "summary.csv", 0, {"N_opt": lambda v: int(v) + 1}), "identity"),
    "I changed alone": (
        "info_dense20k", lambda out: edit_csv(out / "info_curve.csv", 12, {"I": lambda v: v * (1 + 1e-9)}),
        "identity"),
    "Q above its identity": (
        "quality3000", lambda out: edit_csv(out / "quality.csv", 20, {"Q": lambda v: v + 1e-9}), "identity"),
    "Q over 1 with consistent moments": (
        "quality3000",
        lambda out: edit_csv(out / "quality.csv", 20, {"mse": lambda v: -v, "Q": lambda v: 2 - v}),
        "identity"),
    "quality.csv missing": (
        "quality3000", lambda out: (out / "quality.csv").unlink(), "identity"),
}


def _runner(expmodel, name, tmp_path, seed=1, check=None):
    workload = WORKLOADS[name]
    if check is not None:
        workload = dataclasses.replace(workload, check=check)
    runner = run.Runner(expmodel, workload, tmp_path / name, seed, REFS[name].get(str(seed)))
    runner.setup()
    return runner


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_unperturbed_operation_passes_reference_and_identities(expmodel, name, tmp_path):
    runner = _runner(expmodel, name, tmp_path)
    ok, wall, cpu = runner.operation()
    assert ok, runner.problems
    assert (runner.attempted, runner.failed) == (1, 0)
    assert wall > 0 and cpu > 0


def test_seed_without_reference_is_checked_by_identities(expmodel, tmp_path):
    runner = _runner(expmodel, "quality3000", tmp_path, seed=2)
    assert runner.reference is None
    assert runner.operation()[0], runner.problems


@pytest.mark.parametrize("case", list(PERTURBATIONS))
def test_perturbed_output_counts_as_failed(expmodel, case, tmp_path):
    name, perturb, caught_by = PERTURBATIONS[case]
    original = WORKLOADS[name].check

    def perturbed_check(out):
        perturb(out)
        return original(out)

    runner = _runner(expmodel, name, tmp_path, check=perturbed_check)
    ok, _, _ = runner.operation()
    assert not ok
    assert (runner.attempted, runner.failed) == (1, 1)
    if caught_by == "reference":
        # The identities alone cannot see it; only the recorded values do.
        runner.reference = None
        assert runner.operation()[0], runner.problems


def test_nonzero_exit_counts_as_failed(expmodel, tmp_path):
    workload = dataclasses.replace(WORKLOADS["quality3000"], argv=lambda work, seed: ["quality", "--n", "10"])
    runner = run.Runner(expmodel, workload, tmp_path / "bad", 1, None)
    runner.setup()
    ok, _, _ = runner.operation()
    assert not ok and runner.failed == 1
    assert "exit code 2" in runner.problems[0]


def test_traced_counts_are_computed_from_arguments(expmodel, tmp_path):
    runner = run.Runner(expmodel, WORKLOADS["info_dense20k"], tmp_path / "w", 1, None)
    runner.work.mkdir()
    runner.call(["generate", "--sigma", "0.2", "--n", "200", "--seed", "1", "--out-dir", str(tmp_path / "w" / "data")])
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code, *_ = runner.call(["info", "--basic", str(tmp_path / "w" / "data" / "samples.csv"),
                                "--out-dir", str(tmp_path / "out")])
    assert code == 0
    spans, counts = tracer.take()
    schedule = expmodel.default_schedule(200)
    g = 257
    assert counts["information.prefixes"] == len(schedule)
    assert counts["information.prefix_samples"] == sum(schedule)
    assert counts["information.grid_nodes"] == len(schedule) * g * g
    assert counts["density.matmul_flops"] == sum(2 * n * g * g for n in schedule)
    assert counts["scattering.kernel_elems"] == sum(2 * n * g for n in schedule)
    assert counts["predictor.pairs"] == 0
    summary = tracing.summarize(spans)
    assert summary["density.joint_on_grid"]["calls"] == len(schedule)
    assert summary["cli.csv_write"]["calls"] == 2
    # The wrappers are gone after the block.
    assert expmodel.cli.info_curve is expmodel.information.info_curve


def test_self_time_subtracts_the_union_of_children_across_threads():
    S = tracing.Span
    spans = [
        S(1, "parent", 0.0, 10.0, None, 1),
        S(2, "child", 1.0, 5.0, 1, 2),
        S(3, "child", 3.0, 7.0, 1, 3),  # overlaps span 2 on another thread
        S(4, "grandchild", 1.0, 2.0, 2, 2),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert tracing.max_workers([S(5, "threads.chunk", 0, 1, 9, 1), S(6, "threads.chunk", 0, 1, 9, 2)]) == 2


def test_spans_from_worker_threads_take_the_given_parent():
    tracer = tracing.Tracer()

    def worker(parent):
        with tracer.span("inner", parent=parent):
            pass

    with tracer.span("outer") as sid:
        t = threading.Thread(target=worker, args=(sid,))
        t.start()
        t.join(timeout=5)
        assert not t.is_alive()
        with tracer.span("nested"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == sid
    assert by_name["inner"].thread != by_name["outer"].thread
    assert by_name["nested"].parent == sid


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "quality3000", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_memory_probe_nests_peaks():
    import numpy as np
    import tracemalloc

    probe = tracing.MemoryProbe()
    tracemalloc.start()
    try:
        with probe.frame("outer"):
            held = np.ones(2_000_000)  # 16 MB kept
            with probe.frame("inner"):
                np.ones(1_000_000).sum()  # 8 MB freed before exit
            del held
    finally:
        tracemalloc.stop()
    assert 7.9 < probe.peaks["inner"] < 8.5
    assert 23.9 < probe.peaks["outer"] < 24.5
