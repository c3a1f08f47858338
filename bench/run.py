#!/usr/bin/env python3
"""Benchmark of the expmodel command line, end to end and layer by layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: each operation is one ``expmodel.cli.main`` call
in this process, started when the previous one has finished and been
checked. Every operation's exit code and output files are checked (see
``workloads.py``); a failed check counts in ``failed`` and never stops the
run.

``--trace 0`` reports the end-to-end metrics: median wall and CPU time per
warm operation, the tracemalloc peak of one untimed operation and the
set-up time of a fresh interpreter. ``--trace 1`` reports per-layer metrics
from a traced pass (see ``tracing.py``), with an untraced pass of equal length
to give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 before running anything.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing
from workloads import WORKLOADS, compare, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Fresh interpreters started per run to measure set-up time.
SETUP_REPEATS = 7
# Fewest timed operations per run, even when --seconds has elapsed.
MIN_OPS = 3
# Percentiles considered for the reported tail.
TAIL_PERCENTILES = (50, 75, 90, 95, 99)

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_mb", "MB"), ("setup_s", "s")]

# Per-layer metrics and units.
PER_LAYER = [
    ("scattering.log_gaussian.s", "s"),
    ("scattering.log_gaussian.calls", "count"),
    ("scattering.kernel_elems", "count"),
    ("density.joint_on_grid.s", "s"),
    ("density.joint_on_grid.self_s", "s"),
    ("density.joint_on_grid.calls", "count"),
    ("density.joint_on_grid.peak_mb", "MB"),
    ("density.matmul_flops", "flop"),
    ("density.read_dataset_csv.s", "s"),
    ("threads.run_chunks.s", "s"),
    ("threads.run_chunks.self_s", "s"),
    ("threads.chunks", "count"),
    ("threads.workers", "count"),
    ("information.info_curve.s", "s"),
    ("information.info_curve.self_s", "s"),
    ("information.experimental_information.self_s", "s"),
    ("information.prefixes", "count"),
    ("information.prefix_samples", "count"),
    ("information.grid_nodes", "count"),
    ("predictor.predict_many.s", "s"),
    ("predictor.predict_many.calls", "count"),
    ("predictor.predict_many.peak_mb", "MB"),
    ("predictor.pairs", "count"),
    ("predictor.predictor_quality.s", "s"),
    ("predictor.quality_sweep.self_s", "s"),
    ("generator.generate.s", "s"),
    ("generator.generate.calls", "count"),
    ("cli.csv_write.s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
]

# Work counts computed from call arguments rather than measured.
COMPUTED = {"scattering.kernel_elems", "density.matmul_flops", "information.prefix_samples",
            "information.grid_nodes", "predictor.pairs"}

# Layers whose peak memory is measured: metric -> (target, attribute).
MEMORY_LAYERS = {
    "density.joint_on_grid.peak_mb": ("DensityModel", "joint_on_grid"),
    "predictor.predict_many.peak_mb": ("CaPredictor", "predict_many"),
}


def _import_program():
    if not (SRC / "expmodel" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'expmodel'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import expmodel.cli

    if Path(expmodel.__file__).resolve().parent != SRC / "expmodel":
        print(f"bench: imported expmodel from {expmodel.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return expmodel


# --- environment record ------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(expmodel, seed: int, program_seed: int) -> dict:
    import numpy as np

    threads = getattr(expmodel, "_threads", None)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "EXPMODEL_THREADS": os.environ.get("EXPMODEL_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "thread_count": threads.thread_count() if threads is not None else None,
        "git_commit": _git_commit(),
        "seed": seed,
        "program_seed": program_seed,
    }


# --- operations --------------------------------------------------------------


class Runner:
    """Runs and checks operations of one workload; counts attempts and failures."""

    def __init__(self, expmodel, workload, work: Path, program_seed: int, reference: dict | None):
        self.cli = expmodel.cli
        self.workload = workload
        self.work = work
        self.seed = program_seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, argv: list[str]) -> tuple[int, float, float, str]:
        """One CLI command: exit code, wall and CPU seconds, stderr text."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return code, wall, cpu, err.getvalue()

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        argv = self.workload.setup_argv(self.work, self.seed)
        if argv is not None:
            code, _, _, err = self.call(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv} exited {code}: {err.strip()}")

    def operation(self) -> tuple[bool, float, float]:
        """Run and check one operation; return (ok, wall_s, cpu_s)."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        code, wall, cpu, err = self.call(self.workload.argv(self.work, self.seed))
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()[-300:]}"]
        if code == 0:
            try:
                found, values = self.workload.check(self.work / "out")
                problems += found
                if self.reference is not None:
                    problems += compare(values, self.reference)
            except Exception as exc:  # unreadable or malformed output fails the operation
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return not problems, wall, cpu

    def loop(self, seconds: float, after=None) -> tuple[list[float], list[float]]:
        """Operations until ``seconds`` of measured wall time (at least MIN_OPS).

        ``after(ok, wall)`` is called after each operation, outside the
        timing. Returns the wall and CPU times of the operations that passed
        the check, or of all operations when none did.
        """
        ops = []
        while sum(wall for _, wall, _ in ops) < seconds or len(ops) < MIN_OPS:
            ops.append(self.operation())
            if after is not None:
                after(*ops[-1][:2])
        kept = [op for op in ops if op[0]] or ops
        return [wall for _, wall, _ in kept], [cpu for _, _, cpu in kept]


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters importing the CLI and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import expmodel.cli as cli; cli.build_parser()"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def tail(values: list[float]) -> str:
    """Highest listed percentile with at least ten samples above it."""
    best = "none (fewer than 10 samples above the median)"
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for p in TAIL_PERCENTILES:
            cut = cuts[p - 1]
            if sum(v > cut for v in values) >= 10:
                best = f"p{p}={cut:.6g}"
    return best


def _peak_mb(runner: Runner) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        runner.operation()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    runner.setup()
    runner.operation()  # warm-up: lazy imports, BLAS threads, page faults
    walls, cpus = runner.loop(seconds)
    peak = _peak_mb(runner)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_mb": peak,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "wall_s": f"median of {len(walls)} ops, tail {tail(walls)}",
        "cpu_s": f"median of {len(cpus)} ops, all threads, tail {tail(cpus)}",
        "peak_mb": "tracemalloc peak of 1 untimed op",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    return metrics, notes


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    runner.setup()
    runner.operation()  # warm-up
    plain, _ = runner.loop(seconds / 2)

    tracer = tracing.Tracer()
    per_op, all_spans = [], []

    def record(ok: bool, wall: float) -> None:
        spans, counts = tracer.take()
        all_spans.append(spans)
        if ok:
            values = dict(counts)
            for name, rec in tracing.summarize(spans).items():
                values.update({f"{name}.{k}": v for k, v in rec.items()})
            values["threads.workers"] = tracing.max_workers(spans)
            values["trace.op_s"] = wall
            per_op.append(values)

    with tracing.installed(tracer):
        traced, _ = runner.loop(seconds / 2, after=record)

    probe = tracing.MemoryProbe()
    tracemalloc.start()
    try:
        with tracing.memory_installed(probe, MEMORY_LAYERS):
            runner.operation()
    finally:
        tracemalloc.stop()

    metrics = {}
    for name, _ in PER_LAYER:
        metrics[name] = statistics.median([v.get(name, 0) for v in per_op]) if per_op else 0.0
    metrics.update(probe.peaks)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    with open(spans_path, "w") as fh:
        for op, spans in enumerate(all_spans):
            for s in spans:
                fh.write(json.dumps({"op": op, "id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "thread": s.thread}) + "\n")
    notes = {name: f"median of {len(per_op)} traced ops" + (", computed" if name in COMPUTED else "")
             for name, _ in PER_LAYER}
    notes.update({name: "1 untimed op under tracemalloc" for name in MEMORY_LAYERS})
    notes["trace.overhead_s"] = f"traced minus untraced median ({len(traced)} vs {len(plain)} ops)"
    if tracer.missing:
        print(f"# not traced (attribute absent): {', '.join(tracer.missing)}")
    return metrics, notes


def run_workload(expmodel, name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    program_seed = seed % 2**31
    reference = load_references().get(name, {}).get(str(program_seed))
    runner = Runner(expmodel, workload, WORK / f"{name}-{os.getpid()}", program_seed, reference)
    print(f"# env {json.dumps(environment(expmodel, seed, program_seed), sort_keys=True)}")
    try:
        if traced:
            units = dict(PER_LAYER)
            metrics, notes = per_layer(runner, seconds, WORK / f"spans-{name}-seed{program_seed}.jsonl")
        else:
            units = dict(END_TO_END)
            metrics, notes = end_to_end(runner, seconds)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    checked = "reference + identities" if reference is not None else "identities only"
    print(f"# {name}: {runner.attempted} ops, {runner.failed} failed (ops_failed = "
          f"{runner.failed / max(runner.attempted, 1):.4g}), output check: {checked}")
    for problem in runner.problems[:20]:
        print(f"# FAILED {name}: {problem}")
    for metric, value in metrics.items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}  ({notes[metric]})")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    expmodel = _import_program()
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(expmodel, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
