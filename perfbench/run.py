#!/usr/bin/env python3
"""Sweep benchmark for subnyq: times CLI sweeps and checks their output.

Run from the repository root:

    python3 perfbench/run.py --workload bounds --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # table of all four

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced sweeps and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Metric
names and units are those of BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Setup is timed in three batches, before the first sweep, after it and after
# the last, so a few seconds of machine noise cannot move every sample.
SETUP_BATCH = 3
SETUP_TIMEOUT_S = 60
# What a user pays on every CLI call before any sweep work: interpreter-side
# import of the CLI (numpy included) and parsing the workload's config.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import subnyq.cli
if len(sys.argv) > 1:
    subnyq.cli.load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""
THREAD_VARS = ("OPENBLAS_", "OMP_")
# CPUs this process may use before pin_to_one_cpu() narrows them.
NPROC = len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUBNYQ_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def pin_to_one_cpu() -> None:
    """Run the benchmark, its pool threads and its children on one CPU.

    The CLI pool keeps its default size, os.cpu_count().  On a VM that shares
    its host, pool threads spread over two vCPUs hand the GIL to a vCPU that
    is often idle, and waking it takes as long as the host's load dictates.
    Sweeps then took 30-55% longer and their run-to-run spread was about three
    times wider (bounds: 0.39 of the median against 0.13 on one CPU).  Call
    this before numpy is imported, so BLAS threads are pinned too.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(cli) -> dict:
    """Machine and build facts that the timings depend on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    thread_count = getattr(cli, "_thread_count", None)
    return {
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "cli_pool_size": thread_count() if callable(thread_count) else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_VARS)},
    }


def measure_setup(cfg_path: str | None, repeats: int) -> list[float]:
    """In-process times of fresh interpreters doing import + load_config."""
    cmd = [sys.executable, "-c", SETUP_CHILD] + ([cfg_path] if cfg_path else [])
    times = []
    for _ in range(repeats):
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_sweep(cli, sweep, tracer=None) -> tuple[float, list[int]]:
    """Run each CLI call of the sweep in turn: (wall seconds, exit codes)."""
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for job in sweep.jobs:
            try:
                code = cli.main(list(job.argv))
            except SystemExit as e:  # argparse rejected the arguments
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # a crash fails this call's rows; keep measuring
                traceback.print_exc()
                code = 1
            codes.append(code)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, codes


class Tally:
    """Rows attempted and failed over every sweep of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def checked_sweep(self, gate, cli, sweep, tracer=None):
        """One sweep, computed, written and checked: (wall, cpu, cli wall)."""
        c0, t0 = time.process_time(), time.perf_counter()
        cli_wall, codes = run_sweep(cli, sweep, tracer)
        attempted, failed = gate.check_sweep(sweep, codes)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.attempted += attempted
        self.failed += failed
        return wall, cpu, cli_wall


def _keep_going(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another sweep only if a typical one still ends within the run."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def end_to_end(cli, gate, sweep, seconds, tally, notes) -> dict:
    cfg_path = sweep.config_path
    measure_setup(cfg_path, 1)  # unrecorded: leaves the bytecode cache warm
    setups = measure_setup(cfg_path, SETUP_BATCH)
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu, _ = tally.checked_sweep(gate, cli, sweep)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:
            setups += measure_setup(cfg_path, SETUP_BATCH)
        if not _keep_going(start, seconds, walls):
            break
    setups += measure_setup(cfg_path, SETUP_BATCH)
    notes.append(f"sweep walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    notes.append(f"setup times (s): {' '.join(f'{t:.3f}' for t in setups)}")
    notes.append(f"output sha256 (information only): {gate.output_digest(sweep)}")
    return {
        "sweep_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(cli, gate, sweep, seconds, tally, notes) -> tuple[dict, bool]:
    from tracer import Tracer, summarize

    plain, traced, samples = [], [], []
    counts = None
    consistent = True
    start = time.perf_counter()
    while True:
        wall, _, _ = tally.checked_sweep(gate, cli, sweep)
        plain.append(wall)
        tracer = Tracer()
        wall_t, _, cli_wall = tally.checked_sweep(gate, cli, sweep, tracer)
        traced.append(wall_t)
        c, values = summarize(tracer, cli_wall)
        samples.append(values)
        if counts is not None and c != counts:
            consistent = False
            notes.append("traced counts differ between traced sweeps")
        counts = c
        if not _keep_going(start, seconds, [p + t for p, t in zip(plain, traced)]):
            break
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(WORK, f"trace-{sweep.name}.jsonl")
    tracer.write(trace_path)
    notes.append(f"traced sweeps: {len(traced)}; spans of the last one in {trace_path}")
    metrics = dict(counts)
    for key in samples[0]:
        metrics[key] = statistics.median(s[key] for s in samples)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, consistent


def run_one(args, spec: dict) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from subnyq import cli

    import gate
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    notes = [f"environment: {json.dumps(environment(cli), sort_keys=True)}"]
    tally = Tally()
    try:
        sweep = workloads.make_sweep(args.workload, args.seed, workdir)
        if args.trace:
            values, correct = per_layer(cli, gate, sweep, args.seconds, tally, notes)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(cli, gate, sweep, args.seconds, tally, notes)
            correct = True
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<44} {fail_frac:>16.6g} share "
          f"({tally.failed} of {tally.attempted} rows)")
    return {"correct": correct and tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args, spec: dict) -> dict:
    """Every workload in a fresh process of its own, then one table."""
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=600)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {out.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    metric_names = list(next(iter(results.values()))["metrics"])
    print("\n" + f"{'metric':<44}" + "".join(f"{n:>14}" for n in names) + "  unit")
    for m in metric_names:
        unit = results[names[0]]["metrics"][m]["unit"]
        print(f"{m:<44}" + "".join(f"{results[n]['metrics'][m]['value']:>14.6g}"
                                   for n in names) + f"  {unit}")
    print(f"{'fail_frac':<44}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>14.6g}" for n in names)
        + "  share")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subnyq", "cli.py")):
        print(f"error: no subnyq sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(BENCHMARK_JSON):
        print(f"error: {BENCHMARK_JSON} not found", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.environ.pop("SUBNYQ_THREADS", None)  # measure the pool users get by default
    pin_to_one_cpu()
    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
