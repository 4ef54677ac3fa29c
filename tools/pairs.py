#!/usr/bin/env python3
"""Paired in-process timing of two source trees on the perfbench workloads.

Run from the repository root:

    python3 tools/pairs.py --parent HEAD~1 --workload bounds figures --out BENCH_n.json
    python3 tools/pairs.py --parent ../other-tree --change . --workload bank --rounds 2

The parent is a git revision, whose src/ is extracted with `git archive` into
a temporary folder, or a folder holding a tree; the change is a folder, this
checkout by default.  Each side gets a long-lived worker process that pins
itself, and only itself, to one CPU with `perfbench/run.py`'s
`pin_to_one_cpu` (the same CPU for both, as they never run at once), imports
its tree's `subnyq` and this checkout's `perfbench/run.py` and
`perfbench/workloads.py`, read-only, and runs a workload's sweeps through
`subnyq.cli.main` with `run_sweep`, as `perfbench/run.py` does.  Rounds
alternate between the two workers, each running the workload's `SWEEPS`
sweeps, and which side goes first alternates from round to round, so both
sides see the same drift of the machine.  Each workload's rounds run in two
halves on fresh workers, the parent's spawned first in one and the change's
in the other, so that neither side gains from being spawned first.

Per workload and side, the report gives the min, the 10th percentile and the
median wall time per sweep, the median CPU time per sweep, and the number of
rounds whose median sweep was lower at the change.  With `--out` it is
written as JSON in the `in_process_pairs` layout of BENCH_22.json, with both
revisions and the environment; the last line of standard output is the JSON
either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("figures", "bounds", "bank", "staircase")
SIDES = ("parent", "change")
# sweeps per round, so that a round of each workload takes a few tenths of a
# second on a 2-vCPU VM
SWEEPS = {"figures": 8, "bounds": 40, "bank": 40, "staircase": 20}


def worker(tree: str) -> None:
    """Serve timing requests on stdin, one JSON line each, until it closes.

    A request {"workload", "seed", "sweeps"} runs that many sweeps of the
    workload (after one untimed sweep, the first time it is asked for) and
    answers {"wall": [...], "cpu": [...]} in seconds per sweep, or
    {"error": ...} if a CLI call exits non-zero.  Pinning, the sweep loop and
    the environment are perfbench/run.py's, imported read-only."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    import run as bench

    bench.pin_to_one_cpu()  # before numpy is imported, so BLAS is pinned too
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # the CLI's own output never reaches the protocol
    from subnyq import cli
    import workloads

    def send(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    def sweep_once(sweep):
        c0 = time.process_time()
        wall, codes = bench.run_sweep(cli, sweep)
        cpu_s = time.process_time() - c0
        error = next((f"{job.argv[0]} exited {code}"
                      for job, code in zip(sweep.jobs, codes) if code), None)
        return wall, cpu_s, error

    if os.path.commonpath([cli.__file__, tree]) != tree:  # another subnyq came first
        raise RuntimeError(f"subnyq imported from {cli.__file__}, not from {tree}")
    send(bench.environment(cli))
    sweeps = {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        for line in sys.stdin:
            req = json.loads(line)
            key = (req["workload"], req["seed"])
            if key not in sweeps:
                sweeps[key] = workloads.make_sweep(
                    *key, os.path.join(work, f"{req['workload']}-{req['seed']}"))
                error = sweep_once(sweeps[key])[2]  # warm-up, untimed
                if error:
                    send({"error": error})
                    continue
            wall, cpu_s, error = [], [], None
            for _ in range(req["sweeps"]):
                w, c, error = sweep_once(sweeps[key])
                wall.append(w)
                cpu_s.append(c)
                if error:
                    break
            send({"error": error} if error else {"wall": wall, "cpu": cpu_s})


class Worker:
    """One worker process on a tree, and its protocol."""

    def __init__(self, tree: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", tree],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, workload: str, seed: int, sweeps: int) -> dict:
        self.proc.stdin.write(json.dumps(
            {"workload": workload, "seed": seed, "sweeps": sweeps}) + "\n")
        self.proc.stdin.flush()
        answer = self._read()
        if answer.get("error"):
            raise RuntimeError(f"{workload}: {answer['error']}")
        return answer

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def src_digest(tree: str) -> str:
    """sha256 over the paths and contents of the tree's src/**/*.py."""
    h = hashlib.sha256()
    src = os.path.join(tree, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def revision(tree: str) -> dict:
    """The commit a folder is checked out at, and whether its src/ differs from it."""
    try:
        return {"rev": git("rev-parse", "HEAD", cwd=tree),
                "src_modified": bool(git("status", "--porcelain", "--", "src", cwd=tree))}
    except (OSError, subprocess.CalledProcessError):  # not a git checkout
        return {"rev": None}


def ms(x: float) -> float:
    return round(1000.0 * x, 3)


def summary(wall: list, cpu_s: list) -> dict:
    """Per-sweep times in ms; the 10th percentile is taken inclusive, so it
    lies between the min and the median at any sample count."""
    p10 = statistics.quantiles(wall, n=10, method="inclusive")[0]
    return {"min_ms": ms(min(wall)), "p10_ms": ms(p10), "median_ms": ms(statistics.median(wall)),
            "cpu_median_ms": ms(statistics.median(cpu_s))}


def pairs(trees: dict, workload: str, seed: int, rounds: int) -> tuple[dict, dict]:
    """Alternating rounds of one workload on both trees: the run's summary,
    and the environment the last change worker reported.

    The rounds run in two halves, each on a fresh worker per tree: the
    parent's worker is spawned first in the first half and the change's in
    the second, as the worker spawned first can read lower times (seen on
    `bounds`).  Within the run, which side goes first alternates by round."""
    times = {side: ([], []) for side in SIDES}
    better, halves = 0, []
    for half, spawn in enumerate((SIDES, SIDES[::-1])):
        workers = {}
        try:
            for side in spawn:
                workers[side] = Worker(trees[side])
            for r in range(half * rounds // 2, (half + 1) * rounds // 2):
                medians = {}
                for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                    answer = workers[side].run(workload, seed, SWEEPS[workload])
                    times[side][0].extend(answer["wall"])
                    times[side][1].extend(answer["cpu"])
                    medians[side] = statistics.median(answer["wall"])
                better += medians["change"] < medians["parent"]
        finally:
            for w in workers.values():
                w.close()
        halves.append({"first_spawned": spawn[0], "rounds": rounds // 2})
    run = {"workload": workload, "seed": seed, "rounds": rounds,
           "sweeps_per_round": SWEEPS[workload], "halves": halves,
           "change_better_rounds": better,
           **{side: summary(*times[side]) for side in SIDES}}
    return run, workers["change"].hello


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git revision, or a folder holding a tree")
    parser.add_argument("--change", default=ROOT, help="folder holding a tree (default: "
                        "this checkout)")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="JSON file to write the report to")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    if args.rounds < 2 or args.rounds % 2:
        parser.error("--rounds must be even and at least 2, so each side is spawned "
                     "first and goes first equally often")

    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        if os.path.isdir(args.parent):
            parent_tree, parent_rev = os.path.abspath(args.parent), revision(args.parent)
        else:  # a revision of this checkout: its src/ alone, read from git
            archive = os.path.join(tmp, "src.tar")
            git("archive", "--format=tar", "-o", archive, args.parent, "src")
            with tarfile.open(archive) as tar:
                # the "data" filter exists from Python 3.10.12 and 3.11.4 on
                tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                       else {}))
            parent_tree, parent_rev = tmp, {"rev": git("rev-parse", args.parent + "^{commit}")}
        change_tree = os.path.abspath(args.change)
        trees = {"parent": parent_tree, "change": change_tree}
        runs = []
        for name in args.workload:
            run, hello = pairs(trees, name, args.seed, args.rounds)
            runs.append(run)
        report = {
            "what": "tools/pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
            "parent": {**parent_rev, "src_sha256": src_digest(parent_tree)},
            "change": {**revision(change_tree), "src_sha256": src_digest(change_tree)},
            "environment": {**hello, "machine": platform.machine()},
            "in_process_pairs": {
                "what": "per workload, two halves of rounds, each on a fresh long-lived worker "
                        "per tree (first_spawned: the side whose worker was spawned first), "
                        "both pinned to one CPU, each running perfbench/workloads.py's sweeps "
                        "in-process through subnyq.cli.main; the workers alternate rounds of "
                        "sweeps_per_round sweeps, which side goes first alternating; times "
                        "are per sweep (p10 by inclusive quantiles); change_better_rounds "
                        "counts rounds whose median sweep is lower at the change",
                "runs": runs},
        }
    for run in runs:
        p, c = run["parent"], run["change"]
        print(f"{run['workload']:>9}: median {p['median_ms']:.3f} -> {c['median_ms']:.3f} ms, "
              f"p10 {p['p10_ms']:.3f} -> {c['p10_ms']:.3f} ms, min {p['min_ms']:.3f} -> "
              f"{c['min_ms']:.3f} ms; change better in {run['change_better_rounds']}/"
              f"{run['rounds']} rounds", file=sys.stderr)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
