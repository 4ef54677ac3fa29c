#!/usr/bin/env python3
"""Self-tests of the benchmark: its correctness gate and its traced run.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Runs the bounds, bank and staircase sweeps several times (a few minutes on a
2-core machine).  Nothing here is part of a measured run.
"""

from __future__ import annotations

import contextlib
import csv
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run

sys.path.insert(0, run.SRC)

from subnyq import cli, waterfill  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

OTHER_SEED = 7
# Bisection iterations depend on the spectral levels, so these two counts
# may move with the seed; every other count must not.
SEED_DEPENDENT = {"waterfill.rate_evals", "waterfill.rate_evals_per_solve"}


@contextlib.contextmanager
def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def checked(sweep, tracer=None) -> tuple[float, int, int]:
    wall, codes = run.run_sweep(cli, sweep, tracer)
    attempted, failed = gate.check_sweep(sweep, codes)
    return wall, attempted, failed


def traced_counts(name: str, seed: int, where: str) -> dict:
    sweep = workloads.make_sweep(name, seed, os.path.join(where, f"{name}-{seed}"))
    tracer = Tracer()
    wall, attempted, failed = checked(sweep, tracer)
    assert failed == 0, f"{name} seed {seed}: {failed} of {attempted} rows failed"
    counts, _ = summarize(tracer, wall)
    return counts


def exact_theta(curves, R, fs=None) -> float:
    """Closed-form reverse water level: rate_of_theta(theta) == R exactly.

    With the k largest values active, R = (A_k - W_k log2 theta) / 2, where
    W_k and A_k are cumulative sums of w and w log2 v; the active set is the
    first k whose theta is not below the next value.
    """
    R = float(R)
    w, v = curves.pieces() if hasattr(curves, "pieces") else curves
    w, v = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    keep = (w > 0) & (v > 0)
    w, v = w[keep], v[keep]
    if v.size == 0:
        if R > 0:
            raise waterfill.UnattainableRateError("curve is identically zero")
        return 0.0
    order = np.argsort(v)[::-1]
    w, v = w[order], v[order]
    if R == 0:
        return float(v[0])
    log_theta = (np.cumsum(w * np.log2(v)) - 2.0 * R) / np.cumsum(w)
    next_log_v = np.append(np.log2(v[1:]), -np.inf)
    k = int(np.argmax(log_theta >= next_log_v))
    return float(2.0 ** log_theta[k])


def _numeric_cells(path):
    """Rows of a CSV and the (row, column) of every finite value whose 1e-6
    relative change exceeds the gate's absolute floor."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cells = []
    for i, row in enumerate(rows[1:], start=1):
        for j, text in enumerate(row):
            x = gate._number(text)
            if x is not None and 10 * gate.ATOL < 1e-6 * abs(x) < float("inf"):
                cells.append((i, j))
    return rows, cells


def _write(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _check_file(sweep, job, path) -> int:
    os.makedirs(os.path.dirname(job.out_path), exist_ok=True)
    shutil.copyfile(path, job.out_path)
    return gate.check_job(sweep, job, 0)[1]


def test_gate_accepts_bank_at_grid_16():
    with workdir() as where:
        sweep = workloads.make_sweep("bank", workloads.DEFAULT_SEED, where,
                                     extra_args=("--grid", "16"))
        _, attempted, failed = checked(sweep)
        rows = len(workloads.BANK_FS) * len(sweep.config["rates"]["values"])
        assert attempted == rows and failed == 0, f"{failed} of {attempted} rows rejected"


def test_gate_accepts_closed_form_water_level():
    """An exact water level in place of bisection must pass the gate."""
    original = waterfill.solve_theta_for_rate
    waterfill.solve_theta_for_rate = exact_theta
    try:
        with workdir() as where:
            for name in ("bounds", "bank"):
                sweep = workloads.make_sweep(name, workloads.DEFAULT_SEED, where)
                _, attempted, failed = checked(sweep)
                assert failed == 0, f"{name}: {failed} of {attempted} rows rejected"
                _, ref = gate.read_csv(os.path.join(gate.REFERENCE_DIR, sweep.jobs[0].key))
                _, out = gate.read_csv(sweep.jobs[0].out_path)
                moved = max(abs(float(o) - float(r)) / max(abs(float(r)), gate.ATOL)
                            for ro, rr in zip(out, ref) for o, r in zip(ro, rr))
                print(f"  {name}: closed form moves values by up to {moved:.2e} relative")
                assert moved > 0, f"{name}: closed form changed nothing"
    finally:
        waterfill.solve_theta_for_rate = original


def test_gate_rejects_one_value_off_by_1e_6():
    """Every reference file: 1e-6 on any one value fails exactly one row;
    up to 1e-9 on every value fails none."""
    rng = np.random.default_rng(0)
    with workdir() as where:
        for name in workloads.WORKLOADS:
            sweep = workloads.make_sweep(name, workloads.DEFAULT_SEED, where)
            for job in sweep.jobs:
                rows, cells = _numeric_cells(os.path.join(gate.REFERENCE_DIR, job.key))
                scratch = os.path.join(where, "perturbed.csv")
                # one factor per row keeps each row's invariants, as a more
                # precise solver would
                small = [list(r) for r in rows]
                factors = 1 + 1e-9 * rng.uniform(-1, 1, size=len(rows))
                for i, j in cells:
                    small[i][j] = repr(float(rows[i][j]) * float(factors[i]))
                _write(scratch, small)
                assert _check_file(sweep, job, scratch) == 0, job.key
                picks = rng.choice(len(cells), size=min(25, len(cells)), replace=False)
                for pick in picks:
                    i, j = cells[pick]
                    bad = [list(r) for r in rows]
                    bad[i][j] = repr(float(rows[i][j]) * (1 + 1e-6))
                    _write(scratch, bad)
                    assert _check_file(sweep, job, scratch) == 1, (job.key, i, j)


def test_traced_counts_repeat_under_the_pool():
    """bank runs the CLI pool and the eigen pool inside it: 12k inv_sqrt_psd
    calls on four threads.  Two traced runs must count exactly the same."""
    with workdir() as where:
        first = traced_counts("bank", workloads.DEFAULT_SEED, where)
        second = traced_counts("bank", workloads.DEFAULT_SEED, where)
    assert first == second
    assert first["linalg.eigh.calls"] == 2 * first["sampling.eigen_curves_multi.cells"]


def test_counts_do_not_depend_on_seed():
    with workdir() as where:
        for name in workloads.WORKLOADS:
            base = traced_counts(name, workloads.DEFAULT_SEED, where)
            other = traced_counts(name, OTHER_SEED, where)
            differ = {k for k in base if base[k] != other[k]} - SEED_DEPENDENT
            assert not differ, f"{name}: {sorted(differ)} move with the seed"


def test_refuses_to_run_without_the_program():
    """With only BENCHMARK.json and perfbench/, exit non-zero, print no result."""
    with workdir() as where:
        shutil.copyfile(run.BENCHMARK_JSON, os.path.join(where, "BENCHMARK.json"))
        shutil.copytree(run.HERE, os.path.join(where, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "{" not in out.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print(f"FAIL {name}: {e}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
