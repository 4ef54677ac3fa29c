"""Correctness gate for one sweep's CSV outputs.

A row fails when it is missing, holds a NaN or a non-number where a number
belongs, breaks an invariant, or (at the default seed, and always for the
built-in figures) is off the committed reference.  A CLI call that exits
non-zero fails every row it should have written.

Reference tolerance: |out - ref| <= max(RTOL * |ref|, ATOL).  RTOL admits
an exact closed-form water level in place of bisection, which stops at a
rate residual of 1e-9 * R: that moves values, water levels included, by up
to ~1e-9 relative.  It rejects a 1e-6 relative change.  ATOL absorbs
round-off on values that are exactly zero in theory.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

from workloads import DEFAULT_SEED, Sweep

RTOL = 1e-7
ATOL = 1e-12
# Slack for the invariants, relative to max(1, sigma^2); the CLI tests use
# the same 1e-6 for the bounds ordering.
ORDER_TOL = 1e-6
DECOMP_TOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

BOUNDS_BELOW_DRF = ("idrf_stationary", "mmse", "d_star_lower",
                    "polyphase_lower", "d_dagger")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _number(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return None if math.isnan(x) else x


def value_matches(out: str, ref: str) -> bool:
    """Numeric cells agree within tolerance; other cells agree exactly."""
    r = _number(ref)
    if r is None or math.isinf(r):
        return out == ref
    o = _number(out)
    return o is not None and abs(o - r) <= max(RTOL * abs(r), ATOL)


def row_matches(out: list[str], ref: list[str]) -> bool:
    return len(out) == len(ref) and all(map(value_matches, out, ref))


def _row_invariants(mode: str, row: dict, sigma2: float) -> bool:
    """Checks that hold at every seed: ordering, decomposition and range."""
    vals = {k: _number(v) for k, v in row.items() if k != "P"}
    if any(v is None for v in vals.values()):
        return False
    tol = ORDER_TOL * max(1.0, sigma2)
    in_range = lambda x: -tol <= x <= sigma2 + tol
    if mode == "bounds":
        d = vals["drf_sampled"]
        return in_range(d) and all(vals[k] <= d + tol for k in BOUNDS_BELOW_DRF)
    if mode == "drf":
        d = vals["distortion"]
        gap = abs(d - vals["mmse_part"] - vals["lossy_part"])
        return (in_range(d) and gap <= DECOMP_TOL * max(1.0, sigma2)
                and vals["mmse_part"] <= d + tol and vals["theta"] >= 0.0)
    if mode == "oracle-check":
        return (all(in_range(vals[k]) for k in
                    ("mmse_exact", "mmse_window", "drf_exact", "drf_block"))
                and vals["mmse_exact"] <= vals["drf_exact"] + tol)
    raise ValueError(f"no invariants for mode {mode!r}")


def _expected_grid(sweep: Sweep) -> list[tuple[float, float]]:
    """(fs, rate) of every row, in output order, from the workload config."""
    cfg = sweep.config
    return [(fs, r) for fs in cfg["sampler"]["fs"] for r in cfg["rates"]["values"]]


def check_job(sweep: Sweep, job, returncode: int) -> tuple[int, int]:
    """(rows attempted, rows failed) for one CLI call of the sweep."""
    ref_header, ref_rows = read_csv(os.path.join(REFERENCE_DIR, job.key))
    if sweep.mode is None:
        attempted = len(ref_rows)
    else:
        attempted = len(_expected_grid(sweep))
    if returncode != 0 or not os.path.exists(job.out_path):
        return attempted, attempted
    header, rows = read_csv(job.out_path)
    if header != ref_header:
        return attempted, attempted
    use_reference = sweep.mode is None or sweep.seed == DEFAULT_SEED
    failed = 0
    if sweep.mode is not None:
        grid = _expected_grid(sweep)
        fs_col = header.index("fs")
        r_col = header.index("rate_bits_per_time")
        sigma2 = sweep.sigma2
    for i in range(attempted):
        if i >= len(rows):
            failed += 1
            continue
        row = rows[i]
        ok = len(row) == len(header)
        if ok and use_reference:
            ok = i < len(ref_rows) and row_matches(row, ref_rows[i])
        if ok and sweep.mode is not None:
            fs, r = grid[i]
            ok = (value_matches(row[fs_col], repr(fs))
                  and value_matches(row[r_col], repr(float(r)))
                  and _row_invariants(sweep.mode, dict(zip(header, row)), sigma2))
        failed += not ok
    failed += max(0, len(rows) - attempted)  # rows nobody asked for
    return attempted, min(failed, attempted)


def check_sweep(sweep: Sweep, returncodes) -> tuple[int, int]:
    attempted = failed = 0
    for job, rc in zip(sweep.jobs, returncodes):
        a, f = check_job(sweep, job, rc)
        attempted += a
        failed += f
    return attempted, failed


def output_digest(sweep: Sweep) -> str:
    """sha256 over the sweep's output files; recorded for information only."""
    h = hashlib.sha256()
    for job in sweep.jobs:
        try:
            with open(job.out_path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()
