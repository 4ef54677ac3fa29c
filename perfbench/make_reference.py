#!/usr/bin/env python3
"""Regenerate the committed reference outputs and the recorded environment.

    python3 perfbench/make_reference.py

Runs every workload once at the default seed and copies its CSVs into
perfbench/reference/, then writes perfbench/environment.json.  Only do this
when the reference itself must change, and say why in the commit: the gate
compares every later run against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

from subnyq import cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.environ.pop("SUBNYQ_THREADS", None)
    run.pin_to_one_cpu()  # record the environment that measured runs see
    workdir = os.path.join(run.WORK, "reference")
    try:
        for name in workloads.WORKLOADS:
            sweep = workloads.make_sweep(name, workloads.DEFAULT_SEED, workdir)
            wall, codes = run.run_sweep(cli, sweep)
            if any(codes):
                print(f"{name}: CLI exit codes {codes}", file=sys.stderr)
                return 1
            for job in sweep.jobs:
                dest = os.path.join(gate.REFERENCE_DIR, job.key)
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                shutil.copyfile(job.out_path, dest)
            print(f"{name}: {wall:.2f} s, {len(sweep.jobs)} file(s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "environment.json"), "w") as fh:
        json.dump(run.environment(cli), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
