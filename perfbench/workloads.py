"""Seeded inputs for the four benchmark workloads, as `subnyq` CLI sweeps.

Each workload is one sweep: a list of CLI invocations run in turn through
`subnyq.cli.main`, each writing one CSV.  The seed sets spectral levels and
the noise floor only.  Breakpoints, fs grids, P and filter supports are
fixed, so cell and translate counts are the same for every seed and cost
does not drift with it.  `figures` ignores the seed: it runs the paper's
fixed built-in sweeps.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from subnyq.cli import BIMODAL_SEGMENTS, FIGURES

DEFAULT_SEED = 0
WORKLOADS = ("figures", "bounds", "bank", "staircase")

# Canonical noise floor at the default seed; other seeds draw from a range
# that keeps every curve well away from zero.
NOISE_FLOOR = 0.05
NOISE_RANGE = (0.02, 0.1)
LEVEL_SCALE = (0.5, 1.5)

# One-sided, complex-gain branches: the three gain vectors are linearly
# independent where three translates overlap, so the P x P observation
# matrices have full rank there (three identical all-pass branches would
# give rank one everywhere).
BANK_FILTERS = [
    [[-1.6, 1.6, 1.0, 0.0]],
    [[-1.6, 0.0, 1.0, 0.0], [0.0, 1.6, 0.0, 1.0]],
    [[-1.6, -0.8, 0.5, 0.5], [-0.8, 0.8, 1.0, -1.0], [0.8, 1.6, 0.0, 2.0]],
]

STAIRCASE_STEPS = 128
STAIRCASE_WIDTH = 0.01

# Each config workload sweeps two sampling rates: one far below the Nyquist
# rate (many translates per cell) and one near it.  A sweep then takes one to
# four seconds, so a run holds enough sweeps for a steady median.
BOUNDS_FS = [0.32, 1.92]  # multiples of 0.16; Nyquist rate 3.2
BANK_FS = [0.48, 1.92]  # multiples of 0.24: fs/3 is a multiple of 0.08
STAIRCASE_FS = [0.32, 1.92]  # multiples of 0.16; Nyquist rate 2.56


@dataclass(frozen=True)
class Job:
    """One CLI call of a sweep and the CSV it writes."""

    argv: tuple
    out_path: str
    key: str  # reference file name, relative to the reference directory


@dataclass(frozen=True)
class Sweep:
    name: str
    seed: int
    mode: str | None  # CLI mode; None for the built-in figures
    config: dict | None
    config_path: str | None
    jobs: tuple

    @property
    def sigma2(self) -> float:
        """Source power, 2 * sum(width * level) over the even density."""
        segs = self.config["source"]["segments"]
        return 2.0 * sum((hi - lo) * v for lo, hi, v in segs)


def _noise(rng: random.Random, seed: int, top: float) -> dict:
    level = NOISE_FLOOR if seed == DEFAULT_SEED else rng.uniform(*NOISE_RANGE)
    return {"segments": [[0.0, top, level]]}


def _bimodal(rng: random.Random, seed: int) -> list[list[float]]:
    segs = []
    for lo, hi, v in BIMODAL_SEGMENTS:
        if seed != DEFAULT_SEED:
            v *= rng.uniform(*LEVEL_SCALE)
        segs.append([lo, hi, v])
    return segs


def _staircase(rng: random.Random, seed: int) -> list[list[float]]:
    segs = []
    for i in range(STAIRCASE_STEPS):
        v = 1.0 - i / STAIRCASE_STEPS
        if seed != DEFAULT_SEED:
            v = rng.uniform(0.05, 1.0)
        segs.append([round(i * STAIRCASE_WIDTH, 10),
                     round((i + 1) * STAIRCASE_WIDTH, 10), v])
    return segs


def config_for(name: str, seed: int) -> tuple[str, dict]:
    """CLI mode and JSON config of a config-driven workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "bounds":
        # 2 fs x 6 rates: many rates per fs, so per-row curve rebuilds show.
        source = _bimodal(rng, seed)
        return "bounds", {
            "schema_version": 1,
            "source": {"segments": source},
            "noise": _noise(rng, seed, 1.6),
            "sampler": {"fs": BOUNDS_FS, "P": 1},
            "rates": {"values": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]},
        }
    if name == "bank":
        # 2 fs x 3 rates on a P=3 bank; every sweep frequency is
        # commensurate with the bimodal breakpoints.
        source = _bimodal(rng, seed)
        return "drf", {
            "schema_version": 1,
            "source": {"segments": source},
            "noise": _noise(rng, seed, 1.6),
            "sampler": {"fs": BANK_FS, "P": 3, "filters": BANK_FILTERS},
            "rates": {"values": [0.5, 1.0, 2.0]},
        }
    if name == "staircase":
        # 128 segments, 2 fs x 3 rates, time-domain oracles at K=32.
        source = _staircase(rng, seed)
        return "oracle-check", {
            "schema_version": 1,
            "source": {"segments": source},
            "noise": _noise(rng, seed, STAIRCASE_STEPS * STAIRCASE_WIDTH),
            "sampler": {"fs": STAIRCASE_FS, "P": 1},
            "rates": {"values": [0.5, 1.0, 2.0]},
            "oracle": {"K": 32, "phases": 8},
        }
    raise ValueError(f"unknown workload {name!r}")


def make_sweep(name: str, seed: int, workdir: str, extra_args=()) -> Sweep:
    """Write the workload's inputs under workdir and return its sweep."""
    os.makedirs(workdir, exist_ok=True)
    if name == "figures":
        out_dir = os.path.join(workdir, "figures")
        jobs = tuple(
            Job(("figure", "--figure", fig, "--out", out_dir, *extra_args),
                os.path.join(out_dir, f"{fig}.csv"), f"figures/{fig}.csv")
            for fig in FIGURES
        )
        return Sweep(name, seed, None, None, None, jobs)
    mode, doc = config_for(name, seed)
    cfg_path = os.path.join(workdir, f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    out = os.path.join(workdir, f"{name}.csv")
    job = Job((mode, "--config", cfg_path, "--out", out, *extra_args),
              out, f"{name}.csv")
    return Sweep(name, seed, mode, doc, cfg_path, (job,))
