"""Golden values: sweep rows as an earlier tree computed them.

Every curve here is exact, so a simpler or faster algorithm has to give the
same numbers; the data files hold them at full precision.

golden_oracle_check.json: the 128-segment staircase at three seeded level
draws (K = 32, 8 phases), and the first draw at K = 5 with 3 and 5 phases,
where the lags j/phases round.  Each value is checked to 1e-12 relative.

golden_sweeps.json: the benchmark's four workloads at seeds 0-2 (built here
from the same seeded draws), the six built-in figures, and every mode at
P = 1-3 on the bimodal source, noiseless and with a 0.05 noise floor, over
a dozen fs in 0.08-4.0 through the Nyquist rate 3.2.  Each number is checked
to 1e-12 times the larger of its size and the source power, as an MMSE whose
exact value is 0 has no relative tolerance; text columns must match.

    PYTHONPATH=src python3 tests/test_golden.py   # rewrites both data files

Rewrite them only from a tree whose values are the spec.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from subnyq.cli import BIMODAL_SEGMENTS, FIGURES, _figure_rows, _sweep, load_config

GOLDEN = Path(__file__).with_name("golden_oracle_check.json")
GOLDEN_SWEEPS = Path(__file__).with_name("golden_sweeps.json")
STEPS, WIDTH = 128, 0.01


def staircase_config(seed: int, K: int, phases: int) -> dict:
    """128 contiguous segments of width 0.01 with levels drawn in
    [0.05, 1), a flat noise floor over them, 2 fs x 3 rates."""
    rng = random.Random(f"golden-staircase:{seed}")
    segs = [[round(i * WIDTH, 10), round((i + 1) * WIDTH, 10), rng.uniform(0.05, 1.0)]
            for i in range(STEPS)]
    return {
        "schema_version": 1,
        "source": {"segments": segs},
        "noise": {"segments": [[0.0, STEPS * WIDTH, rng.uniform(0.02, 0.1)]]},
        "sampler": {"fs": [0.32, 1.92], "P": 1},
        "rates": {"values": [0.5, 1.0, 2.0]},
        "oracle": {"K": K, "phases": phases},
    }


CASES = {f"seed{seed}-K32-P8": (seed, 32, 8) for seed in range(3)}
CASES.update({f"seed0-K5-P{phases}": (0, 5, phases) for phases in (3, 5)})


def config_rows(tmp_path: Path, name: str, doc: dict, mode: str) -> list[list]:
    """Every row of the CLI sweep of doc in mode, in sweep order."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return list(_sweep(mode, load_config(str(path)))[1])


def oracle_check_rows(tmp_path: Path, case: str) -> list[list[float]]:
    rows = config_rows(tmp_path, case, staircase_config(*CASES[case]), "oracle-check")
    return [[float(v) for v in row] for row in rows]


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_check_matches_golden(tmp_path, case):
    want = json.loads(GOLDEN.read_text())[case]
    got = oracle_check_rows(tmp_path, case)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# The benchmark's workloads: the seed scales the bimodal levels and draws the
# noise floor (seed 0 keeps the levels and a 0.05 floor), or draws the
# staircase's levels (seed 0 steps them down from 1).
BANK_FILTERS = [
    [[-1.6, 1.6, 1.0, 0.0]],
    [[-1.6, 0.0, 1.0, 0.0], [0.0, 1.6, 0.0, 1.0]],
    [[-1.6, -0.8, 0.5, 0.5], [-0.8, 0.8, 1.0, -1.0], [0.8, 1.6, 0.0, 2.0]],
]


def workload_config(name: str, seed: int) -> tuple[str, dict]:
    """(mode, config) of the bounds, bank or staircase workload at seed."""
    rng = random.Random(f"{name}:{seed}")

    def noise(top):
        return {"segments": [[0.0, top, 0.05 if seed == 0 else rng.uniform(0.02, 0.1)]]}

    if name == "staircase":
        source = [[round(i * WIDTH, 10), round((i + 1) * WIDTH, 10),
                   1.0 - i / STEPS if seed == 0 else rng.uniform(0.05, 1.0)]
                  for i in range(STEPS)]
        return "oracle-check", {
            "schema_version": 1, "source": {"segments": source}, "noise": noise(STEPS * WIDTH),
            "sampler": {"fs": [0.32, 1.92], "P": 1}, "rates": {"values": [0.5, 1.0, 2.0]},
            "oracle": {"K": 32, "phases": 8}}
    source = [[lo, hi, v if seed == 0 else v * rng.uniform(0.5, 1.5)]
              for lo, hi, v in BIMODAL_SEGMENTS]
    doc = {"schema_version": 1, "source": {"segments": source}, "noise": noise(1.6)}
    if name == "bounds":
        return "bounds", {**doc, "sampler": {"fs": [0.32, 1.92], "P": 1},
                          "rates": {"values": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]}}
    return "drf", {**doc, "sampler": {"fs": [0.48, 1.92], "P": 3, "filters": BANK_FILTERS},
                   "rates": {"values": [0.5, 1.0, 2.0]}}


# Every mode on the bimodal source, through its Nyquist rate 3.2
MODE_FS = [0.08, 0.24, 0.5, 0.72, 0.96, 1.28, 1.6, 1.92, 2.5, 3.2, 3.28, 4.0]
MODES = [("mmse", None), ("mmse", "optimal"), ("drf", None), ("drf-optimal", None),
         ("d-dagger", None), ("bounds", None), ("af-sets", None)]


def mode_config(P: int, filters, noise: float) -> dict:
    return {
        "schema_version": 1,
        "source": {"segments": [list(s) for s in BIMODAL_SEGMENTS]},
        "noise": {"segments": [[0.0, 1.6, noise]] if noise else []},
        "sampler": {"fs": MODE_FS, "P": P, "filters": filters or "allpass"},
        "rates": {"values": [0.0, 0.5, 2.0]},
    }


def sweep_cases() -> dict:
    """name -> (source power, rows()), where rows(tmp_path) computes the rows."""
    bimodal = 2.0 * sum((hi - lo) * v for lo, hi, v in BIMODAL_SEGMENTS)
    cases = {}
    for name in ("bounds", "bank", "staircase"):
        for seed in range(3):
            mode, doc = workload_config(name, seed)
            power = 2.0 * sum((hi - lo) * v for lo, hi, v in doc["source"]["segments"])
            cases[f"{name}-seed{seed}"] = (power, lambda tmp, c=f"{name}-{seed}", m=mode, d=doc:
                                           config_rows(tmp, c, d, m))
    for fig in FIGURES:
        power = {"rect": 1.0, "nonmonotone": 1.0}.get(fig, bimodal)
        cases[f"figure-{fig}"] = (power, lambda tmp, f=fig: _figure_rows(f)[1])
    for mode, filters in MODES:
        for P in ((1,) if mode == "bounds" else (1, 2, 3)):
            for noise in (0.0, 0.05):
                name = f"{mode}{'-optimal' if filters else ''}-P{P}-noise{noise}"
                doc = mode_config(P, filters, noise)
                cases[name] = (bimodal, lambda tmp, c=name, m=mode, d=doc:
                               config_rows(tmp, c, d, m))
    return cases


SWEEP_CASES = sweep_cases()


def plain(rows) -> list[list]:
    """rows with every number a Python int or float, as JSON holds them."""
    return [[v if isinstance(v, (str, int)) else float(v) for v in row] for row in rows]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_golden(tmp_path, case):
    sigma2, rows = SWEEP_CASES[case]
    want = json.loads(GOLDEN_SWEEPS.read_text())[case]
    got = plain(rows(tmp_path))
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            if isinstance(w, str):
                assert g == w, (got_row, want_row)
            else:
                assert abs(g - w) <= 1e-12 * max(abs(w), sigma2), (got_row, want_row)


def write_golden(path: Path, rows: dict) -> None:
    # one row a line; json writes each float as its repr, which reads back exactly
    path.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: [\n" + ",\n".join(f" {json.dumps(r)}" for r in case_rows) + "\n]"
        for case, case_rows in rows.items()) + "\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(GOLDEN, {case: oracle_check_rows(Path(tmp), case) for case in sorted(CASES)})
        write_golden(GOLDEN_SWEEPS, {case: plain(SWEEP_CASES[case][1](Path(tmp)))
                                     for case in sorted(SWEEP_CASES)})
