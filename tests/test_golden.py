"""Golden values: oracle-check rows as an earlier tree computed them.

Every curve here is exact, so a simpler or faster algorithm has to give the
same numbers; golden_oracle_check.json holds them at full precision.  The
cases are the 128-segment staircase at three seeded level draws (K = 32, 8
phases), and the first draw at K = 5 with 3 and 5 phases, where the lags
j/phases round.  Each value is checked to 1e-12 relative.

    PYTHONPATH=src python3 tests/test_golden.py   # rewrites the data file

Rewrite it only from a tree whose values are the spec.
"""

import json
import random
from pathlib import Path

import numpy as np
import pytest

from subnyq.cli import _sweep, load_config

GOLDEN = Path(__file__).with_name("golden_oracle_check.json")
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


def oracle_check_rows(tmp_path: Path, case: str) -> list[list[float]]:
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(staircase_config(*CASES[case])))
    cfg = load_config(str(path))
    _, at_fs, rates = _sweep("oracle-check", cfg)
    return [[float(v) for v in row] for fs in cfg.fs_list
            for rows_at in (at_fs(fs),) for R in rates for row in rows_at(R)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_oracle_check_matches_golden(tmp_path, case):
    want = json.loads(GOLDEN.read_text())[case]
    got = oracle_check_rows(tmp_path, case)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = {case: oracle_check_rows(Path(tmp), case) for case in sorted(CASES)}
    # one row a line; json writes each float as its repr, which reads back exactly
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(case)}: [\n" + ",\n".join(f" {json.dumps(r)}" for r in case_rows) + "\n]"
        for case, case_rows in rows.items()) + "\n}\n")
