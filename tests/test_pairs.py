"""tools/pairs.py, run on this tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def pairs(tmp_path, parent):
    """Two rounds of bank, each side spawned first once and going first once."""
    out = tmp_path / "pairs.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--parent", parent, "--change",
         str(ROOT), "--workload", "bank", "--rounds", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert json.loads(done.stdout.splitlines()[-1]) == report
    assert len(report["environment"]["cpus_used"]) == 1
    (run,) = report["in_process_pairs"]["runs"]
    assert (run["workload"], run["rounds"], run["sweeps_per_round"]) == ("bank", 2, 40)
    assert run["halves"] == [{"first_spawned": "parent", "rounds": 1},
                             {"first_spawned": "change", "rounds": 1}]
    assert 0 <= run["change_better_rounds"] <= 2
    for side in ("parent", "change"):
        times = run[side]
        assert 0 < times["min_ms"] <= times["p10_ms"] <= times["median_ms"]
        assert times["cpu_median_ms"] > 0
    return report


def test_tree_against_itself(tmp_path):
    # both trees given as folders, so no git archive is made
    report = pairs(tmp_path, str(ROOT))
    assert report["parent"]["src_sha256"] == report["change"]["src_sha256"]


def test_parent_from_git_archive(tmp_path):
    # the parent is this checkout's HEAD, extracted with git archive
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    report = pairs(tmp_path, "HEAD")
    assert report["parent"]["rev"] == head
