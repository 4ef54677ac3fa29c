import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import subnyq
from subnyq import cli, oracle, sampling, spectra, waterfill
from subnyq.cli import BIMODAL_SEGMENTS, load_config, main, reproduce_figure, run
from subnyq.cli import FIGURES, MODES, ConfigError, NumericalFailure, _figure_rows, _line
from subnyq.cli import ExperimentConfig, _sweep, _sweep_rows
from subnyq.linalg import LinalgError
from subnyq.oracle import block_idrf_oracle, finite_window_mmse_average
from subnyq.sampling import SamplerSpec, mmse_single
from subnyq.spectra import ComplexGainProfile, SpectralDensity, SpectrumError
from subnyq.waterfill import BITS_PER_SAMPLE, BITS_PER_TIME, RateSpec, WaterfillError
from support import block_count_loop, figure_rows_loop, sweep_rows_loop

RECT_CONFIG = {
    "schema_version": 1,
    "source": {"segments": [[0.0, 0.5, 1.0]]},
    "sampler": {"fs": [0.5], "P": 1},
    "rates": {"values": [1.0]},
}

# the bimodal source of the figures under a 0.05 noise floor, and a P=3 bank
# of one-sided complex branches that has full rank where three translates meet
BIMODAL_CONFIG = {
    "schema_version": 1,
    "source": {"segments": [list(seg) for seg in BIMODAL_SEGMENTS]},
    "noise": {"segments": [[0.0, 1.6, 0.05]]},
    "sampler": {"fs": [0.32, 1.92, 0.32], "P": 1},
    "rates": {"values": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0]},
    "oracle": {"K": 4, "phases": 2},
}
BANK_FILTERS = [
    [[-1.6, 1.6, 1.0, 0.0]],
    [[-1.6, 0.0, 1.0, 0.0], [0.0, 1.6, 0.0, 1.0]],
    [[-1.6, -0.8, 0.5, 0.5], [-0.8, 0.8, 1.0, -1.0], [0.8, 1.6, 0.0, 2.0]],
]

BANDPASS_CONFIG = {
    "schema_version": 1,
    "source": {"segments": [[1.0, 2.0, 0.5]]},
    "sampler": {"fs": [2.0], "P": 1},
    "rates": {"values": [1.0]},
}


# Runs cli.main on argv and prints whether concurrent.futures was imported and
# which threads were started on the way.
THREAD_PROBE = """
import json, sys, threading
started = []
_start = threading.Thread.start
def start(self, *args, **kwargs):
    started.append(self.name)
    return _start(self, *args, **kwargs)
threading.Thread.start = start
from subnyq.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "futures": "concurrent.futures" in sys.modules,
                  "started": started, "alive": threading.active_count()}))
"""


def count_calls(monkeypatch, name):
    """Wrap the function called name in every subnyq module that binds it;
    returns the list that each call appends its arguments to."""
    calls = []
    modules = (spectra, sampling, waterfill, oracle, cli)
    real = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path, RECT_CONFIG))
        assert cfg.fs_list == [0.5]
        assert cfg.P == 1
        assert cfg.filters is None
        assert cfg.rates[0].per_time(0.5) == 1.0

    def test_fs_range(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": {"start": 0.2, "stop": 1.0, "step": 0.2}}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.fs_list == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])

    def test_per_sample_unit(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["rates"] = {"values": [2.0], "unit": "bits-per-sample"}
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.rates[0].per_time(0.5) == pytest.approx(1.0)

    def test_branch_filters(self, tmp_path):
        doc = dict(BANDPASS_CONFIG)
        doc["sampler"] = {
            "fs": [2.0], "P": 2,
            "filters": [[[-2.0, -1.0, 1.0]], [[1.0, 2.0, 0.0, 1.0]]],
        }
        cfg = load_config(write_config(tmp_path, doc))
        assert len(cfg.filters) == 2
        assert cfg.filters[1].evaluate(1.5) == 1.0j

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_bad_schema(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["schema_version"] = 2
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_filter_count_mismatch(self, tmp_path):
        doc = dict(BANDPASS_CONFIG)
        doc["sampler"] = {"fs": [2.0], "P": 2, "filters": [[[1.0, 2.0, 1.0]]]}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))


class TestRunModes:
    def test_drf_rect_value(self, tmp_path):
        cfg = write_config(tmp_path, RECT_CONFIG)
        out = str(tmp_path / "out.csv")
        assert run(cfg, "drf", out=out) == 0
        header, rows = read_rows(out)
        assert header[:3] == ["fs", "P", "rate_bits_per_time"]
        row = dict(zip(header, rows[0]))
        assert float(row["distortion"]) == pytest.approx(0.53125, rel=1e-9)
        assert float(row["mmse_part"]) + float(row["lossy_part"]) == pytest.approx(
            float(row["distortion"]), abs=1e-9
        )

    def test_mmse_super_nyquist_zero(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": [1.0]}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out.csv")
        assert run(cfg, "mmse", out=out) == 0
        _, rows = read_rows(out)
        assert float(rows[0][2]) == pytest.approx(0.0, abs=1e-12)

    def test_drf_optimal_not_worse(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": [0.5], "P": 1, "filters": "optimal"}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "opt.csv")
        assert run(cfg, "drf-optimal", out=out) == 0
        _, rows = read_rows(out)
        assert float(rows[0][4]) <= 0.53125 + 1e-9

    def test_d_dagger_p_column(self, tmp_path):
        cfg = write_config(tmp_path, RECT_CONFIG)
        out = str(tmp_path / "dd.csv")
        assert run(cfg, "d-dagger", out=out) == 0
        _, rows = read_rows(out)
        assert rows[0][1] == "inf"

    def test_af_sets_bandpass(self, tmp_path):
        cfg = write_config(tmp_path, BANDPASS_CONFIG)
        out = str(tmp_path / "af.csv")
        assert run(cfg, "af-sets", out=out) == 0
        header, rows = read_rows(out)
        assert header == ["fs", "P", "branch", "lo", "hi"]
        total = sum(float(r[4]) - float(r[3]) for r in rows)
        assert total == pytest.approx(2.0, abs=1e-9)

    def test_bounds_ordering(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": [0.3, 0.7]}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "b.csv")
        assert run(cfg, "bounds", out=out) == 0
        header, rows = read_rows(out)
        for r in rows:
            row = dict(zip(header, (float(v) for v in r)))
            d = row["drf_sampled"]
            assert 0.0 <= d <= 1.0 + 1e-12
            for k in ("idrf_stationary", "mmse", "d_star_lower",
                      "polyphase_lower", "d_dagger"):
                assert row[k] <= d + 1e-6

    def test_oracle_check_agreement(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["oracle"] = {"K": 24, "phases": 8}
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "oc.csv")
        assert run(cfg, "oracle-check", out=out) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert abs(row["mmse_exact"] - row["mmse_window"]) <= 0.03
        assert abs(row["drf_exact"] - row["drf_block"]) <= 0.03

    def test_oracle_check_rows_match_direct_calls(self, tmp_path):
        # fs repeats non-adjacently, so per-fs work reused for the wrong fs
        # or the wrong rate shows in the rows; every value is below 1, so
        # the 12 significant digits written hold it to within 5e-13
        doc = dict(RECT_CONFIG, source={"segments": [[0.0, 0.5, 0.9]]},
                   noise={"segments": [[0.0, 0.5, 0.2]]}, oracle={"K": 6, "phases": 3})
        doc["sampler"] = {"fs": [0.3, 0.7, 0.3]}
        doc["rates"] = {"values": [0.5, 1.5]}
        out = str(tmp_path / "oc.csv")
        assert run(write_config(tmp_path, doc), "oracle-check", out=out) == 0
        header, rows = read_rows(out)
        Sx = SpectralDensity(((0.0, 0.5, 0.9),))
        Sn = SpectralDensity(((0.0, 0.5, 0.2),))
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (fs, R) for fs in (0.3, 0.7, 0.3) for R in (0.5, 1.5)]
        for r in rows:
            row = dict(zip(header, (float(v) for v in r)))
            fs, R = row["fs"], row["rate_bits_per_time"]
            refs = {
                "mmse_exact": mmse_single(Sx, Sn, None, fs),
                "mmse_window": finite_window_mmse_average(Sx, Sn, None, fs, 6, 3).value,
                "drf_exact": waterfill.drf_sampled_single(Sx, Sn, None, fs, R).distortion,
                "drf_block": block_idrf_oracle(Sx, Sn, None, fs, R, 6, 3),
            }
            for key, ref in refs.items():
                assert abs(row[key] - ref) <= 1e-12 * max(1.0, abs(ref)), (key, fs, R)

    def test_oracle_block_column_is_the_one_fs_oracle(self):
        # in memory, so that == holds drf_block bit for bit: fs repeats
        # non-adjacently, rate 0 is the row maximum, and 1e307 bits per time
        # overflows per sample at the last fs alone, where the sweep fails
        # with block_idrf_oracle's own error, named at its point
        Sx, Sn = SpectralDensity(((0.0, 0.5, 0.9),)), SpectralDensity(((0.0, 0.5, 0.2),))
        fs_list, rates = [1.92, 0.7, 1.92, 0.3], [RateSpec(v) for v in (0.0, 0.5, 1e307)]
        cfg = ExperimentConfig(Sx, Sn, fs_list, 1, None, rates, None, oracle_K=4, oracle_phases=2)
        rows = []
        with pytest.raises(WaterfillError) as failure:
            rows.extend(_sweep("oracle-check", cfg)[1])
        points = [(fs, R.value) for fs in fs_list for R in rates][:len(rows)]
        assert [(r[0], r[1]) for r in rows] == points and len(rows) == 11
        assert [r[5] for r in rows] == [block_idrf_oracle(Sx, Sn, None, fs, R, 4, 2)
                                        for fs, R in points]
        assert failure.value.point == (0.3, rates[2])
        with pytest.raises(WaterfillError) as direct:
            block_idrf_oracle(Sx, Sn, None, 0.3, 1e307, 4, 2)
        assert str(failure.value) == str(direct.value)

    @pytest.mark.parametrize("budget", [None, 60, 400])
    def test_one_oracle_solve_per_rate_group(self, monkeypatch, budget):
        # the block's oracles are one stack, solved once per group of rates
        # (the only stack whose lossy part is scaled, by 1/(2K+1)/phases)
        solves, plans = [], []
        real_solve, real_plan = waterfill._WaterfillStack.solve, sampling._plan

        def solve(self, rate):
            if self.scale != 1.0:
                solves.append((self.v.shape, np.shape(rate)))
            return real_solve(self, rate)

        def plan(*kinds):
            plans.append(list(real_plan(*kinds)))
            return plans[-1]
        monkeypatch.setattr(waterfill._WaterfillStack, "solve", solve)
        monkeypatch.setattr(sampling, "_plan", plan)
        if budget:
            monkeypatch.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
        Sx, Sn = SpectralDensity(((0.0, 0.5, 0.9),)), SpectralDensity(((0.0, 0.5, 0.2),))
        rates = [RateSpec(v) for v in (0.0, 0.5, 1.0, 2.0)]
        cfg = ExperimentConfig(Sx, Sn, [0.3, 0.7, 0.3], 1, None, rates, None, oracle_K=4,
                               oracle_phases=2)
        assert len(list(_sweep("oracle-check", cfg)[1])) == 12
        (plan,) = plans
        assert solves == [((stop - start, 9), (min(n, 4 - r), stop - start))
                          for start, stop, n in plan for r in range(0, 4, n)]

    @pytest.mark.parametrize("n_rates", [1, 6])
    @pytest.mark.parametrize("mode, P", [("bounds", 1), ("drf", 1), ("drf", 3),
                                         ("oracle-check", 1)])
    def test_one_curve_build_per_fs(self, tmp_path, monkeypatch, mode, P, n_rates):
        # one stacked build per block of consecutive fs, each fs in exactly one
        # block, the filter bank's eigen curves too.  A budget of 30 entries
        # puts each fs in a block of its own.
        rates = BIMODAL_CONFIG["rates"]["values"][:n_rates]
        doc = dict(BIMODAL_CONFIG, rates={"values": rates})
        name = "_folded" if P == 1 else "_BankCurves"
        if P == 3:
            doc["sampler"] = {"fs": [0.48, 1.92, 0.48], "P": 3, "filters": BANK_FILTERS}
        fs_list = doc["sampler"]["fs"]
        for budget in (None, 30):
            with monkeypatch.context() as mp:
                if budget:
                    mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                builds = count_calls(mp, name)
                assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
            assert [fs for (per,) in builds for fs in per.steps.tolist()] == fs_list
            assert len(builds) == (len(fs_list) if budget else 1)

    @pytest.mark.parametrize("mode, kernel", [("drf", "_branch_matrices"),
                                              ("mmse", "_branch_matrices"),
                                              ("bounds", "_polyphase_values")])
    def test_bank_and_polyphase_kernels_once_per_block(self, tmp_path, monkeypatch, mode,
                                                       kernel):
        # the filter bank's matrices and the polyphase bound's offset spectra
        # are built for a whole block at once, not for one fs at a time
        doc = dict(BIMODAL_CONFIG, sampler={"fs": [0.48, 1.92, 0.32, 0.48], "P": 1})
        if mode != "bounds":
            doc["sampler"].update(P=3, filters=BANK_FILTERS)
        fs_list = doc["sampler"]["fs"]
        for budget in (None, 30):
            with monkeypatch.context() as mp:
                if budget:
                    mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                builds = count_calls(mp, kernel)
                assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
            assert [len(args[1]) for args in builds] == ([1] * 4 if budget else [4])

    @pytest.mark.parametrize("mode, P, filters, cuts", [
        pytest.param("bounds", 1, None, [1, 1], id="bounds-1-2"),
        pytest.param("drf", 3, BANK_FILTERS, [1], id="drf-3-1"),
        pytest.param("af-sets", 2, None, [2], id="af-sets-2-1"),
        pytest.param("drf-optimal", 3, None, [3], id="drf-optimal-3-1")])
    def test_one_period_cut_per_fs(self, tmp_path, monkeypatch, mode, P, filters, cuts):
        # bounds: the source's periods and D*'s; a bank: the source's periods;
        # af-sets and drf-optimal: the SNR ratio's periods of fs/P, so each
        # entry of cuts is the P of one kind of period.  Each block is cut
        # once, and each fs is in one block of each kind.  The unfolded MMSE
        # cross-check cuts its own periods inside sampling._unfolded_mmse, and
        # no other period is cut.
        doc = dict(BIMODAL_CONFIG)
        if mode != "bounds":
            doc["sampler"] = {"fs": [0.48, 1.92, 0.48], "P": P, "filters": filters}
        fs_list = doc["sampler"]["fs"]
        for budget in (None, 30):
            with monkeypatch.context() as mp:
                if budget:
                    mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                blocks = count_calls(mp, "_alias_grids")
                assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
            assert sorted(step for _, steps, _ in blocks for step in steps.tolist()) == sorted(
                fs / p for p in cuts for fs in fs_list)
            assert len(blocks) == len(cuts) * (len(fs_list) if budget else 1)

    @pytest.mark.parametrize("N_delta", [8, 64, 200])
    @pytest.mark.parametrize("fs_list", [[0.32, 1.92], [0.04, 0.32]])
    def test_bounds_waterfills_per_fs(self, monkeypatch, fs_list, N_delta):
        # fs = 0.04 has 2*k_max + 1 > 64 translates, so the offset count is
        # N_delta or that count; the waterfill count depends on neither
        Sx = SpectralDensity(BIMODAL_SEGMENTS)
        Sn = SpectralDensity(((0.0, 1.6, 0.05),))
        rates = [0.0, 0.5, 4.0]
        real_init, real_solve = waterfill._WaterfillStack.__init__, waterfill._WaterfillStack.solve
        real_sums = waterfill._WaterfillStack._row_sums
        real_bound = waterfill._PolyphaseBound
        monkeypatch.setattr(waterfill, "_PolyphaseBound", lambda per, _: real_bound(per, N_delta))
        for budget in (None, 30):
            stacks, solves, sums = [], [], []

            def init(self, *args):
                stacks.append(self)
                real_init(self, *args)

            def solve(self, rate):
                solves.append(self)
                return real_solve(self, rate)

            def row_sums(self, theta=None):  # once for the mmse, once per level
                sums.append(self)
                return real_sums(self, theta)
            with monkeypatch.context() as mp:
                if budget:
                    mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                mp.setattr(waterfill._WaterfillStack, "__init__", init)
                mp.setattr(waterfill._WaterfillStack, "solve", solve)
                mp.setattr(waterfill._WaterfillStack, "_row_sums", row_sums)
                offsets = count_calls(mp, "_polyphase_values")
                rows = _sweep_rows("bounds", Sx, Sn, fs_list, rates)
            assert len(rows) == len(fs_list) * len(rates)
            assert [len(d) for _, deltas in offsets for d in deltas] == [
                max(N_delta, 2 * sampling._Source(Sx, Sn).periods([fs]).kmax[0] + 1)
                for fs in fs_list]
            # idrf_stationary once per sweep, as one row; drf, D* and D-dagger
            # one stack per block, with a row per fs; the polyphase offsets one
            # stack per block, with a row per offset of each fs (padded to the
            # block's most)
            idrf, *others = stacks
            row_stacks = [st for st in others if st in solves]
            n_blocks = len(fs_list) if budget else 1
            assert len(idrf.v) == 1 and len(row_stacks) == 3 * n_blocks
            assert sum(len(st.v) for st in row_stacks) == 3 * len(fs_list)
            assert len(others) == 4 * n_blocks
            offset_stacks = [st for st in others if st not in row_stacks]
            assert [st.v.shape[:-1] for st in offset_stacks] == [
                (max(map(len, deltas)), len(deltas)) for _, deltas in offsets]
            # every stack is solved whole once per group of rates, for all of
            # its rows and all the group's rates, and no row or rate on its
            # own: drf, D* and D-dagger after their mmse, the offsets at one
            # level, and idrf once per block.  A group holds every rate, or
            # under a budget of 30 entries one.
            groups = len(rates) if budget else 1
            assert [solves.count(st) for st in row_stacks] == [groups] * (3 * n_blocks)
            assert [sums.count(st) for st in row_stacks] == [1 + groups] * (3 * n_blocks)
            assert [sums.count(st) for st in offset_stacks] == [groups] * n_blocks
            assert solves.count(idrf) == groups * n_blocks
            assert sums.count(idrf) == 1 + groups * n_blocks

    @pytest.mark.parametrize("n_fs", [1, 4])
    @pytest.mark.parametrize("mode, P, filters", [
        *(pytest.param(mode, 1, None, id=mode) for mode in MODES),
        *(pytest.param(mode, 3, None, id=f"{mode}-P3")
          for mode in MODES if mode not in ("bounds", "oracle-check")),
        *(pytest.param(mode, 3, "bank", id=f"{mode}-bank") for mode in ("mmse", "drf")),
        *(pytest.param(mode, 2, "optimal", id=f"{mode}-P2-optimal")
          for mode in ("mmse", "drf-optimal")),
    ])
    def test_fs_free_work_once_per_sweep(self, tmp_path, monkeypatch, mode, P, filters, n_fs):
        doc = dict(BIMODAL_CONFIG, rates={"values": [0.5, 2.0]})
        doc["sampler"] = {"fs": [0.32, 1.92, 0.8, 0.32][:n_fs], "P": P,
                          "filters": BANK_FILTERS if filters == "bank" else filters}
        densities = count_calls(monkeypatch, "_pw_from_density")
        gains = count_calls(monkeypatch, "_pw_from_gain")
        segments = count_calls(monkeypatch, "_observation_segments")
        ratios = count_calls(monkeypatch, "snr_ratio")
        assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
        # Sx, Sn and the SNR ratio on the full line, and one gain per branch
        assert len(densities) <= 3 and len(gains) <= P and len(segments) <= 1
        assert len(ratios) <= 1

    @pytest.mark.parametrize("mode", ["d-dagger", "bounds"])
    def test_d_dagger_ranks_the_ratio_once(self, tmp_path, monkeypatch, mode):
        # every superlevel set of a sweep, in one block or one per fs, reads
        # the one ranking of the ratio's segments on the sweep's source, and
        # none goes through the public function, which ranks on every call
        doc = dict(BIMODAL_CONFIG, sampler={"fs": [0.32, 1.92, 0.8, 0.32], "P": 1})
        for budget in (None, 30):
            with monkeypatch.context() as mp:
                if budget:
                    mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                ranks = count_calls(mp, "_superlevel_sets")
                public = count_calls(mp, "superlevel_set_of_measure")
                blocks = count_calls(mp, "_d_dagger")
                assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
            assert len(ranks) == 1 and not public
            assert len(blocks) == (4 if budget else 1)

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("mode, filters", [("drf-optimal", None), ("mmse", "optimal")])
    def test_optimal_filters_build_no_sets(self, tmp_path, monkeypatch, mode, filters, P):
        # drf-optimal and the optimal MMSE read the top-P translates of the
        # SNR ratio; no set and no segment list is built
        doc = dict(BIMODAL_CONFIG, rates={"values": [0.5, 2.0]})
        doc["sampler"] = {"fs": [0.32, 1.92, 0.8, 0.32], "P": P, "filters": filters}
        sets = count_calls(monkeypatch, "_maximal_af_sets")
        pieces = count_calls(monkeypatch, "_density_pieces")
        assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
        assert sets == [] and pieces == []

    @pytest.mark.parametrize("mode, P, filters", [
        *(pytest.param(mode, 1, None, id=mode) for mode in MODES),
        *(pytest.param(mode, P, None, id=f"{mode}-P{P}") for P in (2, 3)
          for mode in MODES if mode not in ("bounds", "oracle-check")),
        *(pytest.param("mmse", P, "optimal", id=f"mmse-P{P}-optimal") for P in (1, 2, 3)),
    ])
    def test_fs_near_the_float_maximum(self, mode, P, filters):
        # shifts k*fs past the float range overflow to inf, where every piece
        # reads 0, as it should: no warning (each RuntimeWarning fails a test),
        # and the rows at fs = 1e308 print as those at fs = 1e20, apart from
        # the fs column
        Sx, Sn = SpectralDensity(BIMODAL_SEGMENTS), SpectralDensity(((0.0, 1.6, 0.05),))
        huge, big = [[_line([], row[1:], "csv")
                      for row in _sweep_rows(mode, Sx, Sn, [fs], [0.5, 2.0], P, filters)]
                     for fs in (1e308, 1e20)]
        assert huge == big

    def test_bank_rows_match_direct_calls(self):
        # in-memory rows, so that == holds them bit for bit; fs repeats
        # non-adjacently, so per-fs work reused for the wrong fs shows
        Sx = SpectralDensity(BIMODAL_SEGMENTS)
        Sn = SpectralDensity(((0.0, 1.6, 0.05),))
        fs_list, rates = [0.48, 1.92, 0.48], [0.5, 2.0]
        bank = cli._filters_from(BANK_FILTERS, 3)
        assert _sweep_rows("mmse", Sx, Sn, fs_list, P=3, filters=bank) == [
            [fs, 3, sampling.mmse_multi(Sx, Sn, SamplerSpec(fs, bank))] for fs in fs_list]
        assert _sweep_rows("drf", Sx, Sn, fs_list, rates, P=3, filters=bank) == [
            [fs, 3, s.rate, s.theta, s.distortion, s.mmse_part, s.lossy_part]
            for fs in fs_list for R in rates
            for s in [waterfill.drf_sampled_multi(Sx, Sn, SamplerSpec(fs, bank), R)]]
        assert [r[5] for r in _sweep_rows("bounds", Sx, Sn, fs_list, rates)] == [
            waterfill.d_star_lower_bound(Sx, Sn, fs, R) for fs in fs_list for R in rates]

    @pytest.mark.parametrize("P, filters", [(3, BANK_FILTERS), (2, None), (1, None)])
    def test_one_mmse_for_a_bank(self, P, filters):
        # mmse mode and drf's mmse_part read the same sum of the same pieces,
        # so they agree to the bit; with the bank at P = 3 they differed in
        # the last bits at half of these fs, and at P = 1 at 18 of them
        Sx, Sn = SpectralDensity(BIMODAL_SEGMENTS), SpectralDensity(((0.0, 1.6, 0.05),))
        fs_list = [round(0.04 * i, 2) for i in range(2, 101)]
        bank = filters and cli._filters_from(filters, P)
        mmse = [row[2] for row in _sweep_rows("mmse", Sx, Sn, fs_list, P=P, filters=bank)]
        drf = [row[5] for row in _sweep_rows("drf", Sx, Sn, fs_list, [0.5], P=P, filters=bank)]
        assert mmse == drf

    def test_bounds_block_memory_is_bounded(self):
        # 327 fs of 10 cells and 5 translates make one block by translates,
        # but each fs has 64 polyphase offsets: counted in the block budget,
        # they cap the sweep's peak, which was 19 MB with the offsets left out
        Sx, Sn = SpectralDensity(BIMODAL_SEGMENTS), SpectralDensity(((0.0, 1.6, 0.05),))
        fs_list = [round(3.2 + 0.001 * i, 3) for i in range(327)]
        _sweep_rows("bounds", Sx, Sn, fs_list[:2], [1.0])  # the fs-free work's caches
        tracemalloc.start()
        try:
            rows = _sweep_rows("bounds", Sx, Sn, fs_list, [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(fs_list)
        assert peak < 4e6

    @pytest.mark.parametrize("mode, n_rates, most", [("bounds", 2_000, 13.0e6),
                                                     ("drf", 20_000, 48.5e6)])
    def test_many_rates_stay_bounded(self, mode, n_rates, most):
        # a block solves its rates in groups of at most _MAX_BLOCK_ENTRIES
        # entries, and its checks are (rates x fs) masks; solved one rate at
        # a time, with a table and checks per rate, these sweeps peaked at
        # 13.0 MB and 48.5 MB
        Sx, Sn = SpectralDensity(BIMODAL_SEGMENTS), SpectralDensity(((0.0, 1.6, 0.05),))
        rates = [4.0 * i / n_rates for i in range(n_rates)]
        _sweep_rows(mode, Sx, Sn, [0.32, 1.92], rates[:2])  # the fs-free work's caches
        tracemalloc.start()
        try:
            rows = _sweep_rows(mode, Sx, Sn, [0.32, 1.92], rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row[1 if mode == "bounds" else 2] for row in rows] == rates * 2
        assert peak <= most

    @pytest.mark.parametrize("mode, P, filters", [
        *(pytest.param(mode, 1, None, id=mode) for mode in MODES),
        *(pytest.param(mode, 3, None, id=f"{mode}-P3")
          for mode in MODES if mode not in ("bounds", "oracle-check")),
        *(pytest.param(mode, 3, "bank", id=f"{mode}-bank") for mode in ("mmse", "drf")),
        pytest.param("mmse", 2, "optimal", id="mmse-P2-optimal"),
    ])
    def test_run_builds_no_solution_objects(self, tmp_path, monkeypatch, mode, P, filters):
        # the sweep reads its columns off the blocks' stacks: no row is
        # solved on its own into a WaterfillSolution, whose check the stacks
        # make as one comparison per block
        built = []
        real = waterfill._WaterfillStack.solution
        monkeypatch.setattr(waterfill._WaterfillStack, "solution",
                            lambda *args: built.append("row") or real(*args))
        monkeypatch.setattr(waterfill.WaterfillSolution, "__post_init__",
                            lambda self: built.append("solution"))
        Sx, Sn = SpectralDensity(BIMODAL_SEGMENTS), SpectralDensity(((0.0, 1.6, 0.05),))
        waterfill.drf_sampled_single(Sx, Sn, None, 0.5, 1.0)  # each is counted
        assert built == ["row", "solution"]
        built.clear()
        doc = dict(BIMODAL_CONFIG, rates={"values": [0.5, 2.0]})
        doc["sampler"] = {"fs": [0.32, 1.92, 0.8], "P": P,
                          "filters": BANK_FILTERS if filters == "bank" else filters}
        assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
        assert built == []

    def test_deterministic_output(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": {"start": 0.2, "stop": 1.2, "step": 0.1}}
        doc["rates"] = {"values": [0.5, 1.0, 2.0]}
        cfg = write_config(tmp_path, doc)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(cfg, "drf", out=a) == 0
        assert run(cfg, "drf", out=b) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_rows_run_in_the_calling_thread(self, tmp_path):
        # a fresh interpreter, so that no other test has imported
        # concurrent.futures or started a thread
        doc = dict(RECT_CONFIG, oracle={"K": 4, "phases": 2})
        doc["sampler"] = {"fs": [0.3, 0.7]}
        doc["rates"] = {"values": [0.5, 1.0]}
        argv = ["oracle-check", "--config", write_config(tmp_path, doc),
                "--out", str(tmp_path / "oc.csv")]
        env = dict(os.environ, PYTHONPATH=str(Path(subnyq.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"code": 0, "futures": False, "started": [],
                                           "alive": 1}

    def test_grid_is_ignored(self, tmp_path):
        doc = dict(BANDPASS_CONFIG)
        doc["sampler"] = {"fs": [1.2], "P": 2,
                          "filters": [[[-2.0, 0.0, 1.0]], [[0.0, 2.0, 0.0, 1.0]]]}
        doc["noise"] = {"segments": [[0.0, 2.0, 0.1]]}
        plain, gridded = write_config(tmp_path, doc), write_config(
            tmp_path, dict(doc, grid=8), name="gridded.json")
        outs = {}
        for name, argv in (("plain", ["--config", plain]),
                           ("flag", ["--config", plain, "--grid", "16"]),
                           ("key", ["--config", gridded])):
            outs[name] = str(tmp_path / f"{name}.csv")
            assert main(["drf", *argv, "--out", outs[name]]) == 0
        ref = Path(outs["plain"]).read_bytes()
        assert len(ref.splitlines()) == 2
        assert Path(outs["flag"]).read_bytes() == ref
        assert Path(outs["key"]).read_bytes() == ref

    def test_ndjson_format(self, tmp_path):
        cfg = write_config(tmp_path, RECT_CONFIG)
        out = str(tmp_path / "out.ndjson")
        assert run(cfg, "drf", out=out, fmt="ndjson") == 0
        obj = json.loads(Path(out).read_text().strip())
        assert obj["distortion"] == pytest.approx(0.53125, rel=1e-9)
        assert obj["fs"] == 0.5

    def test_distortion_range_across_modes(self, tmp_path):
        doc = dict(RECT_CONFIG)
        doc["noise"] = {"segments": [[0.0, 0.5, 0.2]]}
        doc["sampler"] = {"fs": [0.3, 0.8, 1.4]}
        doc["rates"] = {"values": [0.0, 1.0, 8.0]}
        cfg = write_config(tmp_path, doc)
        for mode in ("drf", "drf-optimal", "d-dagger"):
            out = str(tmp_path / f"{mode}.csv")
            assert run(cfg, mode, out=out) == 0
            header, rows = read_rows(out)
            for r in rows:
                d = float(dict(zip(header, r))["distortion"])
                assert 0.0 <= d <= 1.0 + 1e-12


# the named cause of some config error cases
CONFIG_CAUSES = {
    "rates-values-string": "rates.values must be a list, got '12'",
    "rate-boolean": "rates.values invalid: a rate must be a number, got True",
    "oracle-K-boolean": "oracle.K must be an integer, got True",
    "fs-range-overflows": "sampler.fs range has inf steps",
    "fs-range-too-long": "sampler.fs range has 1e+12 steps",
    "fs-string": "sampler.fs must be a number, got '0.5'",
    "P-string": "sampler.P must be an integer, got '1'",
    "rate-string": "rates.values invalid: a rate must be a number, got '1'",
    "rate-huge-integer": "rates.values invalid: a rate must be finite, got 1000",
    "segment-string": "source.segments invalid: a segment entry must be a number, got '0'",
    "gain-string": "sampler.filters[0] invalid: a gain segment entry must be a number, got '1'",
    "oracle-K-huge": "oracle block too large: (2K+1)^2 * phases > 10000000",
    "oracle-phases-huge": "oracle block too large: (2K+1)^2 * phases > 10000000",
    "P-huge": f"sampler.P must be in [1, 100], got {10**30}",
}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.json"), "drf") == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        doc = dict(RECT_CONFIG)
        doc["schema_version"] = 99
        assert run(write_config(tmp_path, doc), "drf") == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_mode(self, tmp_path, capsys):
        assert run(write_config(tmp_path, RECT_CONFIG), "nonsense") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("case", ["directory", "not-utf-8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        # a config that cannot be opened or decoded is a config error, named
        # with its path, not a traceback
        path = tmp_path / "cfg.json"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(RECT_CONFIG).encode().replace(b"[0.5]", b'"\xff"'))
        out = tmp_path / "x.csv"
        assert main(["drf", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")
        assert not out.exists()

    def test_rates_required(self, tmp_path, capsys):
        doc = dict(RECT_CONFIG)
        doc["rates"] = {"values": []}
        assert run(write_config(tmp_path, doc), "drf") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate(self, tmp_path, capsys, value):
        doc = dict(RECT_CONFIG)
        doc["rates"] = {"values": [value]}
        assert run(write_config(tmp_path, doc), "drf") == 2
        assert "rates.values invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bounds", "oracle-check"])
    def test_rate_per_sample_overflow_names_r_and_fs(self, tmp_path, capsys, mode):
        # R/fs overflowed, and the error named a rate of inf that was never given
        doc = dict(BIMODAL_CONFIG, sampler={"fs": [0.5], "P": 1}, rates={"values": [1e308]})
        assert run(write_config(tmp_path, doc), mode) == 3
        err = capsys.readouterr().err
        assert "rate R = 1e+308 bits per time at fs = 0.5 overflows" in err
        assert "got inf" not in err

    @pytest.mark.parametrize("mode", ["drf", "drf-optimal", "d-dagger", "bounds", "oracle-check"])
    def test_rate_per_time_overflow_names_r_and_fs(self, tmp_path, capsys, mode):
        # R*fs overflowed: numpy warned, and the error named an inf in the
        # results or a rate of inf that was never given
        doc = dict(BIMODAL_CONFIG, sampler={"fs": [2.0], "P": 1},
                   rates={"values": [1e308], "unit": "bits-per-sample"})
        assert run(write_config(tmp_path, doc), mode) == 3
        err = capsys.readouterr().err
        assert "rate R = 1e+308 bits per sample at fs = 2 overflows" in err
        assert "inf" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("mode", ["drf", "drf-optimal", "d-dagger", "bounds"])
    def test_rate_per_time_overflow_names_its_own_fs(self, tmp_path, capsys, mode):
        # the block of both fs is solved at once; the overflow is at 1e300
        # alone, and the fs = 0.5 row before it was named
        doc = dict(RECT_CONFIG, sampler={"fs": [0.5, 1e300], "P": 1},
                   rates={"values": [1e10], "unit": "bits-per-sample"})
        assert run(write_config(tmp_path, doc), mode) == 3
        assert capsys.readouterr().err == (
            "numerical failure at fs=1e+300, R=10000000000 bits-per-sample: rate R = 1e+10 "
            "bits per sample at fs = 1e+300 overflows per time\n")

    @pytest.mark.parametrize("fmt", ["csv", "ndjson"])
    @pytest.mark.parametrize("mode", ["drf", "mmse"])
    def test_non_finite_value_names_its_point(self, tmp_path, capsys, monkeypatch, mode, fmt):
        # a NaN theta at one (fs, R) of a 40-fs block, or an infinite MMSE at
        # one fs, passes every other check, and is raised at its own point,
        # after that point's other checks
        fs_list = [round(0.3 + 0.02 * i, 2) for i in range(40)]
        if mode == "drf":
            real_level = waterfill._WaterfillStack.level

            def level(self, rate):
                theta, lossy, attained = real_level(self, rate)
                theta = np.where((rate == 2.0) & (np.arange(40) == 2), math.nan, theta)
                return theta, lossy, attained
            monkeypatch.setattr(waterfill._WaterfillStack, "level", level)
            cause = f"fs={fs_list[2]}, R=2 bits-per-time-unit: nan"
        else:
            real_mmse = sampling._mmse_single

            def mmse_single(curves):
                mmse, checks = real_mmse(curves)
                return np.where(np.arange(40) == 2, -math.inf, mmse), checks
            monkeypatch.setattr(sampling, "_mmse_single", mmse_single)
            cause = f"fs={fs_list[2]}: -inf"
        doc = dict(RECT_CONFIG, noise={"segments": [[0.0, 0.5, 0.2]]})
        doc["sampler"] = {"fs": fs_list, "P": 1}
        doc["rates"] = {"values": [1.0, 2.0, 3.0]}
        out = tmp_path / f"x.{fmt}"
        assert main([mode, "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--format", fmt]) == 3
        assert capsys.readouterr().err == f"numerical failure at {cause} in results\n"
        assert not out.exists()

    def test_linalg_error_exits_3(self, tmp_path, capsys):
        # an ill-conditioned S_Y: S_Y^-1/2 K S_Y^-1/2 fails the Hermitian check
        # at fs = 2 alone, in a block with fs that pass
        doc = dict(RECT_CONFIG)
        doc["source"] = {"segments": [[0.0, 1.0, 1.0], [1.0, 2.0, 1e-5]]}
        doc["sampler"] = {"fs": [4.0, 2.0, 3.5], "P": 2,
                          "filters": [[[-1.4, 0.8, -1.8, -1.9]], [[-3.0, 3.0, 1.0, 0.0]]]}
        out = str(tmp_path / "x.csv")
        for mode in ("drf", "mmse"):
            assert main([mode, "--config", write_config(tmp_path, doc), "--out", out]) == 3
            err = capsys.readouterr().err
            # the block's eigen curves are built once, before any rate, and
            # the failing row raises when it is read
            assert err.startswith("numerical failure at fs=2: ")
            assert "not Hermitian" in err
            assert not Path(out).exists()

    # Sx^2 or |H|^2 overflows; the source's pieces are checked once per
    # sweep, before the first fs, so every mode fails with the same cause,
    # no point and no numpy warning (which would fail this test)
    @pytest.mark.parametrize("mode, cause", [
        *(pytest.param(mode, "source level", id=mode) for mode in MODES),
        *(pytest.param(mode, "filter gain", id=f"{mode}-gain")
          for mode in ("mmse", "drf", "bounds", "oracle-check")),
    ])
    def test_per_sweep_failure_exits_3(self, tmp_path, capsys, monkeypatch, mode, cause):
        doc = dict(RECT_CONFIG, noise={"segments": [[0.0, 0.5, 0.2]]})
        doc["sampler"] = {"fs": [0.3, 0.7], "P": 1}
        if cause == "source level":
            doc["source"] = {"segments": [[0.0, 0.5, 1e160]]}
        else:
            doc["sampler"]["filters"] = [[[-0.5, 0.5, 1e160]]]
        builds = count_calls(monkeypatch, "_translates")
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), mode, out=out) == 3
        # the failing work depends on neither fs nor R, so no point is named
        assert capsys.readouterr().err.startswith(f"numerical failure: {cause} 1e+160")
        assert builds == []
        assert not Path(out).exists()

    @pytest.mark.parametrize("mode, P, filters", [
        *(pytest.param(mode, 1, None, id=mode)
          for mode in ("drf", "mmse", "drf-optimal", "bounds", "af-sets")),
        *(pytest.param(mode, 3, BANK_FILTERS, id=f"{mode}-bank") for mode in ("drf", "mmse"))])
    def test_failure_mid_block_names_its_fs(self, tmp_path, capsys, mode, P, filters):
        # the fs before it make one block; the failing fs raises at its own
        # point, not while that block is built
        doc = dict(RECT_CONFIG, noise={"segments": [[0.0, 0.5, 0.2]]})
        doc["sampler"] = {"fs": [0.3, 0.5, 1e-6, 0.7], "P": P, "filters": filters}
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, doc), mode, out=str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure at fs=1e-06: fs = 1e-06 needs 5e+05 translates per side, "
            "more than the cap of 1000")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["drf-optimal", "mmse", "af-sets"])
    def test_translate_cap_names_fs_and_its_step(self, tmp_path, capsys, mode):
        # the optimal filters cut periods of fs/P, so the step that needs too
        # many translates is 0.001, and the error names it and the fs
        doc = dict(BIMODAL_CONFIG, sampler={"fs": [0.1], "P": 100, "filters": "optimal"})
        if mode != "mmse":
            del doc["sampler"]["filters"]
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, doc), mode, out=str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure at fs=0.1: fs/P = 0.001 (fs = 0.1) needs 1602 translates per "
            "side, more than the cap of 1000")
        assert not out.exists()

    @pytest.mark.parametrize("mode, check", [("mmse", "cross-check"), ("mmse", "bound"),
                                             ("drf", "bound"), ("bounds", "bound")])
    def test_check_failing_at_third_fs_names_it(self, tmp_path, capsys, monkeypatch,
                                                mode, check):
        # all 40 fs are one block; the check fails on its third row only
        fs_list = [round(0.3 + 0.02 * i, 2) for i in range(40)]
        third = fs_list[2]
        if check == "cross-check":
            real_unfolded = sampling._unfolded_mmse

            def unfolded(src, steps):  # one call for the block; the third row is off
                return real_unfolded(src, steps) * (1.0 + (steps == third))
            monkeypatch.setattr(sampling, "_unfolded_mmse", unfolded)
            cause = "mmse cross-check failed"
        else:
            real_folded = sampling._folded

            def folded(per):
                curves = real_folded(per)
                over = curves.over | (per.steps == third)
                return sampling._Curves(per, curves.values, over=over)
            for module in (sampling, waterfill, cli):
                if hasattr(module, "_folded"):
                    monkeypatch.setattr(module, "_folded", folded)
            cause = "conditional spectrum exceeded its translate bound"
        blocks = count_calls(monkeypatch, "_alias_grids")
        doc = dict(RECT_CONFIG, noise={"segments": [[0.0, 0.5, 0.2]]})
        doc["sampler"] = {"fs": fs_list, "P": 1}
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, doc), mode, out=str(out)) == 3
        assert capsys.readouterr().err.startswith(f"numerical failure at fs={third}: {cause}")
        assert [len(steps) for _, steps, _ in blocks][:1] == [40]
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["drf", "drf-optimal", "d-dagger", "bounds"])
    def test_rate_failure_mid_block_names_its_point(self, tmp_path, capsys, monkeypatch, mode):
        # the rates are solved in one call for the whole 40-fs block; a failure
        # of the third row at the second rate is raised when that row is read
        # there
        fs_list = [round(0.3 + 0.02 * i, 2) for i in range(40)]
        real_level = waterfill._WaterfillStack.level

        def level(self, rate):
            theta, lossy, attained = real_level(self, rate)
            if len(self.v) == 40:  # the third row, at the second rate
                lossy = np.where((rate == 2.0) & (np.arange(40) == 2), math.nan, lossy)
            return theta, lossy, attained
        monkeypatch.setattr(waterfill._WaterfillStack, "level", level)
        doc = dict(RECT_CONFIG, noise={"segments": [[0.0, 0.5, 0.2]]})
        doc["sampler"] = {"fs": fs_list, "P": 1}
        doc["rates"] = {"values": [1.0, 2.0, 3.0]}
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, doc), mode, out=str(out)) == 3
        assert capsys.readouterr().err.startswith(
            f"numerical failure at fs={fs_list[2]}, R=2 bits-per-time-unit: "
            "distortion decomposition off by nan")
        assert not out.exists()

    def test_nothing_observed_by_the_oracle_exits_3(self, tmp_path, capsys):
        # a source outside the filter's pass band and no noise: the window
        # covariance is 0, and a ridge of 0 cannot make it definite
        doc = dict(RECT_CONFIG, source={"segments": [[1.0, 2.0, 1.0]]},
                   sampler={"fs": [0.5], "P": 1, "filters": [[[-0.5, 0.5, 1.0]]]},
                   oracle={"K": 4, "phases": 8})
        out = tmp_path / "x.csv"
        assert run(write_config(tmp_path, doc), "oracle-check", out=str(out)) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure at fs=0.5: window covariance is not positive definite")
        assert not out.exists()

    def test_rate_dependent_failure_names_the_rate(self, tmp_path, capsys, monkeypatch):
        # above the Nyquist rate the polyphase bound equals D, so a raised
        # MMSE term puts it above D, which is checked at every rate
        real = sampling._mmse_single

        def raised(curves):
            mmse, checks = real(curves)
            return mmse + 1e-6, checks

        monkeypatch.setattr(sampling, "_mmse_single", raised)
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": [1.2]}
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), "bounds", out=out) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure at fs=1.2, R=1 bits-per-time-unit: polyphase bound ")
        assert not Path(out).exists()

    @pytest.mark.parametrize("gain, kind", [([[-0.4, 0.4, 1.0, 0.5]], "real"),
                                            ([[-0.4, 0.1, 1.0], [0.1, 0.4, 2.0]], "even"),
                                            # even at every midpoint of the source's grid
                                            ([[-0.3, -0.1, 1.0], [0.09, 0.31, 1.0]], "even")])
    def test_oracle_filter_not_real_even_exits_2(self, tmp_path, capsys, monkeypatch, gain,
                                                 kind):
        doc = dict(RECT_CONFIG, sampler={"fs": [0.3, 0.7], "P": 1, "filters": [gain]})
        builds = count_calls(monkeypatch, "_folded")
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), "oracle-check", out=out) == 2
        assert capsys.readouterr().err == (
            f"config error: mode oracle-check: time-domain oracles need {kind} filter gains\n")
        assert builds == []  # found before any point
        assert not Path(out).exists()

    def test_nan_source_level_exits_2(self, tmp_path, capsys):
        doc = dict(RECT_CONFIG)
        doc["source"] = {"segments": [[0.0, 0.5, math.nan]]}
        assert run(write_config(tmp_path, doc), "mmse") == 2
        assert "source.segments invalid" in capsys.readouterr().err

    def test_unattainable_rate(self, tmp_path, capsys):
        doc = dict(RECT_CONFIG)
        doc["source"] = None
        doc["noise"] = {"segments": [[0.0, 0.5, 1.0]]}
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), "drf", out=out) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "fs-without-stop", "top-level-list", "rates-not-object",
        "source-not-object", "P-not-integer", "P-fractional", "oracle-K-zero",
        "oracle-phases-zero", "rates-values-string", "rate-boolean", "oracle-K-boolean",
        "fs-range-overflows", "fs-range-too-long", "fs-string", "P-string", "rate-string",
        "rate-huge-integer", "segment-string", "gain-string", "oracle-K-huge",
        "oracle-phases-huge", "P-huge",
    ])
    def test_config_errors_exit_2(self, tmp_path, capsys, case):
        doc = dict(RECT_CONFIG)
        if case == "fs-without-stop":
            doc["sampler"] = {"fs": {"start": 0.2, "step": 0.1}}
        elif case == "top-level-list":
            doc = [RECT_CONFIG]
        elif case == "rates-not-object":
            doc["rates"] = [1.0]
        elif case == "source-not-object":
            doc["source"] = [[0.0, 0.5, 1.0]]
        elif case == "P-not-integer":
            doc["sampler"] = {"fs": [0.5], "P": "two"}
        elif case == "P-fractional":
            doc["sampler"] = {"fs": [0.5], "P": 1.5}
        elif case == "oracle-K-zero":
            doc["oracle"] = {"K": 0}
        elif case == "oracle-phases-zero":
            doc["oracle"] = {"phases": 0}
        elif case == "rates-values-string":
            doc["rates"] = {"values": "12"}
        elif case == "rate-boolean":
            doc["rates"] = {"values": [True, 2]}
        elif case == "oracle-K-boolean":
            doc["oracle"] = {"K": True}
        elif case == "fs-range-overflows":
            doc["sampler"] = {"fs": {"start": 0.1, "stop": 1e300, "step": 1e-300}}
        elif case == "fs-range-too-long":
            doc["sampler"] = {"fs": {"start": 0.1, "stop": 1e9, "step": 1e-3}}
        elif case == "fs-string":
            doc["sampler"] = {"fs": ["0.5"]}
        elif case == "P-string":
            doc["sampler"] = {"fs": [0.5], "P": "1"}
        elif case == "rate-string":
            doc["rates"] = {"values": ["1"]}
        elif case == "rate-huge-integer":
            doc["rates"] = {"values": [10**400]}  # too large for a float
        elif case == "segment-string":
            doc["source"] = {"segments": [["0", "0.5", "1"]]}
        elif case == "gain-string":
            doc["sampler"] = {"fs": [0.5], "P": 1, "filters": [[[-0.5, 0.5, "1"]]]}
        elif case == "oracle-K-huge":
            doc["oracle"] = {"K": 10_000_000}
        elif case == "oracle-phases-huge":
            doc["oracle"] = {"phases": 10**12}
        elif case == "P-huge":
            doc["sampler"] = {"fs": [0.5], "P": 10**30}
        out = str(tmp_path / "x.csv")
        assert main(["oracle-check", "--config", write_config(tmp_path, doc),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert CONFIG_CAUSES.get(case, "") in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("mode, sampler", [
        ("bounds", {"P": 3}), ("bounds", {"filters": "optimal"}),
        ("oracle-check", {"P": 3}), ("oracle-check", {"filters": "optimal"}),
        ("drf-optimal", {"filters": [[[-0.5, 0.5, 1.0]]]}),
        ("d-dagger", {"filters": [[[-0.5, 0.5, 1.0]]]}),
        ("af-sets", {"filters": [[[-0.5, 0.5, 1.0]]]}),
    ])
    def test_ignored_sampler_setting_exits_2(self, tmp_path, capsys, mode, sampler):
        doc = dict(RECT_CONFIG, sampler=dict(RECT_CONFIG["sampler"], **sampler))
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), mode, out=out) == 2
        cause = (f"mode {mode} takes P = 1 and no optimal filters"
                 if mode in ("bounds", "oracle-check")
                 else f"mode {mode} chooses its own filters; drop the filter list")
        assert capsys.readouterr().err == f"config error: {cause}\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("case", ["missing-directory", "directory", "not-a-path",
                                      "not-a-path-with-out"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, case):
        doc = dict(RECT_CONFIG)
        argv = []
        builds = count_calls(monkeypatch, "_folded")
        if case == "missing-directory":
            argv = ["--out", str(tmp_path / "missing" / "x.csv")]
        elif case == "directory":
            argv = ["--out", str(tmp_path)]
        else:  # a config error even where --out overrides it
            doc["output"] = 5
            if case == "not-a-path-with-out":
                argv = ["--out", str(tmp_path / "x.csv")]
        assert main(["drf", "--config", write_config(tmp_path, doc), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if doc.get("output") == 5:
            assert err == "config error: output must be a file path, got 5\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
        if case == "missing-directory":  # found with the config errors, before any curve
            assert builds == []

    # the file itself, a folder under it, and a tree whose parent is missing
    @pytest.mark.parametrize("sub", ["", "sub", "missing"])
    def test_figure_out_dir_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out, cause = {
            "": (blocker, f"output path is not a directory: {blocker}"),
            "sub": (blocker / "sub", f"output directory does not exist: {blocker}"),
            "missing": (tmp_path / "missing" / "a" / "b",
                        f"output directory does not exist: {tmp_path / 'missing' / 'a'}"),
        }[sub]
        sweeps = count_calls(monkeypatch, "_figure_rows")
        assert main(["figure", "--figure", "rect", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {cause}\n"
        assert sweeps == []  # checked before the sweep
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == ""

    def test_figure_out_makes_only_the_last_folder(self, tmp_path):
        out = tmp_path / "figures"
        assert main(["figure", "--figure", "rect", "--out", str(out)]) == 0
        assert (out / "rect.csv").is_file()

    @pytest.mark.parametrize("argv, cause", [
        (["figure", "--figure", "rect", "--config", "{cfg}"], "mode figure takes no --config"),
        (["mmse", "--config", "{cfg}", "--figure", "rect"], "--figure is for mode 'figure' only"),
    ], ids=["config-in-figure", "figure-in-mmse"])
    def test_ignored_option_exits_2(self, tmp_path, capsys, monkeypatch, argv, cause):
        cfg = write_config(tmp_path, RECT_CONFIG)
        out = tmp_path / "out"
        sweeps = [count_calls(monkeypatch, name) for name in ("_figure_rows", "_sweep")]
        assert main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {cause}\n"
        assert sweeps == [[], []]
        assert not out.exists()

    def test_unknown_format_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.xml")
        assert run(write_config(tmp_path, RECT_CONFIG), "drf", out=out, fmt="xml") == 2
        assert reproduce_figure("rect", str(tmp_path), fmt="xml") == 2
        assert capsys.readouterr().err.count("unknown output format") == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_main_requires_config(self, capsys):
        assert main(["drf"]) == 2
        capsys.readouterr()

    def test_main_requires_figure_name(self, capsys):
        assert main(["figure"]) == 2
        capsys.readouterr()

    def test_unknown_figure(self, tmp_path, capsys):
        assert reproduce_figure("nope", str(tmp_path)) == 2
        capsys.readouterr()


# Spectra on a 1/16 grid of [0, 2] with levels from a small pool that holds
# 0, so values tie and a source may be all 0 (noise only: no positive rate)
SPECTRA = st.lists(st.tuples(st.integers(0, 31), st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.7])),
                   max_size=3, unique_by=lambda seg: seg[0]).map(
    lambda segs: SpectralDensity([(k / 16, (k + 1) / 16, v) for k, v in sorted(segs)]))
# (P, filters): all-pass branches, the optimal filters, the bank, one low-pass
SAMPLERS = st.sampled_from([(1, None), (2, None), (3, None), (1, "optimal"), (3, "optimal"),
                            (3, "bank"), (1, "low-pass")])
# fs that repeat, need more translates than the cap (1e-6), or lie anywhere
SWEEP_FS = st.lists(st.one_of(st.sampled_from([0.08, 0.3, 0.5, 1.92, 3.3, 1e-6]),
                              st.floats(0.05, 4.0)), min_size=1, max_size=6)
# None keeps the module's budget; 60 puts nearly every fs in a block of its
# own, 400 makes blocks of a few fs, and 2000 blocks of a few fs whose rates
# split into groups
BUDGETS = st.sampled_from([None, 60, 400, 2000])


class TestSweepLoop:
    """Each sweep row, and the first failure with its point, is what the
    public one-fs functions give in the sweep's order (support.sweep_rows_loop)."""

    @given(st.sampled_from([mode for mode in MODES if mode != "oracle-check"]), SPECTRA, SPECTRA,
           SAMPLERS, SWEEP_FS,
           st.lists(st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 8.0)),
                    min_size=1, max_size=8),
           st.sampled_from([BITS_PER_TIME, BITS_PER_SAMPLE]), BUDGETS)
    # a rate that overflows per time at the second fs of a block
    @example("drf", SpectralDensity(((0.0, 0.5, 1.0),)), SpectralDensity(()), (1, None),
             [0.5, 1e300], [1e10], BITS_PER_SAMPLE, None)
    # noise only: no positive rate, at the first fs, before the translate cap
    @example("bounds", SpectralDensity(()), SpectralDensity(((0.0, 0.5, 1.0),)), (1, None),
             [0.5, 1e-6, 0.3], [0.0, 1.0], BITS_PER_TIME, 400)
    # eight rates in groups: blocks of one fs that solve two, one and three
    # rates per call, and a bounds block of two fs that solves three
    @example("drf", SpectralDensity(((0.0, 0.5, 1.0),)), SpectralDensity(()), (1, None),
             [0.5, 0.3, 1.92], [0.0, 0.5, 2.0, 0.1, 1.0, 4.0, 0.25, 8.0], BITS_PER_SAMPLE, 60)
    @example("bounds", SpectralDensity(((0.0, 0.5, 1.0),)), SpectralDensity(((0.0, 0.5, 0.3),)),
             (1, None), [0.5, 1.92], [0.0, 0.5, 2.0, 0.1, 1.0, 4.0, 0.25, 8.0], BITS_PER_TIME,
             2000)
    @settings(max_examples=150, deadline=None)
    def test_sweep_rows_are_the_one_fs_loop(self, mode, Sx, Sn, sampler, fs_list, values, unit,
                                            budget):
        P, filters = sampler
        filters = {"bank": cli._filters_from(BANK_FILTERS, 3),
                   "low-pass": [ComplexGainProfile([(-0.6, 0.6, 1.0)])]}.get(filters, filters)
        rates = [RateSpec(v, unit) for v in values]
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
            try:
                _, rows = _sweep(mode, ExperimentConfig(Sx, Sn, fs_list, P, filters, rates, None))
            except ConfigError:  # a sampler the mode does not take
                return
            try:
                got = list(rows)
            except (WaterfillError, SpectrumError, LinalgError) as e:
                got = (*e.point, type(e), str(e))
        assert got == sweep_rows_loop(mode, Sx, Sn, fs_list, rates, P, filters)

    @given(st.sampled_from(MODES), SPECTRA, SPECTRA, SAMPLERS, SWEEP_FS, st.integers(1, 8),
           BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_plan_is_no_finer_than_the_cuts_of_each_kind(self, mode, Sx, Sn, sampler, fs_list,
                                                         n_rates, budget):
        # one planner for every kind of work a mode does gives no more blocks
        # than the union of each kind's own cut (support.block_count_loop),
        # and covers the fs in order with groups of one rate up to all
        P, filters = sampler
        filters = {"bank": cli._filters_from(BANK_FILTERS, 3),
                   "low-pass": [ComplexGainProfile([(-0.6, 0.6, 1.0)])]}.get(filters, filters)
        plans, real = [], sampling._plan

        def plan(*kinds):
            plans.append(list(real(*kinds)))
            return plans[-1]
        with pytest.MonkeyPatch.context() as mp:
            if budget:
                mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
            mp.setattr(sampling, "_plan", plan)
            cfg = ExperimentConfig(Sx, Sn, fs_list, P, filters, [RateSpec(1.0)] * n_rates, None)
            try:
                next(_sweep(mode, cfg)[1], None)  # the plan comes before the first block
            except ConfigError:  # a sampler the mode does not take
                return
            except (WaterfillError, SpectrumError, LinalgError):  # the first block fails
                pass
            src = sampling._Source(Sx, Sn, filters if isinstance(filters, list) else [None] * P)
            optimal = mode in ("drf-optimal", "af-sets") or filters == "optimal"
            most = block_count_loop(mode, src, fs_list, P, optimal)
        (plan,) = plans
        assert [0] + [stop for _, stop, _ in plan] == [start for start, _, _ in plan] + [
            len(fs_list)]
        assert len(plan) <= most
        n = 1 if mode in ("mmse", "af-sets") else n_rates
        assert all(1 <= rates <= n for _, _, rates in plan)


class TestFigures:
    @pytest.mark.parametrize("name", FIGURES)
    def test_rows_match_the_one_rate_loops(self, name):
        # rows, their order and every value bit for bit
        assert _figure_rows(name) == figure_rows_loop(name)

    def test_library_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a figure's sweep fails as a mode's does: exit 3, named with its
        # point (its first block's rates are solved at its first fs), no file
        def solve(self, rate):
            raise WaterfillError("no water level")
        monkeypatch.setattr(waterfill._WaterfillStack, "solve", solve)
        assert main(["figure", "--figure", "rect", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "numerical failure at fs=0.1: no water level\n"
        assert list(tmp_path.iterdir()) == []

    def test_nonmonotone_is_nonmonotone(self, tmp_path):
        assert reproduce_figure("nonmonotone", str(tmp_path)) == 0
        header, rows = read_rows(str(tmp_path / "nonmonotone.csv"))
        d1 = [float(r[2]) for r in rows if float(r[1]) == 1.0]
        diffs = [b - a for a, b in zip(d1, d1[1:])]
        assert any(x > 1e-6 for x in diffs)  # distortion rises somewhere
        assert any(x < -1e-6 for x in diffs)  # and falls elsewhere

    def test_rect_noisy_flat_above_nyquist(self, tmp_path):
        assert reproduce_figure("rect", str(tmp_path)) == 0
        _, rows = read_rows(str(tmp_path / "rect.csv"))
        noisy_super = [float(r[3]) for r in rows if r[2] == "5" and float(r[0]) > 1.0]
        assert len(noisy_super) >= 10
        assert max(noisy_super) - min(noisy_super) <= 1e-9

    def test_multi_branch_ordering(self, tmp_path):
        assert reproduce_figure("multi-branch", str(tmp_path)) == 0
        _, rows = read_rows(str(tmp_path / "multi-branch.csv"))
        by_fs = {}
        for fs, p, _, d in rows:
            by_fs.setdefault(fs, {})[p] = float(d)
        for fs, vals in by_fs.items():
            assert vals["inf"] <= vals["3"] + 1e-9
            assert vals["3"] <= vals["2"] + 1e-9
            assert vals["2"] <= vals["1"] + 1e-9

    def test_mmse_opt_never_worse(self, tmp_path):
        assert reproduce_figure("mmse-opt", str(tmp_path)) == 0
        _, rows = read_rows(str(tmp_path / "mmse-opt.csv"))
        for _, allp, opt in rows:
            assert float(opt) <= float(allp) + 1e-9

    def test_af_sets_figure_rows(self, tmp_path):
        assert reproduce_figure("af-sets", str(tmp_path)) == 0
        header, rows = read_rows(str(tmp_path / "af-sets.csv"))
        assert header == ["fs", "P", "branch", "lo", "hi"]
        # each (fs, P) block covers measure at most fs (P branches of fs/P)
        totals = {}
        for fs, P, _, lo, hi in rows:
            totals[(fs, P)] = totals.get((fs, P), 0.0) + float(hi) - float(lo)
        for (fs, P), m in totals.items():
            assert m <= float(fs) + 1e-9

    def test_parser_keeps_its_defaults(self, tmp_path):
        # one parser serves every call; an option given once does not stay set
        assert main(["figure", "--figure", "rect", "--out", str(tmp_path),
                     "--format", "ndjson"]) == 0
        assert main(["figure", "--figure", "rect", "--out", str(tmp_path)]) == 0
        assert cli._parser() is cli._parser()
        csv = (tmp_path / "rect.csv").read_text().splitlines()
        assert csv[0] == "fs,rate_bits_per_time,gamma,distortion"
        assert json.loads((tmp_path / "rect.ndjson").read_text().splitlines()[0])["gamma"] == "inf"

    def test_figure_ndjson(self, tmp_path):
        assert reproduce_figure("af-sets", str(tmp_path), fmt="ndjson") == 0
        lines = (tmp_path / "af-sets.ndjson").read_text().strip().split("\n")
        obj = json.loads(lines[0])
        assert set(obj) == {"fs", "P", "branch", "lo", "hi"}


# Configs drawn around the schema: every field is well formed seven times in
# eight and any JSON value otherwise.  Numbers include the non-finite ones and
# an integer too large for a float; integers run past every cap.
NUMBERS = st.one_of(st.floats(-4.0, 4.0), st.integers(-2, 6),
                    st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.integers(), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


def around(shape):
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: shape if ok else JSON)


POSITIVE = around(st.floats(0.05, 4.0))
# disjoint segments on a grid of 0.25 wide cells
SEGMENTS = st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2.0)), min_size=1, max_size=3,
                    unique_by=lambda seg: seg[0]).map(
    lambda segs: [[0.25 * i, 0.25 * (i + 1), v] for i, v in segs])
FS = st.lists(POSITIVE, min_size=1, max_size=3) | st.fixed_dictionaries(
    {"start": POSITIVE, "stop": POSITIVE, "step": POSITIVE})
CONFIGS = st.fixed_dictionaries({
    "schema_version": around(st.just(1)),
    "source": around(st.fixed_dictionaries({"segments": around(SEGMENTS)})),
    "noise": around(st.none() | st.fixed_dictionaries({"segments": around(SEGMENTS)})),
    "sampler": around(st.fixed_dictionaries({
        "fs": around(FS),
        "P": around(st.integers(1, 3)),
        "filters": around(st.sampled_from(["allpass", "optimal"])
                          | st.lists(around(SEGMENTS), min_size=1, max_size=3))})),
    "rates": around(st.fixed_dictionaries({
        "values": around(st.lists(around(st.floats(0.0, 4.0)), min_size=1, max_size=3)),
        "unit": around(st.sampled_from(["bits-per-time-unit", "bits-per-sample"]))})),
    "oracle": around(st.fixed_dictionaries({
        "K": around(st.integers(1, 64) | st.integers()),
        "phases": around(st.integers(1, 16) | st.integers(1, 10**13))})),
})


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=CONFIGS, mode=st.sampled_from(MODES))
    def test_load_and_sweep_raise_only_config_errors(self, tmp_path, doc, mode):
        # builds the sweep but runs no point of it
        path = write_config(tmp_path, doc)
        try:
            _sweep(mode, load_config(path))
        except ConfigError:
            pass
