import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subnyq
from subnyq import sampling, waterfill
from subnyq.cli import BIMODAL_SEGMENTS, load_config, main, reproduce_figure, run
from subnyq.cli import ConfigError, NumericalFailure, _fmt
from subnyq.oracle import block_idrf_oracle, finite_window_mmse_average
from subnyq.sampling import mmse_single
from subnyq.spectra import SpectralDensity

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

    @pytest.mark.parametrize("n_rates", [1, 6])
    @pytest.mark.parametrize("mode, P", [("bounds", 1), ("drf", 1), ("drf", 3),
                                         ("oracle-check", 1)])
    def test_one_curve_build_per_fs(self, tmp_path, monkeypatch, mode, P, n_rates):
        rates = BIMODAL_CONFIG["rates"]["values"][:n_rates]
        doc = dict(BIMODAL_CONFIG, rates={"values": rates})
        module, name = (sampling, "_folded") if P == 1 else (waterfill, "eigen_curves_multi")
        if P == 3:
            doc["sampler"] = {"fs": [0.48, 1.92, 0.48], "P": 3, "filters": BANK_FILTERS}
        builds = []
        real = getattr(module, name)

        def counted(*args):
            builds.append(args)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
        assert run(write_config(tmp_path, doc), mode, out=str(tmp_path / "x.csv")) == 0
        assert len(builds) == len(doc["sampler"]["fs"])

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_fmt_rejects_infinity(self, value):
        with pytest.raises(NumericalFailure):
            _fmt(value)

    # the source level squared overflows; the MMSE would come out -inf
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_source_exits_3(self, tmp_path, capsys):
        doc = dict(RECT_CONFIG)
        doc["source"] = {"segments": [[0.0, 0.5, 1e160]]}
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), "mmse", out=out) == 3
        # mmse takes no rate, so the point is fs alone
        assert capsys.readouterr().err.startswith("numerical failure at fs=0.5: ")
        assert not Path(out).exists()

    def test_linalg_error_exits_3(self, tmp_path, capsys):
        # an ill-conditioned S_Y: S_Y^-1/2 K S_Y^-1/2 fails the Hermitian check
        doc = dict(RECT_CONFIG)
        doc["source"] = {"segments": [[0.0, 1.0, 1.0], [1.0, 2.0, 1e-5]]}
        doc["sampler"] = {"fs": [2.0], "P": 2,
                          "filters": [[[-1.4, 0.8, -1.8, -1.9]], [[-3.0, 3.0, 1.0, 0.0]]]}
        out = str(tmp_path / "x.csv")
        assert main(["drf", "--config", write_config(tmp_path, doc), "--out", out]) == 3
        err = capsys.readouterr().err
        # the eigen curves are built once per fs, before any rate
        assert err.startswith("numerical failure at fs=2: ")
        assert "not Hermitian" in err
        assert not Path(out).exists()

    # the SNR ratio, built once per sweep in these modes, overflows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["af-sets", "bounds"])
    def test_per_sweep_failure_exits_3(self, tmp_path, capsys, mode):
        doc = dict(RECT_CONFIG)
        doc["source"] = {"segments": [[0.0, 0.5, 1e160]]}
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), mode, out=out) == 3
        # the failing work depends on neither fs nor R, so no point is named
        assert capsys.readouterr().err.startswith("numerical failure: segment ")
        assert not Path(out).exists()

    def test_rate_dependent_failure_names_the_rate(self, tmp_path, capsys, monkeypatch):
        # above the Nyquist rate the polyphase bound equals D, so a raised
        # MMSE term puts it above D, which is checked at every rate
        real = sampling._mmse_and_curve

        def raised(*args):
            mmse, curve = real(*args)
            return mmse + 1e-6, curve

        monkeypatch.setattr(sampling, "_mmse_and_curve", raised)
        doc = dict(RECT_CONFIG)
        doc["sampler"] = {"fs": [1.2]}
        out = str(tmp_path / "x.csv")
        assert run(write_config(tmp_path, doc), "bounds", out=out) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure at fs=1.2, R=1 bits-per-time-unit: polyphase bound ")
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
        "fs-range-overflows", "fs-range-too-long",
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
        out = str(tmp_path / "x.csv")
        assert main(["oracle-check", "--config", write_config(tmp_path, doc),
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert CONFIG_CAUSES.get(case, "") in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("case", ["missing-directory", "directory", "not-a-path"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, case):
        doc = dict(RECT_CONFIG)
        argv = []
        if case == "missing-directory":
            argv = ["--out", str(tmp_path / "missing" / "x.csv")]

            # found with the config errors, before any curve is built
            def no_rows(*args):
                raise AssertionError("a curve was built")
            monkeypatch.setattr(sampling, "_folded", no_rows)
        elif case == "directory":
            argv = ["--out", str(tmp_path)]
        else:
            doc["output"] = 5
        assert main(["drf", "--config", write_config(tmp_path, doc), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_figure_out_dir_is_a_file_exits_2(self, tmp_path, capsys, sub):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["figure", "--figure", "rect", "--out", str(blocker / sub)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == ""

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


class TestFigures:
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

    def test_figure_ndjson(self, tmp_path):
        assert reproduce_figure("af-sets", str(tmp_path), fmt="ndjson") == 0
        lines = (tmp_path / "af-sets.ndjson").read_text().strip().split("\n")
        obj = json.loads(lines[0])
        assert set(obj) == {"fs", "P", "branch", "lo", "hi"}
