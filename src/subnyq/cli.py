"""Batch front-end: config-driven sweeps over (fs, P, R) written as CSV.

A config is a single JSON document describing the source and noise spectra,
the sampler and the rate points.  Each mode maps a sweep point to one output
row; rows are computed on a thread pool of SUBNYQ_THREADS workers (default
min(8, cpu count)) but always written in config order, so output is
deterministic byte for byte.

Exit codes: 0 success, 2 config problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import oracle, sampling, waterfill
from .spectra import ComplexGainProfile, SpectralDensity, SpectrumError, snr_ratio
from .waterfill import BITS_PER_SAMPLE, BITS_PER_TIME, RateSpec, WaterfillError

MODES = ("mmse", "drf", "drf-optimal", "d-dagger", "af-sets", "bounds", "oracle-check")
FIGURES = ("rect", "nonmonotone", "mmse-opt", "opsf", "multi-branch", "af-sets")

# Bimodal spectrum behind the multi-branch and optimal-filter figures.  All
# breakpoints are multiples of 0.08, so the sweep frequencies below are
# commensurate with every translate lattice used at P <= 6.
BIMODAL_SEGMENTS = ((0.0, 0.4, 1.0), (0.4, 0.8, 0.2), (0.8, 1.2, 0.8), (1.2, 1.6, 0.1))


class ConfigError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    source: SpectralDensity
    noise: SpectralDensity
    fs_list: list[float]
    P: int
    filters: object  # None (allpass), "optimal", or list of branch profiles
    rates: list[RateSpec]
    out: str | None
    oracle_K: int = 32
    oracle_phases: int = 8


def _section(doc: dict, name: str) -> dict:
    """doc[name] as an object; a missing or null section reads as empty."""
    sec = doc.get(name)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object")
    return sec


def _int_from(value, name: str, minimum: int) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (isinstance(value, float) and value != n):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {n}")
    return n


def _float_from(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _density_from(doc: dict, name: str) -> SpectralDensity:
    if doc.get(name) is None:
        return SpectralDensity(())
    segs = _section(doc, name).get("segments")
    if not isinstance(segs, list):
        raise ConfigError(f"{name}.segments must be a list")
    try:
        return SpectralDensity(tuple(tuple(s) for s in segs))
    except (SpectrumError, TypeError, ValueError) as e:
        raise ConfigError(f"{name}.segments invalid: {e}") from e


def _fs_from(doc) -> list[float]:
    if isinstance(doc, list):
        vals = [_float_from(v, "sampler.fs") for v in doc]
    elif isinstance(doc, dict):
        missing = [k for k in ("start", "stop", "step") if k not in doc]
        if missing:
            raise ConfigError(f"sampler.fs object is missing {', '.join(missing)}")
        start, stop, step = (_float_from(doc[k], f"sampler.fs.{k}")
                             for k in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError("sampler.fs.step must be positive")
        n = int(round((stop - start) / step))
        vals = [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-12]
    else:
        raise ConfigError("sampler.fs must be a list or a start/stop/step object")
    if not vals or any(v <= 0 for v in vals):
        raise ConfigError("sampler.fs needs at least one positive frequency")
    return vals


def _filters_from(doc, P: int):
    if doc in (None, "allpass"):
        return None
    if doc == "optimal":
        return "optimal"
    if not isinstance(doc, list) or len(doc) != P:
        raise ConfigError("sampler.filters must be 'allpass', 'optimal', "
                          f"or a list of {P} branch profiles")
    branches = []
    for i, branch in enumerate(doc):
        try:
            segs = [(s[0], s[1], complex(s[2], s[3] if len(s) > 3 else 0.0))
                    for s in branch]
            branches.append(ComplexGainProfile(segs))
        except (SpectrumError, TypeError, ValueError, IndexError) as e:
            raise ConfigError(f"sampler.filters[{i}] invalid: {e}") from e
    return branches


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("schema_version") != 1:
        raise ConfigError("schema_version must be 1")
    sampler = doc.get("sampler")
    if not isinstance(sampler, dict):
        raise ConfigError("sampler section is required")
    P = _int_from(sampler.get("P", 1), "sampler.P", 1)
    rates_doc = _section(doc, "rates")
    unit = rates_doc.get("unit", BITS_PER_TIME)
    if unit not in (BITS_PER_TIME, BITS_PER_SAMPLE):
        raise ConfigError(f"rates.unit unknown: {unit}")
    try:
        rates = [RateSpec(float(v), unit) for v in rates_doc.get("values", [])]
    except (WaterfillError, TypeError, ValueError) as e:
        raise ConfigError(f"rates.values invalid: {e}")
    orc = _section(doc, "oracle")
    return ExperimentConfig(
        source=_density_from(doc, "source"),
        noise=_density_from(doc, "noise"),
        fs_list=_fs_from(sampler.get("fs")),
        P=P,
        filters=_filters_from(sampler.get("filters"), P),
        rates=rates,
        out=doc.get("output"),
        oracle_K=_int_from(orc.get("K", 32), "oracle.K", 1),
        oracle_phases=_int_from(orc.get("phases", 8), "oracle.phases", 1),
    )


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise NumericalFailure(f"{x} in results")
    return f"{x:.12g}"


def _thread_count() -> int:
    """Size of the row pool: SUBNYQ_THREADS if set, else min(8, cpu count)."""
    env = os.environ.get("SUBNYQ_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"SUBNYQ_THREADS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


DRF_HEADER = ["fs", "P", "rate_bits_per_time", "theta", "distortion",
              "mmse_part", "lossy_part"]


def _drf_row(fs, p, R: RateSpec, sol) -> list:
    return [fs, p, R.per_time(fs), sol.theta, sol.distortion,
            sol.mmse_part, sol.lossy_part]


def _rows_for_mode(mode: str, cfg: ExperimentConfig):
    """Header plus a list of zero-argument row tasks, in output order."""
    Sx, Sn = cfg.source, cfg.noise
    tasks = []

    def needs_rates():
        if not cfg.rates:
            raise ConfigError(f"mode {mode} needs at least one rate")

    if mode == "mmse":
        header = ["fs", "P", "mmse"]
        for fs in cfg.fs_list:
            def task(fs=fs):
                if cfg.filters == "optimal":
                    val, _ = sampling.mmse_optimal(Sx, Sn, fs, cfg.P)
                elif cfg.P == 1:
                    h = None if cfg.filters is None else cfg.filters[0]
                    val = sampling.mmse_single(Sx, Sn, h, fs)
                else:
                    branches = cfg.filters or [None] * cfg.P
                    val = sampling.mmse_multi(
                        Sx, Sn, sampling.SamplerSpec(fs, branches))
                return [fs, cfg.P, val]
            tasks.append(task)
    elif mode == "drf":
        needs_rates()
        if cfg.filters == "optimal":
            raise ConfigError("use mode drf-optimal for optimal filters")
        header = DRF_HEADER
        for fs in cfg.fs_list:
            for R in cfg.rates:
                def task(fs=fs, R=R):
                    if cfg.P == 1:
                        h = None if cfg.filters is None else cfg.filters[0]
                        sol = waterfill.drf_sampled_single(Sx, Sn, h, fs, R.per_time(fs))
                    else:
                        branches = cfg.filters or [None] * cfg.P
                        sol = waterfill.drf_sampled_multi(
                            Sx, Sn, sampling.SamplerSpec(fs, branches),
                            R.per_time(fs))
                    return _drf_row(fs, cfg.P, R, sol)
                tasks.append(task)
    elif mode == "drf-optimal":
        needs_rates()
        header = DRF_HEADER
        for fs in cfg.fs_list:
            for R in cfg.rates:
                def task(fs=fs, R=R):
                    sol = waterfill.drf_sampled_optimal(Sx, Sn, fs, cfg.P, R.per_time(fs))
                    return _drf_row(fs, cfg.P, R, sol)
                tasks.append(task)
    elif mode == "d-dagger":
        needs_rates()
        header = DRF_HEADER
        for fs in cfg.fs_list:
            for R in cfg.rates:
                def task(fs=fs, R=R):
                    sol = waterfill.d_dagger(Sx, Sn, fs, R.per_time(fs))
                    return _drf_row(fs, "inf", R, sol)
                tasks.append(task)
    elif mode == "af-sets":
        header = ["fs", "P", "branch", "lo", "hi"]
        ratio = snr_ratio(Sx, Sn)
        for fs in cfg.fs_list:
            def task(fs=fs):
                rows = []
                sets = sampling.maximal_af_sets(ratio, fs, cfg.P)
                for p, F in enumerate(sets, start=1):
                    for iv in F.intervals:
                        rows.append([fs, cfg.P, p, iv.lo, iv.hi])
                return rows
            tasks.append(task)
    elif mode == "bounds":
        needs_rates()
        header = ["fs", "rate_bits_per_time", "drf_sampled", "idrf_stationary",
                  "mmse", "d_star_lower", "polyphase_lower", "d_dagger"]
        h = None if cfg.filters in (None, "optimal") else cfg.filters[0]
        for fs in cfg.fs_list:
            for R in cfg.rates:
                def task(fs=fs, R=R):
                    r = R.per_time(fs)
                    return [
                        fs, r,
                        waterfill.drf_sampled_single(Sx, Sn, h, fs, r).distortion,
                        waterfill.idrf_stationary(Sx, Sn, h, r).distortion,
                        sampling.mmse_single(Sx, Sn, h, fs),
                        waterfill.d_star_lower_bound(Sx, Sn, fs, r),
                        waterfill.polyphase_lower_bound(Sx, Sn, h, fs, r),
                        waterfill.d_dagger(Sx, Sn, fs, r).distortion,
                    ]
                tasks.append(task)
    elif mode == "oracle-check":
        needs_rates()
        header = ["fs", "rate_bits_per_time", "mmse_exact", "mmse_window",
                  "drf_exact", "drf_block"]
        h = None if cfg.filters in (None, "optimal") else cfg.filters[0]
        for fs in cfg.fs_list:
            for R in cfg.rates:
                def task(fs=fs, R=R):
                    r = R.per_time(fs)
                    return [
                        fs, r,
                        sampling.mmse_single(Sx, Sn, h, fs),
                        oracle.finite_window_mmse_average(
                            Sx, Sn, h, fs, cfg.oracle_K, cfg.oracle_phases).value,
                        waterfill.drf_sampled_single(Sx, Sn, h, fs, r).distortion,
                        oracle.block_idrf_oracle(
                            Sx, Sn, h, fs, r, cfg.oracle_K, cfg.oracle_phases),
                    ]
                tasks.append(task)
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    return header, tasks


def _run_tasks(tasks, workers: int):
    # The pool pays where rows spend their time in numpy calls that release
    # the GIL: on 2 vCPUs, with no CPU pin, the benchmark's oracle-check
    # "staircase" sweep was faster at 2 threads than at 1 in 4 of 4
    # alternating pairs (medians 0.99-1.25 s against 1.18-1.37 s).
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: t(), tasks))


def _emit(header, rows, out_path: str | None, fmt: str):
    lines = []
    if fmt == "csv":
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    elif fmt == "ndjson":
        for row in rows:
            obj = {k: (float(_fmt(v)) if isinstance(v, float) else v)
                   for k, v in zip(header, row)}
            lines.append(json.dumps(obj, sort_keys=True))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(config_path: str, mode: str, out: str | None = None,
        fmt: str = "csv") -> int:
    """Execute one sweep; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        header, tasks = _rows_for_mode(mode, cfg)
        workers = _thread_count()
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        results = _run_tasks(tasks, workers)
        rows = []
        for res in results:
            if res and isinstance(res[0], list):
                rows.extend(res)
            else:
                rows.append(res)
        _emit(header, rows, out or cfg.out, fmt)
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (WaterfillError, SpectrumError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Built-in figure sweeps.

def _figure_rows(name: str):
    rect = SpectralDensity(((0.0, 0.5, 1.0),))
    rect_noise = SpectralDensity(((0.0, 0.5, 0.2),))  # gamma = 5
    bandpass = SpectralDensity(((1.0, 2.0, 0.5),))
    bimodal = SpectralDensity(BIMODAL_SEGMENTS)

    if name == "rect":
        header = ["fs", "rate_bits_per_time", "gamma", "distortion"]
        rows = []
        for gamma, noise in (("inf", SpectralDensity(())), ("5", rect_noise)):
            for i in range(2, 41):
                fs = i * 0.05
                sol = waterfill.drf_sampled_single(rect, noise, None, fs, 1.0)
                rows.append([fs, 1.0, gamma, sol.distortion])
        return header, rows
    if name == "nonmonotone":
        header = ["fs", "rate_bits_per_time", "distortion"]
        rows = []
        for R in (1.0, 2.0):
            for i in range(5, 46):
                fs = i * 0.1
                sol = waterfill.drf_sampled_single(bandpass, SpectralDensity(()),
                                                   None, fs, R)
                rows.append([fs, R, sol.distortion])
        return header, rows
    if name == "mmse-opt":
        header = ["fs", "mmse_allpass", "mmse_optimal"]
        rows = []
        for i in range(1, 41):
            fs = i * 0.08
            allp = sampling.mmse_single(bimodal, SpectralDensity(()), None, fs)
            opt, _ = sampling.mmse_optimal(bimodal, SpectralDensity(()), fs, 1)
            rows.append([fs, allp, opt])
        return header, rows
    if name == "opsf":
        header = ["fs", "rate_bits_per_time", "drf_allpass", "drf_optimal"]
        rows = []
        for R in (0.5, 1.0):
            for i in range(1, 41):
                fs = i * 0.08
                d = waterfill.drf_sampled_single(
                    bimodal, SpectralDensity(()), None, fs, R).distortion
                d_opt = waterfill.drf_sampled_optimal(
                    bimodal, SpectralDensity(()), fs, 1, R).distortion
                rows.append([fs, R, d, d_opt])
        return header, rows
    if name == "multi-branch":
        header = ["fs", "P", "rate_bits_per_time", "distortion"]
        rows = []
        for i in range(1, 41):
            fs = i * 0.08
            for p in (1, 2, 3):
                d = waterfill.drf_sampled_optimal(
                    bimodal, SpectralDensity(()), fs, p, 1.0).distortion
                rows.append([fs, p, 1.0, d])
            rows.append([fs, "inf", 1.0,
                         waterfill.d_dagger(bimodal, SpectralDensity(()),
                                            fs, 1.0).distortion])
        return header, rows
    if name == "af-sets":
        header = ["fs", "P", "branch", "lo", "hi"]
        rows = []
        for fs in (0.96, 1.92):
            for P in (1, 2, 3):
                sets = sampling.maximal_af_sets(bimodal, fs, P)
                for p, F in enumerate(sets, start=1):
                    for iv in F.intervals:
                        rows.append([fs, P, p, iv.lo, iv.hi])
        return header, rows
    raise ConfigError(f"unknown figure {name!r}")


def reproduce_figure(name: str, out_dir: str = ".", fmt: str = "csv") -> int:
    try:
        header, rows = _figure_rows(name)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    ext = "csv" if fmt == "csv" else "ndjson"
    try:
        _emit(header, rows, os.path.join(out_dir, f"{name}.{ext}"), fmt)
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subnyq",
        description="Distortion-rate sweeps for sampled Gaussian sources",
    )
    parser.add_argument("mode", choices=MODES + ("figure",))
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--out", help="output file (default: config's, else stdout)")
    # accepted and ignored: the filter-bank grid is exact, so a resolution
    # has nothing left to set
    parser.add_argument("--grid", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--figure", choices=FIGURES,
                        help="figure name (mode 'figure' only)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "ndjson"),
                        default="csv")
    args = parser.parse_args(argv)

    if args.mode == "figure":
        if not args.figure:
            print("config error: --figure is required for mode 'figure'",
                  file=sys.stderr)
            return 2
        return reproduce_figure(args.figure, args.out or ".", args.fmt)
    if not args.config:
        print("config error: --config is required", file=sys.stderr)
        return 2
    return run(args.config, args.mode, args.out, args.fmt)


if __name__ == "__main__":
    sys.exit(main())
