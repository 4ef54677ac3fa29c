"""Batch front-end: config-driven sweeps over (fs, P, R) written as CSV.

A config is a single JSON document describing the source and noise spectra,
the sampler and the rate points.  A sweep runs over fs, and for each fs over
the rates where the mode takes one.  Every mode does the work that depends on
fs alone once per fs (the curves, their sorted waterfills and the oracles),
then reads each rate's rows off it.  Points are computed one after another in
config order, so output is deterministic byte for byte.

Exit codes: 0 success, 2 config problem (reported before any point is
computed; an output file that cannot be written is one too), 3 numerical
failure (reported with the failing point, if the failing work has one, and
no output is written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import oracle, sampling, waterfill
from .linalg import LinalgError
from .spectra import ComplexGainProfile, SpectralDensity, SpectrumError, snr_ratio
from .waterfill import BITS_PER_SAMPLE, BITS_PER_TIME, RateSpec, WaterfillError

MODES = ("mmse", "drf", "drf-optimal", "d-dagger", "af-sets", "bounds", "oracle-check")
FIGURES = ("rect", "nonmonotone", "mmse-opt", "opsf", "multi-branch", "af-sets")
FORMATS = ("csv", "ndjson")

# Most steps in a start/stop/step fs range; a longer list may not fit memory.
_MAX_FS_STEPS = 100_000

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
        n = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (isinstance(value, float) and value != n):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {n}")
    return n


def _float_from(value, name: str) -> float:
    try:
        x = float(None if isinstance(value, bool) else value)
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
        steps = (stop - start) / step
        if not steps <= _MAX_FS_STEPS:  # an inf or NaN count fails here too
            raise ConfigError(f"sampler.fs range has {steps:.4g} steps, over {_MAX_FS_STEPS}")
        n = int(round(steps))
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
    values = rates_doc.get("values", [])
    if not isinstance(values, list):
        raise ConfigError(f"rates.values must be a list, got {values!r}")
    try:
        rates = [RateSpec(_float_from(v, "a rate"), unit) for v in values]
    except (ConfigError, WaterfillError) as e:
        raise ConfigError(f"rates.values invalid: {e}") from None
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


def _sweep(mode: str, cfg: ExperimentConfig):
    """(header, at_fs, rates): at_fs(fs) builds every curve, waterfill and
    oracle of one fs and returns rows_at, and rows_at(R) reads the rows of the
    point (fs, R) off them; work that needs no fs is done here, once.  rates
    is [None] in the modes that take no rate."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    rates = [None] if mode in ("mmse", "af-sets") else cfg.rates
    if not rates:
        raise ConfigError(f"mode {mode} needs at least one rate")
    Sx, Sn = cfg.source, cfg.noise
    h = None if cfg.filters in (None, "optimal") else cfg.filters[0]
    branches = None if cfg.filters == "optimal" else cfg.filters or [None] * cfg.P
    sigma2 = Sx.total_power()

    if mode == "mmse":
        header = ["fs", "P", "mmse"]

        def at_fs(fs):
            if cfg.filters == "optimal":
                val, _ = sampling.mmse_optimal(Sx, Sn, fs, cfg.P)
            elif cfg.P == 1:
                val = sampling.mmse_single(Sx, Sn, h, fs)
            else:
                val = sampling.mmse_multi(Sx, Sn, sampling.SamplerSpec(fs, branches))
            return lambda R: [[fs, cfg.P, val]]
    elif mode in ("drf", "drf-optimal", "d-dagger"):
        if mode == "drf" and cfg.filters == "optimal":
            raise ConfigError("use mode drf-optimal for optimal filters")
        header = ["fs", "P", "rate_bits_per_time", "theta", "distortion", "mmse_part",
                  "lossy_part"]
        p = "inf" if mode == "d-dagger" else cfg.P

        def at_fs(fs):
            if mode == "d-dagger":
                drf = waterfill._d_dagger(Sx, Sn, fs)
            elif mode == "drf-optimal":
                drf = waterfill._drf_sampled_optimal(Sx, Sn, fs, cfg.P)
            elif cfg.P == 1:
                drf = waterfill._drf_sampled_single(Sx, Sn, h, fs)
            else:
                drf = waterfill._drf_sampled_multi(Sx, Sn, sampling.SamplerSpec(fs, branches))

            def rows_at(R):
                sol = drf.solve(R.per_time(fs))
                return [[fs, p, sol.rate, sol.theta, sol.distortion, sol.mmse_part,
                         sol.lossy_part]]
            return rows_at
    elif mode == "af-sets":
        header = ["fs", "P", "branch", "lo", "hi"]
        ratio = snr_ratio(Sx, Sn)

        def at_fs(fs):
            sets = sampling.maximal_af_sets(ratio, fs, cfg.P)
            rows = [[fs, cfg.P, p, iv.lo, iv.hi]
                    for p, F in enumerate(sets, start=1) for iv in F.intervals]
            return lambda R: rows
    elif mode == "bounds":
        header = ["fs", "rate_bits_per_time", "drf_sampled", "idrf_stationary",
                  "mmse", "d_star_lower", "polyphase_lower", "d_dagger"]
        idrf = waterfill._idrf_stationary(Sx, Sn, h)

        def at_fs(fs):
            mmse, curve = sampling._mmse_and_curve(Sx, Sn, h, fs)
            drf = waterfill._Waterfill.of_source(sigma2, curve)
            d_star = waterfill._d_star_lower_bound(Sx, Sn, fs)
            polyphase = waterfill._polyphase_lower_bound(Sx, Sn, h, fs, mmse, drf)
            dd = waterfill._d_dagger(Sx, Sn, fs)

            def rows_at(R):
                r = R.per_time(fs)
                return [[fs, r, drf.solve(r).distortion, idrf.solve(r).distortion, mmse,
                         d_star.solve(r).distortion, polyphase(r), dd.solve(r).distortion]]
            return rows_at
    else:  # oracle-check
        header = ["fs", "rate_bits_per_time", "mmse_exact", "mmse_window",
                  "drf_exact", "drf_block"]

        def at_fs(fs):
            mmse, curve = sampling._mmse_and_curve(Sx, Sn, h, fs)
            drf = waterfill._Waterfill.of_source(sigma2, curve)
            orc = oracle.window_oracle(Sx, Sn, h, fs, cfg.oracle_K, cfg.oracle_phases)

            def rows_at(R):
                r = R.per_time(fs)
                return [[fs, r, mmse, orc.mmse_average.value,
                         drf.solve(r).distortion, orc.distortion(r)]]
            return rows_at
    return header, at_fs, rates


def _line(header, row, fmt: str) -> str:
    """One output record; NumericalFailure if a value is not finite."""
    if fmt == "csv":
        return ",".join(_fmt(v) for v in row)
    return json.dumps({k: (float(_fmt(v)) if isinstance(v, float) else v)
                       for k, v in zip(header, row)}, sort_keys=True)


def _write(header, lines, out_path: str | None, fmt: str) -> int:
    """Write the records to out_path, else to stdout; returns the exit code."""
    text = "\n".join([",".join(header), *lines] if fmt == "csv" else lines) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        print(f"config error: cannot write {out_path}: {e}", file=sys.stderr)
        return 2
    return 0


def _check_format(fmt: str):
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")


def _check_out_dir(out_path):
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"output must be a file path, got {out_path!r}")
    folder = os.path.dirname(out_path) if out_path else ""
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"output directory does not exist: {folder}")


def run(config_path: str, mode: str, out: str | None = None,
        fmt: str = "csv") -> int:
    """Execute one sweep; returns the process exit code.

    Rows are computed one after another in config order.  The output is
    written only once every row has succeeded.
    """
    fs = R = None  # a failure names as much of its point as it has reached
    try:
        _check_format(fmt)
        cfg = load_config(config_path)
        out_path = out or cfg.out
        _check_out_dir(out_path)
        header, at_fs, rates = _sweep(mode, cfg)
        lines = []
        for fs in cfg.fs_list:
            R = None
            rows_at = at_fs(fs)
            for R in rates:
                lines += [_line(header, row, fmt) for row in rows_at(R)]
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, WaterfillError, SpectrumError, LinalgError) as e:
        point = "" if fs is None else f" at fs={fs:.12g}"
        rate = "" if R is None else f", R={R.value:.12g} {R.unit}"
        print(f"numerical failure{point}{rate}: {e}", file=sys.stderr)
        return 3
    return _write(header, lines, out_path, fmt)


# ---------------------------------------------------------------------------
# Built-in figure sweeps.

def _figure_rows(name: str):
    rect = SpectralDensity(((0.0, 0.5, 1.0),))
    rect_noise = SpectralDensity(((0.0, 0.5, 0.2),))  # gamma = 5
    bandpass = SpectralDensity(((1.0, 2.0, 0.5),))
    bimodal = SpectralDensity(BIMODAL_SEGMENTS)
    noiseless = SpectralDensity(())

    if name == "rect":
        header = ["fs", "rate_bits_per_time", "gamma", "distortion"]
        rows = []
        for gamma, noise in (("inf", noiseless), ("5", rect_noise)):
            for i in range(2, 41):
                fs = i * 0.05
                sol = waterfill.drf_sampled_single(rect, noise, None, fs, 1.0)
                rows.append([fs, 1.0, gamma, sol.distortion])
        return header, rows
    if name == "nonmonotone":
        header = ["fs", "rate_bits_per_time", "distortion"]
        # one curve per fs, solved at every rate
        drfs = [(fs, waterfill._drf_sampled_single(bandpass, noiseless, None, fs))
                for fs in (i * 0.1 for i in range(5, 46))]
        return header, [[fs, R, drf.solve(R).distortion]
                        for R in (1.0, 2.0) for fs, drf in drfs]
    if name == "mmse-opt":
        header = ["fs", "mmse_allpass", "mmse_optimal"]
        rows = []
        for i in range(1, 41):
            fs = i * 0.08
            allp = sampling.mmse_single(bimodal, noiseless, None, fs)
            opt, _ = sampling.mmse_optimal(bimodal, noiseless, fs, 1)
            rows.append([fs, allp, opt])
        return header, rows
    if name == "opsf":
        header = ["fs", "rate_bits_per_time", "drf_allpass", "drf_optimal"]
        drfs = [(fs, waterfill._drf_sampled_single(bimodal, noiseless, None, fs),
                 waterfill._drf_sampled_optimal(bimodal, noiseless, fs, 1))
                for fs in (i * 0.08 for i in range(1, 41))]
        return header, [[fs, R, d.solve(R).distortion, d_opt.solve(R).distortion]
                        for R in (0.5, 1.0) for fs, d, d_opt in drfs]
    if name == "multi-branch":
        header = ["fs", "P", "rate_bits_per_time", "distortion"]
        rows = []
        for i in range(1, 41):
            fs = i * 0.08
            for p in (1, 2, 3):
                d = waterfill.drf_sampled_optimal(bimodal, noiseless, fs, p, 1.0).distortion
                rows.append([fs, p, 1.0, d])
            d = waterfill.d_dagger(bimodal, noiseless, fs, 1.0).distortion
            rows.append([fs, "inf", 1.0, d])
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
        _check_format(fmt)
        header, rows = _figure_rows(name)
        os.makedirs(out_dir, exist_ok=True)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        lines = [_line(header, row, fmt) for row in rows]
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return _write(header, lines, os.path.join(out_dir, f"{name}.{fmt}"), fmt)


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
    parser.add_argument("--format", dest="fmt", choices=FORMATS,
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
