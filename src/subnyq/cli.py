"""Batch front-end: config-driven sweeps over (fs, P, R) written as CSV.

A config is a single JSON document describing the source and noise spectra,
the sampler and the rate points.  A sweep runs over fs, and for each fs over
the rates where the mode takes one.  _sweep, the one driver of modes and
figures, builds the fs-free pieces once (a sampling._Source) and the per-fs
work of every mode but the oracles' once per block of consecutive fs, as one
stack; at_fs reads each fs's row off its block, and a block's waterfills are
solved once per rate, for all of its rows, when its first row reads that
rate.  Points are computed one after another in config order, and every row
is what the one-fs functions return, so output is deterministic byte for byte.

Exit codes: 0 success, 2 config problem (reported before any point is
computed; an output file that cannot be written is one too), 3 numerical
failure (reported with the failing point, if the failing work has one, and
no output is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import oracle, sampling, waterfill
from .linalg import LinalgError
from .spectra import ComplexGainProfile, SpectralDensity, SpectrumError
from .waterfill import BITS_PER_SAMPLE, BITS_PER_TIME, RateSpec, WaterfillError

MODES = ("mmse", "drf", "drf-optimal", "d-dagger", "af-sets", "bounds", "oracle-check")
FIGURES = ("rect", "nonmonotone", "mmse-opt", "opsf", "multi-branch", "af-sets")
FORMATS = ("csv", "ndjson")

# Most steps in a start/stop/step fs range; a longer list may not fit memory.
_MAX_FS_STEPS = 100_000

_MAX_ORACLE_ENTRIES = 10_000_000  # of the oracle's cross covariance, (2K+1)^2 * phases
_MAX_P = 100  # filter-bank branches; a bank has P(P+1)/2 matrix entries per cell

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


def _int_from(value, name: str, minimum: int, maximum: float = math.inf) -> int:
    """A JSON integer, or a float with an integer value; no bool or string."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    n = int(value)
    if not minimum <= n <= maximum:
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{name} must be {bound}, got {n}")
    return n


def _float_from(value, name: str) -> float:
    """A finite JSON number; no bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer too large for a float
        x = math.inf
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
        return SpectralDensity(tuple(tuple(_float_from(v, "a segment entry") for v in s)
                                     for s in segs))
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
            segs = []
            for s in branch:
                # lo, hi, real part and an optional imaginary part
                lo, hi, re, *im = (_float_from(v, "a gain segment entry") for v in s)
                segs.append((lo, hi, complex(re, *im)))
            branches.append(ComplexGainProfile(segs))
        except (SpectrumError, TypeError, ValueError) as e:
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
    P = _int_from(sampler.get("P", 1), "sampler.P", 1, _MAX_P)
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
    cfg = ExperimentConfig(
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
    if (2 * cfg.oracle_K + 1) ** 2 * cfg.oracle_phases > _MAX_ORACLE_ENTRIES:
        raise ConfigError(f"oracle block too large: (2K+1)^2 * phases > {_MAX_ORACLE_ENTRIES}")
    return cfg


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if not math.isfinite(x):
        raise NumericalFailure(f"{x} in results")
    return f"{x:.12g}"


def _rows(fs_list, blocks, build, row=lambda work, i: work.row(i)):
    """at_fs's reader of per-fs work built a block of consecutive fs at a time.

    blocks yields the sweep's blocks in order (sampling._Period blocks, or
    arrays of fs); build(block) makes a block's work when its first fs is
    read, and row(work, i) reads row i of it.  The reader is called once per
    fs of fs_list, in order, so a failure is raised at the fs whose block or
    row it belongs to.
    """
    def reads():
        fs_left = iter(fs_list)
        for per in blocks:
            work = build(per)
            for i in range(len(per)):
                yield next(fs_left), work, i

    it = reads()

    def read(fs):
        expected, work, i = next(it)
        if fs != expected:
            raise ValueError(f"at_fs takes the sweep's fs in order: {expected} next, got {fs}")
        return row(work, i)
    return read


def _sweep(mode: str, cfg: ExperimentConfig):
    """(header, at_fs, rates): at_fs(fs) reads the curves, waterfills and
    oracles of one fs and returns rows_at, and rows_at(R) reads the rows of the
    point (fs, R) off them.  at_fs takes the fs of cfg.fs_list once each, in
    order: every path but the oracles builds its per-fs work as one stack per
    block of consecutive fs (sampling._Source.blocks), and work that needs no
    fs is done once, on the sweep's sampling._Source.  rates is [None] in the
    modes that take no rate."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode in ("bounds", "oracle-check") and (cfg.P != 1 or cfg.filters == "optimal"):
        raise ConfigError(f"mode {mode} takes P = 1 and no optimal filters")
    if mode in ("drf-optimal", "d-dagger", "af-sets") and isinstance(cfg.filters, list):
        raise ConfigError(f"mode {mode} chooses its own filters; drop the filter list")
    rates = [None] if mode in ("mmse", "af-sets") else cfg.rates
    if not rates:
        raise ConfigError(f"mode {mode} needs at least one rate")
    branches = cfg.filters if isinstance(cfg.filters, list) else [None] * cfg.P
    src = sampling._Source(cfg.source, cfg.noise, branches)
    src.grid  # read before the first fs: an overflowing level or gain fails the sweep
    fs_list = cfg.fs_list

    def periods(build, row=lambda work, i: work.row(i), P=None):
        """A reader of work built on the blocks of the source's periods (of
        fs/P, cut at the SNR ratio, when P is given)."""
        return _rows(fs_list, src.blocks(fs_list, P), build, row)

    def daggers():
        return _rows(fs_list, src.fs_blocks(fs_list), lambda fs: waterfill._d_dagger(src, fs))

    if mode == "mmse":
        header = ["fs", "P", "mmse"]
        if cfg.filters == "optimal":
            value = periods(lambda per: sampling._top_translates(per, cfg.P),
                            sampling._mmse_optimal, cfg.P)
        elif cfg.P == 1:
            value = periods(sampling._folded,
                            lambda curves, i: sampling._mmse_and_curve(curves, i)[0])
        else:
            value = periods(sampling._BankCurves, sampling._mmse_multi)

        def at_fs(fs):
            val = value(fs)
            return lambda R: [[fs, cfg.P, val]]
    elif mode in ("drf", "drf-optimal", "d-dagger"):
        if mode == "drf" and cfg.filters == "optimal":
            raise ConfigError("use mode drf-optimal for optimal filters")
        header = ["fs", "P", "rate_bits_per_time", "theta", "distortion", "mmse_part",
                  "lossy_part"]
        p = "inf" if mode == "d-dagger" else cfg.P
        if mode == "d-dagger":
            drf_at = daggers()
        elif mode == "drf-optimal":
            drf_at = periods(lambda per: waterfill._drf_sampled_optimal(per, cfg.P), P=cfg.P)
        else:
            drf_at = periods(waterfill._drf_sampled_single if cfg.P == 1
                             else waterfill._drf_sampled_multi)

        def at_fs(fs):
            drf = drf_at(fs)

            def rows_at(R):
                sol = drf.solve(R)
                return [[fs, p, sol.rate, sol.theta, sol.distortion, sol.mmse_part,
                         sol.lossy_part]]
            return rows_at
    elif mode == "af-sets":
        header = ["fs", "P", "branch", "lo", "hi"]
        sets_at = periods(lambda per: sampling._maximal_af_sets(per, cfg.P),
                          lambda sets_of, i: sets_of(i), cfg.P)

        def at_fs(fs):
            rows = [[fs, cfg.P, p, iv.lo, iv.hi]
                    for p, F in enumerate(sets_at(fs), start=1) for iv in F.intervals]
            return lambda R: rows
    elif mode == "bounds":
        header = ["fs", "rate_bits_per_time", "drf_sampled", "idrf_stationary",
                  "mmse", "d_star_lower", "polyphase_lower", "d_dagger"]
        idrf = waterfill._idrf_stationary(src)  # reads the ratio, once per sweep
        source = periods(lambda per: (*_folded_and_drf(per),
                                      waterfill._polyphase_lower_bound(per)), _folded_row)
        d_star_at = periods(waterfill._d_star_lower_bound, P=1)
        dagger_at = daggers()

        def at_fs(fs):
            mmse, drf, polyphase = source(fs)
            d_star = d_star_at(fs)
            dd = dagger_at(fs)

            def rows_at(R):
                r = R.per_time(fs)
                d = drf.solve(R).distortion
                return [[fs, r, d, idrf.solve(R, fs).distortion, mmse,
                         d_star.solve(R).distortion, polyphase(R, d), dd.solve(R).distortion]]
            return rows_at
    else:  # oracle-check
        header = ["fs", "rate_bits_per_time", "mmse_exact", "mmse_window",
                  "drf_exact", "drf_block"]
        try:  # the one SpectrumError here is a filter the oracles cannot take
            segments = oracle._observation_segments(src)
        except SpectrumError as e:
            raise ConfigError(f"mode oracle-check: {e}") from None
        source = periods(_folded_and_drf, _folded_row)

        def at_fs(fs):
            mmse, drf = source(fs)
            orc = oracle._window_oracle(segments, src.sigma2, fs, cfg.oracle_K,
                                         cfg.oracle_phases)

            def rows_at(R):
                r = R.per_time(fs)
                return [[fs, r, mmse, orc.mmse_average.value,
                         drf.solve(R).distortion, orc.distortion(r)]]
            return rows_at
    return header, at_fs, rates


def _folded_and_drf(per):
    """A source block's folded curves and drf_sampled_single waterfills."""
    curves = sampling._folded(per)
    return curves, waterfill._WaterfillStack.of_curves(per.src.sigma2, curves)


def _folded_row(work, i):
    """(mmse, drf waterfill) of row i of _folded_and_drf's work, and its
    polyphase bound where the work holds the block's ones after it."""
    curves, drfs, *polyphase = work
    mmse, _ = sampling._mmse_and_curve(curves, i)
    return (mmse, drfs.row(i), *(bound(i, mmse) for bound in polyphase))


def _sweep_rows(mode: str, Sx, Sn, fs_list, rates=(), P: int = 1, filters=None):
    """Every row of one in-memory _sweep, in sweep order: fs, then rate."""
    cfg = ExperimentConfig(Sx, Sn, fs_list, P, filters, [RateSpec(R) for R in rates], None)
    _, at_fs, rates = _sweep(mode, cfg)
    return [row for fs in fs_list for rows_at in [at_fs(fs)] for R in rates for row in rows_at(R)]


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
    """(header, rows): columns of in-memory sweeps' rows, stably sorted."""
    rect = SpectralDensity(((0.0, 0.5, 1.0),))
    rect_noise = SpectralDensity(((0.0, 0.5, 0.2),))  # gamma = 5
    bandpass = SpectralDensity(((1.0, 2.0, 0.5),))
    bimodal = SpectralDensity(BIMODAL_SEGMENTS)
    noiseless = SpectralDensity(())
    fs_bimodal = [i * 0.08 for i in range(1, 41)]

    def by(col, rows):
        return sorted(rows, key=lambda row: row[col])

    if name == "rect":
        return ["fs", "rate_bits_per_time", "gamma", "distortion"], [
            [r[0], r[2], gamma, r[4]] for gamma, noise in (("inf", noiseless), ("5", rect_noise))
            for r in _sweep_rows("drf", rect, noise, [i * 0.05 for i in range(2, 41)], [1.0])]
    if name == "nonmonotone":
        rows = _sweep_rows("drf", bandpass, noiseless, [i * 0.1 for i in range(5, 46)], [1.0, 2.0])
        return ["fs", "rate_bits_per_time", "distortion"], by(1, [
            [r[0], r[2], r[4]] for r in rows])
    if name == "mmse-opt":
        allpass, optimal = (_sweep_rows("mmse", bimodal, noiseless, fs_bimodal, filters=f)
                            for f in (None, "optimal"))
        return ["fs", "mmse_allpass", "mmse_optimal"], [
            [a[0], a[2], o[2]] for a, o in zip(allpass, optimal)]
    if name == "opsf":
        allpass, optimal = (_sweep_rows(mode, bimodal, noiseless, fs_bimodal, [0.5, 1.0])
                            for mode in ("drf", "drf-optimal"))
        return ["fs", "rate_bits_per_time", "drf_allpass", "drf_optimal"], by(1, [
            [a[0], a[2], a[4], o[4]] for a, o in zip(allpass, optimal)])
    if name == "multi-branch":
        rows = [r for p in (1, 2, 3)
                for r in _sweep_rows("drf-optimal", bimodal, noiseless, fs_bimodal, [1.0], P=p)]
        rows += _sweep_rows("d-dagger", bimodal, noiseless, fs_bimodal, [1.0])
        return ["fs", "P", "rate_bits_per_time", "distortion"], by(0, [
            [r[0], r[1], r[2], r[4]] for r in rows])
    if name == "af-sets":
        return ["fs", "P", "branch", "lo", "hi"], by(0, [
            r for p in (1, 2, 3)
            for r in _sweep_rows("af-sets", bimodal, noiseless, [0.96, 1.92], P=p)])
    raise ConfigError(f"unknown figure {name!r}")


def _check_figure_dir(out_dir: str):
    """out_dir may be missing if its parent folder exists, but may not be a file."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ConfigError(f"output path is not a directory: {out_dir}")
    _check_out_dir(os.path.normpath(out_dir))


def reproduce_figure(name: str, out_dir: str = ".", fmt: str = "csv") -> int:
    """Write the figure's CSV (or NDJSON) into out_dir, which is made if only
    its last folder is missing; returns the exit code."""
    try:
        _check_format(fmt)
        _check_figure_dir(out_dir)
        header, rows = _figure_rows(name)
        os.makedirs(out_dir, exist_ok=True)
        lines = [_line(header, row, fmt) for row in rows]
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    return _write(header, lines, os.path.join(out_dir, f"{name}.{fmt}"), fmt)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="subnyq",
        description="Distortion-rate sweeps for sampled Gaussian sources",
    )
    parser.add_argument("mode", choices=MODES + ("figure",))
    parser.add_argument("--config", help="path to the JSON experiment config (not in "
                        "mode 'figure')")
    parser.add_argument("--out", help="output file (default: config's, else stdout); in "
                        "mode 'figure' a folder, made if only its last part is missing")
    # accepted and ignored: the filter-bank grid is exact, so a resolution
    # has nothing left to set
    parser.add_argument("--grid", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--figure", choices=FIGURES,
                        help="figure name (mode 'figure' only)")
    parser.add_argument("--format", dest="fmt", choices=FORMATS,
                        default="csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    # a setting the mode would ignore is refused, as in a config
    if args.mode == "figure":
        cause = ("--figure is required for mode 'figure'" if not args.figure else
                 "mode figure takes no --config" if args.config is not None else None)
    else:
        cause = ("--config is required" if not args.config else
                 "--figure is for mode 'figure' only" if args.figure else None)
    if cause:
        print(f"config error: {cause}", file=sys.stderr)
        return 2
    if args.mode == "figure":
        return reproduce_figure(args.figure, args.out or ".", args.fmt)
    return run(args.config, args.mode, args.out, args.fmt)


if __name__ == "__main__":
    sys.exit(main())
