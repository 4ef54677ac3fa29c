"""Batch front-end: config-driven sweeps over (fs, P, R) written as CSV.

A config is a single JSON document describing the source and noise spectra,
the sampler and the rate points.  A sweep runs over fs, and for each fs over
the rates where the mode takes one.  _sweep, the one driver of modes and
figures, builds the fs-free pieces once (a sampling._Source) and the per-fs
work once per block of consecutive fs (the oracles' windows fs by fs), as one
stack, which solves a group of rates in one call; sampling._plan sizes both.
Each mode maps a block and its rates to (rates x fs) columns and every check,
the columns' finiteness last, to a mask of that shape; one writer, _rows,
raises the first failing check with its point.  Every row is what the
one-fs functions return, so output is deterministic byte for byte.

Exit codes, from the one handler (_emit) of modes and figures: 0 success, 2
config problem (reported before any point is computed; an output file that
cannot be written is one too), 3 numerical failure (reported with the
failing point, if the failing work has one, and no output is written).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle, sampling, waterfill
from .linalg import LinalgError, _raise_first
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    except (OSError, UnicodeDecodeError) as e:  # a folder, unreadable, not UTF-8
        raise ConfigError(f"cannot read config file {path}: {e}")
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
    out = doc.get("output")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output must be a file path, got {out!r}")
    cfg = ExperimentConfig(
        source=_density_from(doc, "source"),
        noise=_density_from(doc, "noise"),
        fs_list=_fs_from(sampler.get("fs")),
        P=P,
        filters=_filters_from(sampler.get("filters"), P),
        rates=rates,
        out=out,
        oracle_K=_int_from(orc.get("K", 32), "oracle.K", 1),
        oracle_phases=_int_from(orc.get("phases", 8), "oracle.phases", 1),
    )
    if (2 * cfg.oracle_K + 1) ** 2 * cfg.oracle_phases > _MAX_ORACLE_ENTRIES:
        raise ConfigError(f"oracle block too large: (2K+1)^2 * phases > {_MAX_ORACLE_ENTRIES}")
    return cfg


def _rows(fs_list, kinds, build, rates):
    """Every output row of a sweep, in sweep order: fs, then rate.  Each block
    that sampling._plan cuts by kinds is built in turn: build(fs) returns
    (checks, at) for its fs, and at(group), for each of the plan's groups of
    rates, (rows, checks), rows[j][i] the output rows at rate j and fs i.
    checks are (fails, error) pairs, over the block's fs or (rates x fs), as
    linalg._raise_first takes them; each fs raises the first it fails, at fs
    for build's, then at (fs, R) for a group's.  The error carries the (fs, R)
    reached as its point; a block and its groups are solved at its first fs."""
    f = R = None
    try:
        for start, stop, n in sampling._plan(len(rates), *kinds):
            fs = fs_list[start:stop]
            f, R = fs[0], None
            checks, at = build(np.array(fs))
            groups = [(r, *at(rates[r:r + n])) for r in range(0, len(rates), n)]
            per_rate = [(rates[r + j], rows[j], fails, group_checks, j)  # j: its place in the group
                        for r, rows, group_checks in groups
                        for j, fails in enumerate(_fails(group_checks, (len(rows), len(fs))))]
            for i, (f, failing) in enumerate(zip(fs, _fails(checks, (len(fs),)))):
                R = None
                if failing:
                    _raise_first(checks, i)
                for R, rows, fails, group_checks, j in per_rate:
                    if fails[i]:
                        _raise_first(group_checks, (j, i))
                    yield from rows[i]
    except (NumericalFailure, WaterfillError, SpectrumError, LinalgError) as e:
        e.point = f, R
        raise


def _fails(checks, shape: tuple) -> list:
    """Whether each entry of shape fails any of checks, as nested lists; a bank's are per matrix."""
    fails = np.zeros(shape, dtype=bool)
    for check, _ in checks:
        fails |= check if check.shape == shape else check.reshape(*shape, -1).any(axis=-1)
    return fails.tolist()


def _table(checks: list, *columns) -> tuple[list, list]:
    """(rows, checks): rows[j][i] at rate j and fs i, of columns (rates x fs),
    per fs like the first, or one (an array column holds the floats), and
    checks with, last, the (rates x fs) check that every float is finite,
    made only for a block that holds one that is not."""
    rates, n = next((c.shape for c in columns if np.ndim(c) == 2), (1, len(columns[0])))
    arrays = [c for c in columns if isinstance(c, np.ndarray)]
    finite = np.isfinite(np.concatenate([c.ravel() for c in arrays])).all()
    columns = [c.tolist() if isinstance(c, np.ndarray) and c.ndim == 2 else
               [c.tolist() if isinstance(c, np.ndarray) else [c] * n] * rates for c in columns]
    rows = [[[list(row)] for row in zip(*rate)] for rate in zip(*columns)]
    if finite:
        return rows, checks
    bad = ~np.isfinite([np.broadcast_to(c, (rates, n)) for c in arrays]).all(axis=0)
    return rows, [*checks, (bad, lambda at: NumericalFailure("{} in results".format(next(
        v for v in rows[at[0]][at[1]][0] if isinstance(v, float) and not math.isfinite(v)))))]


def _sweep(mode: str, cfg: ExperimentConfig):
    """(header, rows): rows yields the sweep's output rows through _rows.
    Each mode maps a block and a group of rates to (rates x fs) columns read
    off the block's stacks (_table), and every check to a mask over the
    block's fs or (rates x fs), in the order the one-fs functions make them,
    the finiteness of the columns last; sampling._plan sizes both from each
    kind of work the mode does.  The config is checked, and work that
    needs no fs done once on the sweep's sampling._Source, here, before any row."""
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
    if mode == "drf" and cfg.filters == "optimal":
        raise ConfigError("use mode drf-optimal for optimal filters")
    fs_all, P = np.array(cfg.fs_list), cfg.P

    # the sampler's curves: the optimal filters' top translates on the
    # periods of fs/P, one folded curve, or a filter bank's eigenvalue curves
    optimal = mode in ("drf-optimal", "af-sets") or cfg.filters == "optimal"
    kinds = [src.dagger_entries(fs_all) if mode == "d-dagger" else
             src.entries(fs_all, P if optimal else None)]
    if optimal:
        curves, mmse_of = (lambda fs: sampling._top_translates(src.periods(fs, P), P),
                           lambda c: (c.mmse, c.checks))
    elif P == 1:
        curves, mmse_of = lambda fs: sampling._folded(src.periods(fs)), sampling._mmse_single
    else:
        curves, mmse_of = lambda fs: sampling._BankCurves(src.periods(fs)), sampling._mmse_multi

    if mode == "mmse":
        header = ["fs", "P", "mmse"]

        def build(fs):
            mmse, checks = mmse_of(curves(fs))
            return checks, lambda rates: _table([], fs, P, mmse)
    elif mode in ("drf", "drf-optimal", "d-dagger"):
        header = ["fs", "P", "rate_bits_per_time", "theta", "distortion", "mmse_part",
                  "lossy_part"]
        p = "inf" if mode == "d-dagger" else P

        def build(fs):
            if mode == "d-dagger":
                drf, checks = waterfill._d_dagger(src, fs), []
            else:
                c = curves(fs)
                drf, checks = waterfill._WaterfillStack.of_curves(src.sigma2, c), c.checks

            def at(rates):
                rate, over = waterfill._per_time(rates, fs)
                theta, lossy, distortion, solved = drf.solve(rate)
                return _table([over, *solved], fs, p, rate, theta, distortion, drf.mmse, lossy)
            return checks, at
    elif mode == "af-sets":
        header = ["fs", "P", "branch", "lo", "hi"]

        def build(fs):
            sets = sampling._maximal_af_sets(src.periods(fs, P), P)
            # each set lies where the ratio is positive, on its finite
            # support, so every edge is finite and no row needs that check
            rows = [[[f, P, p, iv.lo, iv.hi] for p, F in enumerate(row, start=1)
                     for iv in F.intervals] for f, row in zip(fs.tolist(), sets)]
            return [], lambda rates: ([rows], [])
    elif mode == "bounds":
        header = ["fs", "rate_bits_per_time", "drf_sampled", "idrf_stationary",
                  "mmse", "d_star_lower", "polyphase_lower", "d_dagger"]
        idrf = waterfill._idrf_stationary(src)  # reads the ratio, once per sweep
        kinds = [src.entries(fs_all, offsets=waterfill.N_DELTA), src.entries(fs_all, 1),
                 src.dagger_entries(fs_all)]

        def build(fs):
            folded = curves(fs)
            mmse, checks = sampling._mmse_single(folded)
            drf = waterfill._WaterfillStack.of_curves(src.sigma2, folded)
            polyphase = waterfill._PolyphaseBound(folded.per, waterfill.N_DELTA)
            checks.append(polyphase.check)
            # the first fs's checks come before the cuts of D*'s periods
            _raise_first(checks, 0)
            d_star = waterfill._WaterfillStack.of_curves(
                src.sigma2, sampling._top_translates(src.periods(fs, 1), 1))
            dagger = waterfill._d_dagger(src, fs)

            def at(rates):
                rate, over = waterfill._per_time(rates, fs)
                (d, a), (di, b), (ds, c), (dd, e) = (
                    stack.solve(rate)[2:] for stack in (drf, idrf, d_star, dagger))
                bound, bounded = polyphase(mmse, d, rate)
                return _table([over, *a, *b, *c, *bounded, *e],
                              fs, rate, d, di, mmse, ds, bound, dd)
            return checks, at
    else:  # oracle-check
        header = ["fs", "rate_bits_per_time", "mmse_exact", "mmse_window",
                  "drf_exact", "drf_block"]
        try:  # the one SpectrumError here is a filter the oracles cannot take
            segments = oracle._observation_segments(src)
        except SpectrumError as e:
            raise ConfigError(f"mode oracle-check: {e}") from None

        samples = 2 * cfg.oracle_K + 1  # of a window; its bit budget is R * samples / fs
        no_oracle = waterfill._WaterfillStack(np.ones(samples), np.zeros((1, samples)))

        def build(fs):
            folded = curves(fs)
            mmse, checks = sampling._mmse_single(folded)
            drf = waterfill._WaterfillStack.of_curves(src.sigma2, folded)
            orcs, errors = [None] * len(fs), np.full(len(fs), None)
            for i, f in enumerate(fs.tolist()):
                try:
                    orcs[i] = oracle._window_oracle(segments, src.sigma2, f, cfg.oracle_K,
                                                    cfg.oracle_phases)
                except (WaterfillError, SpectrumError, LinalgError) as e:
                    errors[i] = e  # raised when its fs is read
            window = np.array([orc.mmse_average.value if orc else math.nan for orc in orcs])
            # the oracles' eigenvalue waterfills as one stack, a row per fs
            # (of zeros where the oracle failed, as that fs raises first)
            rows = [orc.waterfill if orc else no_oracle for orc in orcs]
            block = waterfill._WaterfillStack(no_oracle.w, np.concatenate([r.v for r in rows]))
            block.mmse = np.concatenate([r.mmse for r in rows])
            block.scale = 1.0 / (samples * cfg.oracle_phases)

            def at(rates):
                rate, over = waterfill._per_time(rates, fs)
                distortion, solved = drf.solve(rate)[2:]
                per_sample, overflows = waterfill._per_sample(
                    rate, np.broadcast_to(fs, rate.shape), samples)
                distortion_block, solved_block = block.solve(per_sample)[2:]
                return _table([over, *solved, overflows, *solved_block],
                              fs, rate, mmse, window, distortion, distortion_block)
            return checks + [(errors.astype(bool), errors.__getitem__)], at
    return header, _rows(cfg.fs_list, kinds, build, rates)


def _sweep_rows(mode: str, Sx, Sn, fs_list, rates=(), P: int = 1, filters=None):
    """Every row of one in-memory _sweep, in sweep order: fs, then rate."""
    cfg = ExperimentConfig(Sx, Sn, fs_list, P, filters, [RateSpec(R) for R in rates], None)
    return list(_sweep(mode, cfg)[1])


def _line(header, row, fmt: str) -> str:
    """One output record, each number to 12 significant digits."""
    if fmt == "csv":
        return ",".join(v if isinstance(v, str) else format(v, ".12g") for v in row)
    return json.dumps({k: float(format(v, ".12g")) if isinstance(v, float) else v
                       for k, v in zip(header, row)}, sort_keys=True)


def _check_out_dir(out_path):
    folder = os.path.dirname(out_path) if out_path else ""
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"output directory does not exist: {folder}")


def _emit(fmt: str, sweep) -> int:
    """Write the records of sweep(), which returns (header, rows, out_path),
    to out_path, else to stdout, once every row has succeeded; returns the
    exit code: 2 for a config error (an output file that cannot be written
    too), 3 for a numerical failure, named with its point if it has one."""
    try:
        if fmt not in FORMATS:
            raise ConfigError(f"unknown output format {fmt!r}")
        header, rows, out_path = sweep()
        lines = [_line(header, row, fmt) for row in rows]
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericalFailure, WaterfillError, SpectrumError, LinalgError) as e:
        fs, R = getattr(e, "point", (None, None))
        point = "" if fs is None else f" at fs={fs:.12g}"
        rate = "" if R is None else f", R={R.value:.12g} {R.unit}"
        print(f"numerical failure{point}{rate}: {e}", file=sys.stderr)
        return 3
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


def run(config_path: str, mode: str, out: str | None = None,
        fmt: str = "csv") -> int:
    """Execute one sweep; returns the process exit code.

    Rows are computed one after another in config order.  The output is
    written only once every row has succeeded.
    """
    def sweep():
        cfg = load_config(config_path)
        out_path = out or cfg.out
        _check_out_dir(out_path)
        return (*_sweep(mode, cfg), out_path)
    return _emit(fmt, sweep)


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


def reproduce_figure(name: str, out_dir: str = ".", fmt: str = "csv") -> int:
    """Write the figure's CSV (or NDJSON) into out_dir, which is made if only
    its last folder is missing; returns the exit code."""
    def sweep():
        # out_dir may be missing if its parent folder exists, but may not be a file
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ConfigError(f"output path is not a directory: {out_dir}")
        _check_out_dir(os.path.normpath(out_dir))
        header, rows = _figure_rows(name)
        os.makedirs(out_dir, exist_ok=True)
        return header, rows, os.path.join(out_dir, f"{name}.{fmt}")
    return _emit(fmt, sweep)


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
