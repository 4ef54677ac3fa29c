"""From spectra to waterfilling inputs.

This module owns everything that depends on the sampler: the scalar
conditional spectrum given single-branch samples, its P x P generalization
for filter banks, the MMSE values, the maximal aliasing-free sets (the
supports of the optimal filters), the sampling-rate bound on the MMSE and the
polyphase decomposition.  Each curve, MMSE and set function is a thin caller
of a private form.  The fs-free pieces of (Sx, Sn, branches) live on a
_Source, which a sweep builds once.

The per-fs work of a sweep is one stack per block of consecutive fs
(src.bounds): a _Period holds the periods (-fs/2, fs/2) of a block as rows,
cut in one vectorised step (of fs/P, cut at the SNR ratio, for D* and the
optimal filters and sets), with their translate counts and aliased
denominator.  Every path reads the block: the folded curves, the top
translates, the filter bank's eigenvalue curves (_BankCurves, one stacked
eigen-solve over the block's (rows x cells) P x P matrices), the MMSEs, the
polyphase spectra and the MMSE cross-check (_unfolded_mmse, which shares no
cut with the folded path); the sets read each row's own cells off it.  Rows
are padded with zero-width cells and zero translates, which move no bit of a
row as its sums add in order (spectra._ordered_sum).  Each check is a mask
over the block's rows with the error it raises (a (fails, error) pair, as
linalg._raise_first takes it), so a row is what the one-fs functions return
(a one-row block, whose checks they raise) and a failure names its own fs.

Every path is exact: inputs are piecewise-constant, and every grid is cut at
the translate lattice of the breakpoints before values are read off, so the
curves returned here are the true piecewise-constant functions, not samples
of them.  All translates S(f - k*fs) come from one kernel, spectra._translates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import _hermitian, _inv_sqrt_psd, _raise_first, hermitian
from .spectra import (
    _MAX_BLOCK_ENTRIES,
    BP_TOL,
    ComplexGainProfile,
    FrequencySet,
    SpectralDensity,
    SpectrumError,
    _alias_grids,
    _as_finite,
    _check_count,
    _check_fs,
    _dedup,
    _ordered_sum,
    _pw_eval,
    _pw_from_density,
    _pw_from_gain,
    _pw_support_radius,
    _Pw,
    _translate_count,
    _translate_counts,
    _translates,
    snr_ratio,
    superlevel_set_of_measure,
)

__all__ = [
    "SamplerSpec",
    "ScalarCurve",
    "EigenCurves",
    "s_tilde_single",
    "mmse_single",
    "build_branch_matrices",
    "eigen_curves_multi",
    "mmse_multi",
    "maximal_af_sets",
    "mmse_optimal",
    "landau_mmse_bound",
    "polyphase_conditional_psd",
]


@dataclass(frozen=True)
class SamplerSpec:
    """Uniform sampler: P filter branches, each sampled at fs/P.

    A branch gain of None stands for the ideal all-pass (identically 1);
    explicit profiles must have bounded support.
    """

    fs: float
    branches: tuple

    def __init__(self, fs: float, branches: Sequence[ComplexGainProfile | None]):
        fs = _check_fs(fs)
        branches = tuple(branches)
        if len(branches) < 1:
            raise SpectrumError("need at least one branch")
        for b in branches:
            if b is not None and not isinstance(b, ComplexGainProfile):
                raise SpectrumError(f"bad branch filter {b!r}")
        object.__setattr__(self, "fs", fs)
        object.__setattr__(self, "branches", branches)

    @property
    def P(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class ScalarCurve:
    """Piecewise-constant nonnegative curve on the interval (bp[0], bp[-1])."""

    bp: np.ndarray
    vals: np.ndarray

    def widths(self) -> np.ndarray:
        return np.diff(self.bp)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        return self.widths(), self.vals

    def integral(self) -> float:
        return float(np.sum(self.widths() * self.vals))

    def max_value(self) -> float:
        return float(np.max(self.vals)) if self.vals.size else 0.0

    def evaluate(self, f: float) -> float:
        return float(_pw_eval(_Pw(self.bp, self.vals), np.array([f]))[0])


@dataclass(frozen=True)
class EigenCurves:
    """Per-frequency ascending eigenvalue curves on a common grid.

    lam has shape (n_cells, P); row i holds the eigenvalues on the cell
    (bp[i], bp[i+1]) sorted ascending.
    """

    bp: np.ndarray
    lam: np.ndarray

    @property
    def P(self) -> int:
        return self.lam.shape[1]

    def widths(self) -> np.ndarray:
        return np.diff(self.bp)

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        w = np.repeat(self.widths(), self.lam.shape[1])
        return w, self.lam.ravel()

    def trace_integral(self) -> float:
        return float(np.sum(self.widths() * self.lam.sum(axis=1)))


class _Period:
    """The periods (-step/2, step/2) of a block of steps, one row per step, each
    cut at every translate of pw's breakpoints: grid and mids, cells (the cell
    count), kmax (the translate count), den (pw aliased, built when first read),
    src and fs, each row's sampling rate (by default its step).  Rows are
    padded to one width with zero-width cells at their top edge, whose mids
    sit at +inf, where every piece reads 0; translates() pads each row's
    translates with zero rows up to the block's largest count.  Translates
    are summed with _ordered_sum, in ascending k, so the padding moves no bit
    and a row's sums, maxima and sorts come out as in a block of its own."""

    def __init__(self, pw: _Pw, steps, src: _Source | None = None, fs=None):
        self.pw, self.src = pw, src
        self.steps = np.asarray(steps, dtype=float)
        self.fs = self.steps if fs is None else np.asarray(fs, dtype=float)
        kmax, ok = _translate_counts(pw, self.steps)
        if not ok.all():  # the first failing step raises its own error
            first = np.argmin(ok)
            step, fs = float(self.steps[first]), float(self.fs[first])
            _check_fs(step)
            _translate_count(pw, step, step / 2.0, "" if step == fs else
                             f"fs/P = {step:g} (fs = {fs:g})")
        self.kmax = kmax.astype(int)
        self.grid, self.cells = _alias_grids(pw, self.steps, self.kmax)
        mids = 0.5 * (self.grid[:, :-1] + self.grid[:, 1:])
        self.mids = np.where(np.arange(mids.shape[1]) < self.cells[:, None], mids, np.inf)

    def __len__(self) -> int:
        return len(self.steps)

    def translates(self, pw: _Pw) -> np.ndarray:
        """pw(mids - step*k) on every row, (rows, translates, cells)."""
        return _translates(pw, self.steps, self.mids, int(self.kmax.max()))

    den = cached_property(lambda self: _ordered_sum(self.translates(self.pw), axis=1))


def _block_bounds(pw: _Pw, kmax: np.ndarray, ok: np.ndarray, width: int = 1):
    """(start, stop) of the blocks of consecutive rows, in order, given each
    row's translate count and check (_translate_counts): as many rows as keep
    rows x cells x (the larger of a row's translates and width, the entries a
    cell holds besides) within _MAX_BLOCK_ENTRIES, where a row's cells are
    taken at their most, one more than pw's breakpoints (each lands inside a
    period once at most).  A row that fails its check is a block of its own,
    whose _Period raises its error."""
    cells = len(pw.bp) + 1
    most = _MAX_BLOCK_ENTRIES // (max(5, width) * cells) + 1  # kmax >= 2: 5 translates at least
    start = 0
    while start < len(kmax):
        rows = slice(start, start + most)
        fits = np.logical_and.accumulate(ok[rows]) & (
            np.arange(1, len(kmax[rows]) + 1)
            * np.maximum.accumulate(np.maximum(2 * kmax[rows] + 1, width))
            <= _MAX_BLOCK_ENTRIES // cells)
        stop = start + max(1, int(fits.sum()))
        yield start, stop
        start = stop


class _Source:
    """The pieces of (Sx, Sn, branches) that need no fs, each built when first
    read, so a sweep builds each once and a mode only those it uses.  A gain
    of None is the all-pass.  grid is cut at every breakpoint of Sx, Sn and
    the branches; H and pws are the first branch's, pairs the filter bank's,
    and ratio and ratio_pw feed the optimal filters and the bounds.  grid
    names a level or gain whose squared products overflow (with no numpy
    warning), so ratio reads it first."""

    def __init__(self, Sx: SpectralDensity, Sn: SpectralDensity, branches=(None,)):
        self.Sx, self.Sn, self.branches = Sx, Sn, tuple(branches)
        self.H = self.branches[0]

    sigma2 = cached_property(lambda self: self.Sx.total_power())
    px = cached_property(lambda self: _pw_from_density(self.Sx))  # Sx on the full line
    ratio = cached_property(lambda self: self.grid and snr_ratio(self.Sx, self.Sn))
    ratio_pw = cached_property(lambda self: _pw_from_density(self.ratio))  # on the full line

    @cached_property
    def grid(self):
        """(bp, mids, x, z, g): Sx, Sx+Sn and one row of g per branch gain."""
        gains = [None if b is None else _pw_from_gain(b) for b in self.branches]
        pn = _pw_from_density(self.Sn)
        bp = _dedup(np.concatenate([self.px.bp, pn.bp, *(h.bp for h in gains if h is not None)]))
        mids = 0.5 * (bp[:-1] + bp[1:])
        x, n = _pw_eval(self.px, mids), _pw_eval(pn, mids)
        g = np.array([np.ones_like(mids, dtype=complex) if h is None else _pw_eval(h, mids)
                      for h in gains])
        with np.errstate(over="ignore", invalid="ignore"):  # named below instead
            sq, z = x * x, x + n  # z is finite wherever sq is
            fits = np.isfinite(np.array([sq, z])[:, None] * np.abs(g) ** 2).all(axis=0)
        for what, v, ok in (("source level", x, np.isfinite(sq)), ("filter gain", g, fits)):
            if not ok.all():
                raise SpectrumError(f"{what} {v[~ok][0]:g} overflows Sx^2|H|^2 or (Sx+Sn)|H|^2")
        return bp, mids, x, z, g

    @cached_property
    def pws(self) -> tuple[_Pw, _Pw, _Pw]:
        """Numerator Sx^2|H|^2, denominator (Sx+Sn)|H|^2 and cross term Sx conj(H)."""
        bp, _, x, z, g = self.grid
        w = np.abs(g[0]) ** 2
        return _Pw(bp, x * x * w), _Pw(bp, z * w), _Pw(bp, x * np.conj(g[0]))

    @cached_property
    def pairs(self) -> _Pw:
        """The filter bank's pieces as one stack: conj(H_i)H_j times Sx+Sn for
        each branch pair i <= j, in np.triu_indices order, then each times Sx^2."""
        bp, _, x, z, g = self.grid
        i, j = np.triu_indices(len(g))
        w = np.conj(g[i]) * g[j]
        return _Pw(bp, np.concatenate([z * w, x * x * w]))

    @cached_property
    def period_pw(self) -> _Pw:
        """(Sx+Sn) max_i |H_i|^2: every piece here lies on its breakpoints and
        inside its support, so that one cut of it serves all."""
        bp, _, _, z, g = self.grid
        return _Pw(bp, z * (np.abs(g) ** 2).max(axis=0))

    def _cut(self, fs, P: int | None) -> tuple[_Pw, np.ndarray, np.ndarray]:
        """(pw, steps, fs) of the periods of fs: period_pw and fs, or with P
        the SNR ratio, whose breakpoints differ, and fs/P (D* and the optimal
        filters)."""
        fs = np.asarray(fs, dtype=float)
        if P is None:
            return self.period_pw, fs, fs
        return self.ratio_pw, fs / P, fs

    def periods(self, fs, P: int | None = None) -> _Period:
        """The periods of the fs in fs as one block."""
        pw, steps, fs = self._cut(fs, P)
        return _Period(pw, steps, self, fs=fs)

    def bounds(self, fs, P: int | None = None, width: int = 1):
        """(start, stop) of the blocks of consecutive fs of fs, in order, on
        which periods(fs[start:stop], P) keeps within _block_bounds' budget: a
        cell of the source's periods holds a bank's P x P matrix entries too,
        and each cell width entries at least (the polyphase bound's offsets)."""
        pw, steps, _ = self._cut(fs, P)
        width = max(width, len(self.branches) ** 2) if P is None else width
        yield from _block_bounds(pw, *_translate_counts(pw, steps), width)

    def fs_bounds(self, fs):
        """(start, stop) of the blocks of consecutive fs of fs for D-dagger,
        whose (rows x pieces) stay within _MAX_BLOCK_ENTRIES.  A row holds
        fewer than 4n pieces of the ratio's n segments: on each side of 0, n
        disjoint segment halves meet at most n disjoint set intervals (each
        begins at a segment it takes) in fewer than 2n places."""
        rows = max(1, _MAX_BLOCK_ENTRIES // (4 * len(self.ratio.segments) + 1))
        for start in range(0, len(fs), rows):
            yield start, min(start + rows, len(fs))


def _safe_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 0; a may carry leading axes over b's."""
    out = np.zeros_like(a, dtype=float)
    nz = b > 0
    out[..., nz] = a[..., nz] / b[nz]
    return out


class _Curves:
    """Curves on the rows of a period block, as one stack: row i holds the
    curves values[i, p] (the one folded curve, or the P top translates) on the
    cells of per.grid[i], whose widths are w[i]; padding cells have zero width
    and value, and a row with fewer translates than curves has zero curves
    first.  Sums over a row run in order (_ordered_sum), so that padding moves
    no bit of them: integral holds each row's, and mmse the source power less
    it (_mmse).  checks fails on the folded rows above their translate bound,
    marked in over.  For a folded block, unfolded holds each row's MMSE
    cross-check (_unfolded_mmse), made for the whole block when first read."""

    def __init__(self, per: _Period, values: np.ndarray, over=None):
        self.per, self.values, self.over = per, values, over
        self.w = np.diff(per.grid, axis=1)
        self.checks = [] if over is None else [(over, lambda i: SpectrumError(
            "conditional spectrum exceeded its translate bound"))]

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v), each (rows, curves x cells): each row's pieces, curve by curve."""
        v = self.values.reshape(len(self.values), -1)
        return np.broadcast_to(self.w[:, None, :], self.values.shape).reshape(v.shape), v

    unfolded = cached_property(lambda self: _unfolded_mmse(self.per.src, self.per.steps))
    integral = cached_property(lambda self: _ordered_sum(np.multiply(*self.pieces())))
    mmse = cached_property(lambda self: _mmse(self.per.src.sigma2, self.integral))

    def curve(self, i: int) -> ScalarCurve:
        """Row i's first curve on its own cells, once the row passes its
        checks: s_tilde_single, for a folded row."""
        _raise_first(self.checks, i)
        c = self.per.cells[i]
        return ScalarCurve(self.per.grid[i, :c + 1], self.values[i, 0, :c])


def _folded(per: _Period) -> _Curves:
    """s_tilde_single on every row of a one-branch source's period block, whose
    den is the aliased (Sx+Sn)|H|^2."""
    num, den, _ = per.src.pws
    vals = _safe_ratio(_ordered_sum(per.translates(num), axis=1), per.den)

    # structural sanity: the curve can never exceed the best single translate
    # of the per-frequency ratio Sx^2/(Sx+Sn) restricted to the filter support
    sup = per.translates(_Pw(num.bp, _safe_ratio(num.vals, den.vals))).max(axis=1)
    tol = 1e-9 * np.maximum(1.0, sup.max(axis=1, initial=0.0))
    return _Curves(per, vals[:, None, :], over=np.any(vals > sup + tol[:, None], axis=1))


def s_tilde_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
) -> ScalarCurve:
    """Conditional spectrum of the source given the samples, on (-fs/2, fs/2).

    value(f) = sum_k Sx^2|H|^2 (f - fs k) / sum_k (Sx+Sn)|H|^2 (f - fs k),
    with 0/0 read as 0.  Only |H|^2 enters, so the phase of the pre-sampling
    filter is irrelevant by construction.
    """
    return _folded(_Source(Sx, Sn, [H]).periods([_check_fs(fs)])).curve(0)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, at): counts[i] entries owned by each i in turn, and each one's
    place among its owner's."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _unfolded_mmse(src: _Source, steps: np.ndarray) -> np.ndarray:
    """The MMSE at each step as the unfolded integral over the line: that of Sx
    less that of Sx^2|H|^2 over the aliased (Sx+Sn)|H|^2 on (-r, r), where r is
    the support radius of (Sx+Sn)|H|^2, outside which Sx^2|H|^2 is 0.

    It cross-checks the folded MMSE, so it shares no cut with it: each row's
    period is cut by every shift of the breakpoints (not by the nearest shift
    alone, as _alias_grids cuts it), its translates summed, and the period
    tiled over (-r, r); the line is cut at those tiles and at the numerator's
    breakpoints, merged within BP_TOL as _dedup merges them, and each merged
    cell reads the tiled cell that holds it.  The rows lie end to end in flat
    arrays, each with its own shifts, cells and tiles: a row has no more tiles
    than translates, and no more cells than breakpoints plus one."""
    num, den, _ = src.pws
    x = float(np.sum(np.diff(src.px.bp) * src.px.vals))
    r = _pw_support_radius(den)
    if r == 0:  # nothing is observed, so nothing is estimated
        return np.full(len(steps), x)
    every = np.arange(len(steps))
    kmax = _translate_counts(den, steps)[0].astype(int)

    # each row's period, cut at every shift of den's breakpoints that lands in it
    row, k = _ragged(2 * kmax + 1)
    with np.errstate(over="ignore"):  # a shift past the float range lands outside
        pts = den.bp + (steps[row] * (k - kmax[row]))[:, None]
    row = np.broadcast_to(row[:, None], pts.shape)
    inside = np.abs(pts) < steps[row] / 2.0
    row = np.concatenate((every, every, row[inside]))
    pts = np.concatenate((-steps / 2.0, steps / 2.0, pts[inside]))
    order = np.lexsort((pts, row))
    row, pts = row[order], pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (np.diff(pts) > BP_TOL) | (row[1:] != row[:-1])
    row, pts = row[keep], pts[keep]
    same = row[1:] == row[:-1]
    cell, lo = row[:-1][same], pts[:-1][same]
    mids = 0.5 * (lo + pts[1:][same])
    at, k = _ragged(2 * kmax[cell] + 1)
    with np.errstate(over="ignore"):  # a shift past the float range reads 0
        shifted = mids[at] - steps[cell[at]] * (k - kmax[cell[at]])
    aliased = np.bincount(at, _pw_eval(den, shifted), len(mids))

    # tile j of a row is its period shifted by step*j; the tiles run from the
    # one that holds -r to the one that holds r, and each tiled cell's low edge
    # below r is a point that carries the cell's aliased value
    j_lo = np.floor(-r / steps + 0.5)
    at, j = _ragged((np.ceil(r / steps - 0.5) - j_lo + 1).astype(int)[cell])
    edge = lo[at] + steps[cell[at]] * (j_lo[cell[at]] + j)
    below = edge < r
    inner = num.bp[(num.bp > -r) & (num.bp < r)]
    row = np.concatenate((every, np.repeat(every, len(inner)), every, cell[at][below]))
    pts = np.concatenate((np.full(len(steps), -r), np.tile(inner, len(steps)),
                          np.full(len(steps), r), edge[below]))
    value = np.concatenate((np.full(len(steps) * (len(inner) + 2), np.nan), aliased[at][below]))
    order = np.lexsort((pts, row))
    row, pts, value = row[order], pts[order], value[order]
    # edges at or below -r only give the first cell its value; -r stays
    keep = pts >= -r
    keep[1:] &= (np.diff(pts) > BP_TOL) | (pts[1:] == -r)

    # a kept point's cell runs to the next kept point of its row and reads the
    # value of the last edge before that
    n = len(pts)
    at = np.arange(n)
    last = np.maximum.accumulate(np.where(np.isnan(value), 0, at))
    nxt = np.minimum.accumulate(np.where(keep, at, n)[::-1])[::-1]
    nxt = np.append(nxt[1:], n)
    end = np.minimum(nxt, n - 1)
    cells = keep & (nxt < n) & (row[end] == row)
    w = np.where(cells, pts[end] - pts, 0.0)
    mids = np.where(cells, 0.5 * (pts + pts[end]), np.inf)
    frac = _safe_ratio(_pw_eval(num, mids), value[last[end - 1]])  # a NaN value reads as 0
    return x - np.bincount(row, w * frac, len(steps))


def _mmse(sigma2, integral):
    """The MMSE, sigma2 (the source power) less the integral of the
    estimator's spectrum, per entry: floored at 0, as an MMSE whose exact
    value is 0 can round below it."""
    return np.maximum(sigma2 - integral, 0.0)


def _mmse_single(curves: _Curves) -> tuple[np.ndarray, list]:
    """mmse_single on every row of a folded block, and its checks in the order
    they are made: the translate bound, then the cross-check against the
    unfolded MMSE (written so that a NaN residual fails too)."""
    sigma2, value, alt = curves.per.src.sigma2, curves.mmse, curves.unfolded
    off = ~(np.abs(alt - value) <= 1e-10 * max(1.0, sigma2))
    return value, curves.checks + [(off, lambda i: SpectrumError(
        f"mmse cross-check failed: folded {float(value[i])} vs unfolded {float(alt[i])}"))]


def _row_zero(column: np.ndarray, checks: list) -> float:
    """Row 0 of a one-row block's column, once the row passes its checks."""
    _raise_first(checks, 0)
    return float(column[0])


def mmse_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
) -> float:
    """MMSE of estimating the source from single-branch samples at rate fs."""
    return _row_zero(*_mmse_single(_folded(_Source(Sx, Sn, [H]).periods([_check_fs(fs)]))))


def _branch_matrices(src: _Source, steps, pts: np.ndarray, kmax: int) -> np.ndarray:
    """S_Y and K at pts, (2, *pts.shape, P, P): src.pairs summed over the
    translates by steps (one per row of pts, or one for all), |k| <= kmax, in
    ascending k (_ordered_sum), in calls of pieces x translates x points within
    _MAX_BLOCK_ENTRIES (one piece at least); the diagonal keeps its own value."""
    pairs, P = src.pairs, len(src.branches)
    size = max(1, _MAX_BLOCK_ENTRIES // ((2 * kmax + 1) * pts.size))
    sums = np.concatenate([
        _ordered_sum(_translates(_Pw(pairs.bp, pairs.vals[at:at + size]), steps, pts, kmax),
                     axis=-2)
        for at in range(0, len(pairs.vals), size)])
    entries = np.moveaxis(sums.reshape(2, -1, *pts.shape), 1, -1)
    i, j = np.triu_indices(P)
    m = np.empty((2, *pts.shape, P, P), dtype=complex)
    m[..., j, i] = np.conj(entries)
    m[..., i, j] = entries
    return m


def build_branch_matrices(
    Sx: SpectralDensity, Sn: SpectralDensity, spec: SamplerSpec, f: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observation matrix S_Y(f) and weight matrix K(f) for the filter bank.

    Entry (i,j) of S_Y is the fs-aliased sum of (Sx+Sn) conj(H_i) H_j, and of
    K the same with Sx^2 in place of (Sx+Sn).  Both come back as P x P
    complex arrays, checked Hermitian and positive semidefinite.
    """
    f, src = _as_finite(f, "f"), _Source(Sx, Sn, spec.branches)
    # period_pw covers every pair piece, so its count serves them all; the
    # count at the period's edge checks fs, and one at a larger |f| checks f
    kmax = _translate_count(src.period_pw, spec.fs, spec.fs / 2.0)
    if abs(f) > spec.fs / 2.0:
        kmax = _translate_count(src.period_pw, spec.fs, abs(f), f"f = {f:g} at fs = {spec.fs:g}")
    m = hermitian(_branch_matrices(src, spec.fs, np.array([f]), kmax).reshape(2, spec.P, spec.P))
    w = np.linalg.eigh(m)[0]
    low = w[:, 0] < -1e-10 * np.maximum(1.0, w[:, -1])
    if np.any(low):
        raise SpectrumError(f"branch matrix not PSD: min eigenvalue {w[low, 0][0]}")
    return m[0], m[1]


class _BankCurves:
    """A filter bank's eigenvalue curves on the rows of a period block, from one
    stacked solve of its (rows x cells) P x P matrices: lam (rows, cells, P),
    ascending and clipped at 0.  pieces() lays a row's out cell by cell, as
    EigenCurves.pieces does, and integral holds their sums in order.  checks
    are made in this order: S_Y Hermitian and PSD, S_Y^-1/2 and S_Y^-1/2 K
    S_Y^-1/2 Hermitian, no eigenvalue below 0 past round-off, and the trace
    bound."""

    def __init__(self, per: _Period):
        self.per, sigma2, P = per, per.src.sigma2, len(per.src.branches)
        sy, kk = _branch_matrices(per.src, per.steps, per.mids, int(per.kmax.max()))
        t, self.checks = _inv_sqrt_psd(sy)
        m, checks = _hermitian(t @ kk @ t)
        lam = np.linalg.eigh(m)[0]
        top = lam.max(axis=(1, 2), initial=0.0)
        low = lam.min(axis=(1, 2)) < -1e-10 * np.maximum(1.0, top)
        self.lam = np.maximum(lam, 0.0)
        self.w = np.repeat(np.diff(per.grid, axis=1), P, axis=1)
        self.integral = _ordered_sum(self.w * self.lam.reshape(len(lam), -1))
        self.checks += checks + [
            (low, lambda i: SpectrumError(
                f"negative eigenvalue {lam[i].min()} in conditional spectrum")),
            (self.integral > sigma2 + 1e-9 * max(1.0, sigma2),
             lambda i: SpectrumError("estimator power exceeds source power"))]

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        return self.w, self.lam.reshape(self.w.shape)


def eigen_curves_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
) -> EigenCurves:
    """Eigenvalue curves of the normalized conditional matrix spectrum.

    On each cell between consecutive aliased breakpoints of the matrix
    entries: lambda(S_Y^{-1/2} K S_Y^{-1/2}) at the cell midpoint, ascending.
    The matrices are constant on each cell, so these are the exact curves;
    all cells go through one stacked eigen-solve.
    """
    curves = _BankCurves(_Source(Sx, Sn, spec.branches).periods([spec.fs]))
    _raise_first(curves.checks, 0)
    return EigenCurves(curves.per.grid[0], curves.lam[0])


def _mmse_multi(curves: _BankCurves) -> tuple[np.ndarray, list]:
    """mmse_multi on every row of a bank block, which its waterfills' mmse
    reads too, and its checks: the bank's, then the MMSE not below 0 past
    round-off."""
    sigma2 = curves.per.src.sigma2
    low = (residual := sigma2 - curves.integral) < -1e-9 * max(1.0, sigma2)
    return _mmse(sigma2, curves.integral), curves.checks + [
        (low, lambda i: SpectrumError(f"negative mmse {residual[i]}"))]


def mmse_multi(Sx: SpectralDensity, Sn: SpectralDensity, spec: SamplerSpec) -> float:
    """MMSE of estimating the source from the samples of a P-branch filter bank."""
    return _row_zero(*_mmse_multi(_BankCurves(_Source(Sx, Sn, spec.branches).periods([spec.fs]))))


def _maximal_af_sets(per: _Period, P: int) -> list[list[FrequencySet]]:
    """maximal_af_sets on each row of a block of the SNR ratio's periods of d
    = fs/P, read off the row's own cells from 0 up: a first point within
    BP_TOL above 0 merges into 0 as in [0, d/2]."""
    out = []
    for i in range(len(per)):
        d, kmax, grid = float(per.steps[i]), int(per.kmax[i]), per.grid[i, :per.cells[i] + 1]
        bp = np.concatenate(([0.0], grid[grid > BP_TOL]))
        mids = 0.5 * (bp[:-1] + bp[1:])
        # row j holds shift k = j - kmax: the ratio at c = mids + k*d
        v = _translates(per.pw, d, mids, kmax)[::-1]
        k = np.arange(-kmax, kmax + 1)[:, None] + np.zeros(len(mids), dtype=int)
        with np.errstate(over="ignore"):  # a shift past the float range ranks last
            c = mids + k * d
        sets = []
        for rows in np.lexsort((k, c >= 0, np.abs(c), -v), axis=0)[:P]:
            keep = v[rows, np.arange(len(mids))] > 0
            off = (rows[keep] - kmax) * d
            lo, hi = bp[:-1][keep] + off, bp[1:][keep] + off
            sets.append(FrequencySet(zip(np.concatenate([lo, -hi]), np.concatenate([hi, -lo]))))
        out.append(sets + [FrequencySet()] * (P - len(sets)))
    return out


def maximal_af_sets(
    ratio: SpectralDensity, fs: float, P: int = 1
) -> list[FrequencySet]:
    """Supports of the optimal filter bank: P disjoint aliasing-free sets.

    The base cell [-fs/(2P), fs/(2P)) is refined by every translate of the
    ratio's breakpoints; within each refined cell the translates by fs/P are
    ranked by ratio value (ties: smaller |f|, then negative side first, then
    smaller shift) and the p-th best goes to set p.  Only the f >= 0 half of
    the cell is scanned; selections are mirrored, which keeps each set
    symmetric so an indicator filter on it has a real impulse response.
    """
    _check_count(P, "P")
    return _maximal_af_sets(_Period(_pw_from_density(ratio), [_check_fs(fs) / P], fs=[fs]), P)[0]


def _top_translates(per: _Period, P: int) -> _Curves:
    """The P largest translates of per.pw on each row's cells, ascending: for
    the SNR ratio at d = fs/P, the ratio on the P maximal aliasing-free sets
    folded onto one period, and at P = 1 D*'s sup.  A row with fewer than P
    translates keeps them all, after the block's zero padding translates."""
    return _Curves(per, np.sort(per.translates(per.pw), axis=1)[:, -P:])


def mmse_optimal(
    Sx: SpectralDensity, Sn: SpectralDensity, fs: float, P: int = 1
) -> tuple[float, list[FrequencySet]]:
    """Minimal sampling MMSE over all P-branch filter banks, plus the supports."""
    _check_count(P, "P")
    per = _Source(Sx, Sn).periods([_check_fs(fs)], P)
    return float(_top_translates(per, P).mmse[0]), _maximal_af_sets(per, P)[0]


def landau_mmse_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float) -> float:
    """Lower bound on any sampling MMSE at total rate fs (any P, any filters)."""
    fs = _check_fs(fs)
    ratio = snr_ratio(Sx, Sn)
    _, captured = superlevel_set_of_measure(ratio, fs)
    return Sx.total_power() - captured


def _polyphase_values(per: _Period, deltas) -> np.ndarray:
    """Polyphase spectra on the cells of a block's rows, (offsets, rows,
    cells): deltas[i] holds row i's offsets, and a row reads 0 past its own.
    The numerators of a row's offsets come from one product, exp(2 pi i
    outer(delta, k)) @ A, where row k of A is Sx conj(H) translated by fs*k,
    on the row's own translates and cells, so that its sums are its own."""
    a = per.translates(per.src.pws[2])
    num = np.zeros((max(map(len, deltas)), len(per), a.shape[2]), dtype=complex)
    for i, d in enumerate(deltas):
        kmax, c, mid = int(per.kmax[i]), per.cells[i], a.shape[1] // 2
        phases = np.exp(1j * np.outer(d, 2.0 * np.pi * np.arange(-kmax, kmax + 1)))
        num[:len(d), i, :c] = phases @ a[i, mid - kmax:mid + kmax + 1, :c]
    return per.steps[:, None] * _safe_ratio(np.abs(num) ** 2, per.den)


def polyphase_conditional_psd(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    delta: float,
) -> ScalarCurve:
    """Spectrum of the offset-delta polyphase component given the samples.

    Returned on normalized frequency phi in (-1/2, 1/2) in per-sample power
    units: averaging over a full cycle of delta gives fs times the
    s_tilde_single curve evaluated at fs*phi.
    The double translate sum in the numerator collapses to a squared modulus
    of a single phased sum.  delta is any finite real number.
    """
    delta, fs = _as_finite(delta, "delta"), _check_fs(fs)
    per = _Source(Sx, Sn, [H]).periods([fs])
    return ScalarCurve(per.grid[0] / fs, _polyphase_values(per, [[delta]])[0, 0])
