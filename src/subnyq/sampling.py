"""From spectra to waterfilling inputs.

This module owns everything that depends on the sampler: the scalar
conditional spectrum given single-branch samples, its P x P generalization
for filter banks, the MMSE values, the maximal aliasing-free sets (the
supports of the optimal filters), the sampling-rate bound on the MMSE and the
polyphase decomposition.  Each curve, MMSE and set function is a thin caller
of a private per-fs form.  The fs-free pieces of (Sx, Sn, branches) live on a
_Source, which a sweep builds once: the single-branch pieces, the filter
bank's branch-pair pieces and the SNR ratio behind the optimal filters.  The
per-fs forms read one _Period per (source, fs), src.period(fs): the period
(-fs/2, fs/2) cut once, its translate count and the aliased denominator,
which the folded curve and the polyphase spectra share.  Every piece of a
source lies on the source's breakpoints, so one cut serves them all.  The
SNR ratio has other breakpoints, so D* and the optimal filters cut their own
period of fs/P for it.

Every path is exact: inputs are piecewise-constant, and every grid is cut at
the translate lattice of the breakpoints before values are read off, so the
curves returned here (the eigenvalue curves included, one stacked eigen-solve
over the (cells, P, P) matrices of a filter bank) are the true
piecewise-constant functions, not samples of them.  All translates
S(f - k*fs) come from one kernel, spectra._translates, as one (translates x
cells) array: the sums and bound of s_tilde_single, the S_Y and K entries,
the polyphase phased sums, the maximal_af_sets ranking and the top-P ranking
of _top_translates behind D*, drf_sampled_optimal and the optimal MMSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .linalg import hermitian, inv_sqrt_psd
from .spectra import (
    ComplexGainProfile,
    FrequencySet,
    SpectralDensity,
    SpectrumError,
    _alias_grid,
    _check_count,
    _check_fs,
    _dedup,
    _pw_aliased,
    _pw_eval,
    _pw_from_density,
    _pw_from_gain,
    _pw_support_radius,
    _Pw,
    _translate_count,
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
        _check_fs(fs)
        branches = tuple(branches)
        if len(branches) < 1:
            raise SpectrumError("need at least one branch")
        for b in branches:
            if b is not None and not isinstance(b, ComplexGainProfile):
                raise SpectrumError(f"bad branch filter {b!r}")
        object.__setattr__(self, "fs", float(fs))
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
    """The period (-step/2, step/2) cut at every translate of pw's breakpoints,
    its translate count kmax, den (pw aliased, built when first read) and src."""

    def __init__(self, pw: _Pw, step: float, src: _Source | None = None):
        _check_fs(step)
        self.pw, self.step, self.src = pw, step, src
        self.grid = _alias_grid(pw, step, -step / 2.0, step / 2.0)
        self.mids = 0.5 * (self.grid[:-1] + self.grid[1:])
        self.kmax = _translate_count(pw, step, step / 2.0)

    def translates(self, pw: _Pw) -> np.ndarray:
        return _translates(pw, self.step, self.mids, self.kmax)

    den = cached_property(lambda self: self.translates(self.pw).sum(axis=0))


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
    def pairs(self):
        """(i, j, pz, pk) per branch pair i <= j: conj(H_i)H_j times Sx+Sn and times Sx^2."""
        bp, _, x, z, g = self.grid
        return [(i, j, _Pw(bp, z * w), _Pw(bp, x * x * w)) for i in range(len(g))
                for j in range(i, len(g)) for w in [np.conj(g[i]) * g[j]]]

    def period(self, fs: float) -> _Period:
        """The period of fs, cut at (Sx+Sn) max_i |H_i|^2: every piece here lies
        on its breakpoints and inside its support, so that one cut serves all."""
        bp, _, _, z, g = self.grid
        return _Period(_Pw(bp, z * (np.abs(g) ** 2).max(axis=0)), fs, self)


def _safe_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 0; a may carry leading axes over b's."""
    out = np.zeros_like(a, dtype=float)
    nz = b > 0
    out[..., nz] = a[..., nz] / b[nz]
    return out


def _folded(per: _Period) -> ScalarCurve:
    """s_tilde_single from the pieces of a one-branch source, whose period's
    den is the aliased (Sx+Sn)|H|^2."""
    num, den, _ = per.src.pws
    vals = _safe_ratio(per.translates(num).sum(axis=0), per.den)

    # structural sanity: the curve can never exceed the best single translate
    # of the per-frequency ratio Sx^2/(Sx+Sn) restricted to the filter support
    sup = per.translates(_Pw(num.bp, _safe_ratio(num.vals, den.vals))).max(axis=0)
    if np.any(vals > sup + 1e-9 * max(1.0, float(sup.max(initial=0.0)))):
        raise SpectrumError("conditional spectrum exceeded its translate bound")
    return ScalarCurve(per.grid, vals)


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
    return _folded(_Source(Sx, Sn, [H]).period(fs))


def _mmse_and_curve(per: _Period) -> tuple[float, ScalarCurve]:
    """mmse_single and the s_tilde_single curve it integrates, from one build."""
    src = per.src
    num, den, _ = src.pws
    curve = _folded(per)
    value = src.sigma2 - curve.integral()

    # cross-check against the unfolded form: integrate over the whole line
    # Sx(f) * (1 - Sx|H|^2(f) / aliased denominator at f)
    radius = max(_pw_support_radius(src.px), _pw_support_radius(den))
    if radius > 0:
        den_per = _pw_aliased(den, per.step, -radius, radius)
        bp = _dedup(np.concatenate([src.px.bp, num.bp, den_per.bp]))
        mids = 0.5 * (bp[:-1] + bp[1:])
        x = _pw_eval(src.px, mids)
        frac = _safe_ratio(_pw_eval(num, mids), _pw_eval(den_per, mids))
        alt = float(np.sum(np.diff(bp) * x) - np.sum(np.diff(bp) * frac))
        # written so that a NaN residual fails too
        if not abs(alt - value) <= 1e-10 * max(1.0, src.sigma2):
            raise SpectrumError(
                f"mmse cross-check failed: folded {value} vs unfolded {alt}"
            )
    return value, curve


def mmse_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
) -> float:
    """MMSE of estimating the source from single-branch samples at rate fs."""
    return _mmse_and_curve(_Source(Sx, Sn, [H]).period(fs))[0]


def _matrices_on_points(pairs, P: int, fs: float, pts: np.ndarray):
    """Aliased S_Y and K matrices stacked over the given frequencies."""
    # pk vanishes wherever pz does, so the pz counts cover both
    edge = max(fs / 2.0, float(np.abs(pts).max()))
    kmax = max(_translate_count(pz, fs, edge) for _, _, pz, _ in pairs)
    sy = np.zeros((len(pts), P, P), dtype=complex)
    kk = np.zeros((len(pts), P, P), dtype=complex)
    for i, j, pz, pk in pairs:
        az = _translates(pz, fs, pts, kmax).sum(axis=0)
        ak = _translates(pk, fs, pts, kmax).sum(axis=0)
        sy[:, i, j] = az
        kk[:, i, j] = ak
        if i != j:
            sy[:, j, i] = np.conj(az)
            kk[:, j, i] = np.conj(ak)
    return sy, kk


def build_branch_matrices(
    Sx: SpectralDensity, Sn: SpectralDensity, spec: SamplerSpec, f: float
) -> tuple[np.ndarray, np.ndarray]:
    """Observation matrix S_Y(f) and weight matrix K(f) for the filter bank.

    Entry (i,j) of S_Y is the fs-aliased sum of (Sx+Sn) conj(H_i) H_j, and of
    K the same with Sx^2 in place of (Sx+Sn).  Both come back as P x P
    complex arrays, checked Hermitian and positive semidefinite.
    """
    sy, kk = _matrices_on_points(_Source(Sx, Sn, spec.branches).pairs, spec.P, spec.fs,
                                 np.array([float(f)]))
    m = hermitian(np.concatenate([sy, kk]))
    w = np.linalg.eigh(m)[0]
    low = w[:, 0] < -1e-10 * np.maximum(1.0, w[:, -1])
    if np.any(low):
        raise SpectrumError(f"branch matrix not PSD: min eigenvalue {w[low, 0][0]}")
    return m[0], m[1]


def _eigen_curves_multi(per: _Period) -> EigenCurves:
    sy, kk = _matrices_on_points(per.src.pairs, len(per.src.branches), per.step, per.mids)
    t = inv_sqrt_psd(sy)
    lam = np.linalg.eigh(hermitian(t @ kk @ t))[0]

    lam_max = float(lam.max(initial=0.0))
    if lam.size and float(lam.min()) < -1e-10 * max(1.0, lam_max):
        raise SpectrumError(f"negative eigenvalue {lam.min()} in conditional spectrum")
    lam = np.maximum(lam, 0.0)
    curves = EigenCurves(per.grid, lam)
    if curves.trace_integral() > per.src.sigma2 + 1e-9 * max(1.0, per.src.sigma2):
        raise SpectrumError("estimator power exceeds source power")
    return curves


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
    return _eigen_curves_multi(_Source(Sx, Sn, spec.branches).period(spec.fs))


def _mmse_multi(per: _Period) -> float:
    val = per.src.sigma2 - _eigen_curves_multi(per).trace_integral()
    if val < -1e-9 * max(1.0, per.src.sigma2):
        raise SpectrumError(f"negative mmse {val}")
    return max(val, 0.0)


def mmse_multi(Sx: SpectralDensity, Sn: SpectralDensity, spec: SamplerSpec) -> float:
    """MMSE of estimating the source from the samples of a P-branch filter bank."""
    return _mmse_multi(_Source(Sx, Sn, spec.branches).period(spec.fs))


def _maximal_af_sets(ratio: _Pw, fs: float, P: int) -> list[FrequencySet]:
    """maximal_af_sets from the ratio on the full line, which a _Source holds."""
    _check_fs(fs)
    _check_count(P, "P")
    d = fs / P
    bp = _alias_grid(ratio, d, 0.0, d / 2.0)
    mids = 0.5 * (bp[:-1] + bp[1:])
    kmax = _translate_count(ratio, d, d / 2.0)
    # row i holds shift k = i - kmax: the ratio at c = mids + k*d
    v = _translates(ratio, d, mids, kmax)[::-1]
    k = np.arange(-kmax, kmax + 1)[:, None] + np.zeros(len(mids), dtype=int)
    c = mids + k * d
    sets = []
    for rows in np.lexsort((k, c >= 0, np.abs(c), -v), axis=0)[:P]:
        keep = v[rows, np.arange(len(mids))] > 0
        off = (rows[keep] - kmax) * d
        lo, hi = bp[:-1][keep] + off, bp[1:][keep] + off
        sets.append(FrequencySet(zip(np.concatenate([lo, -hi]), np.concatenate([hi, -lo]))))
    return sets + [FrequencySet()] * (P - len(sets))


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
    return _maximal_af_sets(_pw_from_density(ratio), fs, P)


def _top_translates(ratio: _Pw, fs: float, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(widths, top): cells of the period of d = fs/P and on them, ascending,
    the P largest translates of ratio by d: the ratio on the P maximal
    aliasing-free sets folded onto one period, and at P = 1 D*'s sup."""
    _check_count(P, "P")
    _check_fs(fs)
    per = _Period(ratio, fs / P)
    return np.diff(per.grid), np.sort(per.translates(ratio), axis=0)[-P:]


def _mmse_optimal(src: _Source, fs: float, P: int) -> float:
    w, top = _top_translates(src.ratio_pw, fs, P)
    return src.sigma2 - float(np.sum(w * top))


def mmse_optimal(
    Sx: SpectralDensity, Sn: SpectralDensity, fs: float, P: int = 1
) -> tuple[float, list[FrequencySet]]:
    """Minimal sampling MMSE over all P-branch filter banks, plus the supports."""
    src = _Source(Sx, Sn)
    return _mmse_optimal(src, fs, P), _maximal_af_sets(src.ratio_pw, fs, P)


def landau_mmse_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float) -> float:
    """Lower bound on any sampling MMSE at total rate fs (any P, any filters)."""
    _check_fs(fs)
    ratio = snr_ratio(Sx, Sn)
    _, captured = superlevel_set_of_measure(ratio, fs)
    return Sx.total_power() - captured


def _polyphase_values(per: _Period, deltas) -> np.ndarray:
    """Polyphase spectra on the period's cells, one row per offset in deltas;
    the numerators of all offsets come from one product, exp(2 pi i
    outer(delta, k)) @ A, where row k of A is Sx conj(H) translated by fs*k."""
    k = np.arange(-per.kmax, per.kmax + 1)
    phases = np.exp(1j * np.outer(deltas, 2.0 * np.pi * k))
    return per.step * _safe_ratio(np.abs(phases @ per.translates(per.src.pws[2])) ** 2, per.den)


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
    of a single phased sum.
    """
    per = _Source(Sx, Sn, [H]).period(fs)
    return ScalarCurve(per.grid / fs, _polyphase_values(per, [delta])[0])
