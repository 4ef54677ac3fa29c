"""From spectra to waterfilling inputs.

This module owns everything that depends on the sampler: the scalar
conditional spectrum of the source given single-branch samples, its P x P
matrix generalization for filter banks, the resulting MMSE values, the
construction of maximal aliasing-free sets (which are the supports of the
optimal pre-sampling filters), the sampling-rate lower bound on the MMSE and
the polyphase decomposition used by the distortion lower bound.

Every path is exact: inputs are piecewise-constant, and every grid is cut at
the translate lattice of the breakpoints before values are read off, so the
curves returned here (the eigenvalue curves included, one eigen-solve per
cell) are the true piecewise-constant functions, not samples of them.  All
translates S(f - k*fs) come from one kernel, spectra._translates, as one
(translates x cells) array: the sums and bound of s_tilde_single, the S_Y
and K entries, the polyphase phased sums and the maximal_af_sets ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import HermitianMatrix, hermitian_eig, inv_sqrt_psd
from .spectra import (
    BP_TOL,
    ComplexGainProfile,
    FrequencyInterval,
    FrequencySet,
    SpectralDensity,
    SpectrumError,
    _alias_grid,
    _dedup,
    _pw_aliased,
    _pw_eval,
    _pw_from_density,
    _pw_from_gain,
    _pw_support_radius,
    _Pw,
    _translate_count,
    _translates,
    integrate,
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
        if fs <= 0:
            raise SpectrumError(f"fs must be positive, got {fs}")
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


def _source_and_observation(Sx, Sn, *extra_bp: np.ndarray):
    """(bp, mids, x, z): Sx and z = Sx+Sn on one grid of cells.

    bp merges the breakpoints of Sx, Sn and any extra breakpoint arrays (a
    filter's, so that it too is constant on every cell); x and z are the
    values at the cell midpoints mids.
    """
    px = _pw_from_density(Sx)
    pn = _pw_from_density(Sn)
    bp = _dedup(np.concatenate([px.bp, pn.bp, *extra_bp]))
    mids = 0.5 * (bp[:-1] + bp[1:])
    x = _pw_eval(px, mids)
    return bp, mids, x, x + _pw_eval(pn, mids)


def _single_branch_pws(Sx, Sn, H):
    """Numerator Sx^2|H|^2, denominator (Sx+Sn)|H|^2 and the polyphase cross
    term Sx conj(H), as full-line pieces on one grid."""
    if H is None:
        bp, _, x, z = _source_and_observation(Sx, Sn)
        return _Pw(bp, x * x), _Pw(bp, z), _Pw(bp, x.astype(complex))
    h = _pw_from_gain(H)
    bp, mids, x, z = _source_and_observation(Sx, Sn, h.bp)
    g = _pw_eval(h, mids)
    w = np.abs(g) ** 2
    return _Pw(bp, x * x * w), _Pw(bp, z * w), _Pw(bp, x * np.conj(g))


def _safe_ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 0; a may carry leading axes over b's."""
    out = np.zeros_like(a, dtype=float)
    nz = b > 0
    out[..., nz] = a[..., nz] / b[nz]
    return out


def _period_cells(pws, fs: float):
    """(grid, mids, kmax): cells of (-fs/2, fs/2) cut at every aliased
    breakpoint of every pw, and a translate count covering them all."""
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    lo, hi = -fs / 2.0, fs / 2.0
    grid = _dedup(np.concatenate([_alias_grid(pw, fs, lo, hi) for pw in pws]))
    kmax = max(_translate_count(pw, fs, hi) for pw in pws)
    return grid, 0.5 * (grid[:-1] + grid[1:]), kmax


def _folded(Sx, Sn, H, fs: float):
    """(num, den, curve): the single-branch pieces and s_tilde_single from them."""
    num, den, _ = _single_branch_pws(Sx, Sn, H)
    bp, mids, kmax = _period_cells((num, den), fs)
    vals = _safe_ratio(_translates(num, fs, mids, kmax).sum(axis=0),
                       _translates(den, fs, mids, kmax).sum(axis=0))

    # structural sanity: the curve can never exceed the best single translate
    # of the per-frequency ratio Sx^2/(Sx+Sn) restricted to the filter support
    ratio = _Pw(num.bp, _safe_ratio(num.vals, den.vals))
    sup = _translates(ratio, fs, mids, kmax).max(axis=0)
    if np.any(vals > sup + 1e-9 * max(1.0, float(sup.max(initial=0.0)))):
        raise SpectrumError("conditional spectrum exceeded its translate bound")
    return num, den, ScalarCurve(bp, vals)


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
    return _folded(Sx, Sn, H, fs)[2]


def _mmse_and_curve(Sx, Sn, H, fs: float) -> tuple[float, ScalarCurve]:
    """mmse_single and the s_tilde_single curve it integrates, from one build."""
    num, den, curve = _folded(Sx, Sn, H, fs)
    sigma2 = Sx.total_power()
    value = sigma2 - curve.integral()

    # cross-check against the unfolded form: integrate over the whole line
    # Sx(f) * (1 - Sx|H|^2(f) / aliased denominator at f)
    px = _pw_from_density(Sx)
    radius = max(_pw_support_radius(px), _pw_support_radius(den))
    if radius > 0:
        den_per = _pw_aliased(den, fs, -radius, radius)
        bp = _dedup(np.concatenate([px.bp, num.bp, den_per.bp]))
        mids = 0.5 * (bp[:-1] + bp[1:])
        x = _pw_eval(px, mids)
        frac = _safe_ratio(_pw_eval(num, mids), _pw_eval(den_per, mids))
        alt = float(np.sum(np.diff(bp) * x) - np.sum(np.diff(bp) * frac))
        # written so that a NaN residual fails too
        if not abs(alt - value) <= 1e-10 * max(1.0, sigma2):
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
    return _mmse_and_curve(Sx, Sn, H, fs)[0]


def _pair_pws(Sx, Sn, spec: SamplerSpec):
    """(i, j, pz, pk) for each branch pair i <= j: conj(H_i)H_j times (Sx+Sn)
    and times Sx^2, on one grid for the source, the noise and every filter."""
    gains = [None if b is None else _pw_from_gain(b) for b in spec.branches]
    bp, mids, x, z = _source_and_observation(Sx, Sn, *(g.bp for g in gains if g is not None))
    h = [np.ones_like(mids, dtype=complex) if g is None else _pw_eval(g, mids) for g in gains]
    return [(i, j, _Pw(bp, z * w), _Pw(bp, x * x * w))
            for i in range(spec.P) for j in range(i, spec.P)
            for w in [np.conj(h[i]) * h[j]]]


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
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Observation matrix S_Y(f) and weight matrix K(f) for the filter bank.

    Entry (i,j) of S_Y is the fs-aliased sum of (Sx+Sn) conj(H_i) H_j, and of
    K the same with Sx^2 in place of (Sx+Sn).
    """
    sy, kk = _matrices_on_points(_pair_pws(Sx, Sn, spec), spec.P, spec.fs,
                                 np.array([float(f)]))
    my, mk = HermitianMatrix(sy[0]), HermitianMatrix(kk[0])
    for m in (my, mk):
        w = hermitian_eig(m).eigenvalues
        if w.size and w[0] < -1e-10 * max(1.0, float(w[-1])):
            raise SpectrumError(f"branch matrix not PSD: min eigenvalue {w[0]}")
    return my, mk


def eigen_curves_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
) -> EigenCurves:
    """Eigenvalue curves of the normalized conditional matrix spectrum.

    On each cell between consecutive aliased breakpoints of the matrix
    entries: lambda(S_Y^{-1/2} K S_Y^{-1/2}) at the cell midpoint, ascending.
    The matrices are constant on each cell, so these are the exact curves.
    """
    pairs = _pair_pws(Sx, Sn, spec)
    bp, mids, _ = _period_cells([pw for *_, pz, pk in pairs for pw in (pz, pk)], spec.fs)
    sy, kk = _matrices_on_points(pairs, spec.P, spec.fs, mids)
    lam = np.empty((len(mids), spec.P))
    for c in range(len(mids)):
        t = inv_sqrt_psd(HermitianMatrix(sy[c])).entries
        lam[c] = hermitian_eig(HermitianMatrix(t @ kk[c] @ t)).eigenvalues

    lam_max = float(lam.max(initial=0.0))
    if lam.size and float(lam.min()) < -1e-10 * max(1.0, lam_max):
        raise SpectrumError(f"negative eigenvalue {lam.min()} in conditional spectrum")
    lam = np.maximum(lam, 0.0)
    curves = EigenCurves(bp, lam)
    sigma2 = Sx.total_power()
    if curves.trace_integral() > sigma2 + 1e-9 * max(1.0, sigma2):
        raise SpectrumError("estimator power exceeds source power")
    return curves


def mmse_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
) -> float:
    curves = eigen_curves_multi(Sx, Sn, spec)
    val = Sx.total_power() - curves.trace_integral()
    if val < -1e-9 * max(1.0, Sx.total_power()):
        raise SpectrumError(f"negative mmse {val}")
    return max(val, 0.0)


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
    if fs <= 0 or P < 1:
        raise SpectrumError(f"need fs > 0 and P >= 1, got fs={fs}, P={P}")
    d = fs / P
    pw = _pw_from_density(ratio)
    bp = _alias_grid(pw, d, 0.0, d / 2.0)
    mids = 0.5 * (bp[:-1] + bp[1:])
    kmax = _translate_count(pw, d, d / 2.0)
    # row i holds shift k = i - kmax: the ratio at c = mids + k*d
    v = _translates(pw, d, mids, kmax)[::-1]
    k = np.arange(-kmax, kmax + 1)[:, None] + np.zeros(len(mids), dtype=int)
    c = mids + k * d
    sets = []
    for rows in np.lexsort((k, c >= 0, np.abs(c), -v), axis=0)[:P]:
        keep = v[rows, np.arange(len(mids))] > 0
        off = (rows[keep] - kmax) * d
        lo, hi = bp[:-1][keep] + off, bp[1:][keep] + off
        sets.append(FrequencySet(zip(np.concatenate([lo, -hi]), np.concatenate([hi, -lo]))))
    return sets + [FrequencySet()] * (P - len(sets))


def mmse_optimal(
    Sx: SpectralDensity, Sn: SpectralDensity, fs: float, P: int = 1
) -> tuple[float, list[FrequencySet]]:
    """Minimal sampling MMSE over all P-branch filter banks, plus the supports."""
    ratio = snr_ratio(Sx, Sn)
    sets = maximal_af_sets(ratio, fs, P)
    captured = sum(integrate(ratio, F) for F in sets)
    return Sx.total_power() - captured, sets


def landau_mmse_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float) -> float:
    """Lower bound on any sampling MMSE at total rate fs (any P, any filters)."""
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    ratio = snr_ratio(Sx, Sn)
    _, captured = superlevel_set_of_measure(ratio, fs)
    return Sx.total_power() - captured


def _polyphase_translates(Sx, Sn, H, fs: float, k_max: int | None = None):
    """(grid, k, A, denom): the offset-free parts of the polyphase spectra.

    On the cells of grid over (-fs/2, fs/2), row i of A is Sx conj(H)
    translated by fs*k[i], and denom is the aliased (Sx+Sn)|H|^2.
    """
    _, den, sxz = _single_branch_pws(Sx, Sn, H)
    grid, mids, kmax = _period_cells((sxz, den), fs)
    k_max = kmax if k_max is None else k_max
    return (grid, np.arange(-k_max, k_max + 1), _translates(sxz, fs, mids, k_max),
            _translates(den, fs, mids, k_max).sum(axis=0))


def _polyphase_values(k, A, denom, fs: float, deltas) -> np.ndarray:
    """Polyphase spectra, one row per offset in deltas; the numerators of
    all offsets come from one product, exp(2 pi i outer(delta, k)) @ A."""
    phases = np.exp(1j * np.outer(deltas, 2.0 * np.pi * k))
    return fs * _safe_ratio(np.abs(phases @ A) ** 2, denom)


def polyphase_conditional_psd(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    delta: float,
    k_max: int | None = None,
) -> ScalarCurve:
    """Spectrum of the offset-delta polyphase component given the samples.

    Returned on normalized frequency phi in (-1/2, 1/2) in per-sample power
    units: averaging over a full cycle of delta gives fs times the
    s_tilde_single curve evaluated at fs*phi.
    The double translate sum in the numerator collapses to a squared modulus
    of a single phased sum.
    """
    grid, k, A, denom = _polyphase_translates(Sx, Sn, H, fs, k_max)
    return ScalarCurve(grid / fs, _polyphase_values(k, A, denom, fs, [delta])[0])
