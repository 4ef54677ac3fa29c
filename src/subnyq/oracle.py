"""Independent verification paths for the spectral pipeline.

Nothing in here reuses the frequency-domain sampling formulas it is meant to
check.  Three families of oracles:

* the discrete-time decimation device: sample far above Nyquist, decimate by
  M, and watch the decimated conditional spectrum converge to the exact curve;
* time-domain linear-MMSE and block distortion-rate computations assembled
  from closed-form covariances and plain normal equations;
* scalar closed forms for jointly Gaussian pairs and two-source observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import LinalgError
from .sampling import _row_zero, _Source
from .spectra import (
    BP_TOL,
    ComplexGainProfile,
    SpectralDensity,
    SpectrumError,
    _MAX_BLOCK_ENTRIES,
    _as_finite,
    _check_count,
    _check_fs,
    _dedup,
    _ordered_sum,
    _pw_eval,
    _Pw,
    _translate_count,
)
from .waterfill import _as_rate, _rate_per_sample, _WaterfillStack

__all__ = [
    "DiscreteSpectrum",
    "CovarianceWindow",
    "covariance_from_psd",
    "sampled_discretization",
    "discrete_j_m",
    "discrete_j_m_curve",
    "finite_window_mmse",
    "finite_window_mmse_average",
    "block_idrf_oracle",
    "WindowOracle",
    "window_oracle",
    "iid_drf",
    "iid_rate_for_distortion",
    "joint_mmse_two",
    "best_single_observation",
]

RIDGE_FACTOR = 1e-12


@dataclass(frozen=True)
class DiscreteSpectrum:
    """1-periodic piecewise-constant function given on phi in [-1/2, 1/2)."""

    bp: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if len(self.bp) != len(self.vals) + 1:
            raise SpectrumError("breakpoint/value length mismatch")
        if self.bp[0] < -0.5 - BP_TOL or self.bp[-1] > 0.5 + BP_TOL:
            raise SpectrumError("discrete spectrum must live on one period")

    def evaluate(self, phi) -> np.ndarray:
        x = np.asarray(phi, dtype=float)
        # wrap into [-1/2, 1/2)
        x = x - np.round(x)
        x = np.where(x >= 0.5, x - 1.0, x)
        return _pw_eval(_Pw(self.bp, self.vals), x)

    def power(self) -> float:
        return float(np.real(np.sum(np.diff(self.bp) * self.vals)))

    def pieces(self):
        return np.diff(self.bp), np.real(self.vals)


def _even_segments(pw: _Pw) -> list[tuple[float, float, float]]:
    """Positive-frequency (lo, hi, value) list of an even real piecewise fn."""
    lo, hi, v = np.maximum(pw.bp[:-1], 0.0), pw.bp[1:], np.real(pw.vals)
    keep = (v != 0) & (hi > lo)
    return list(zip(lo[keep].tolist(), hi[keep].tolist(), v[keep].tolist()))


def _cov_from_segments(segs: Sequence[tuple], tau: np.ndarray) -> np.ndarray:
    """c(tau) = int S(f) e^{2 pi i f tau} df for even S given on f >= 0.

    c is even, and so is each closed-form value bit for bit: fl(2 pi e (-t))
    is -fl(2 pi e t), the sine is odd, and every later step is symmetric in
    the sign.  So the closed form is evaluated once per distinct |tau| and
    gathered back into tau's shape.  The distinct lags go in chunks whose
    (segments or edges, the more of the two) x lags stay within
    _MAX_BLOCK_ENTRIES, one lag at least; per chunk, one buffer of terms,
    filled in place, whose sines are evaluated once per (edge, lag) pair, as
    adjacent segments share an edge.  Each lag
    adds its terms in segment order, so every value is that of the per-lag
    closed form bit for bit.
    """
    lags, back = np.unique(np.abs(np.asarray(tau, dtype=float)), return_inverse=True)
    lo, hi, v = np.array(segs, dtype=float).reshape(-1, 3).T
    edges, at = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    out = np.empty_like(lags)
    step = max(1, _MAX_BLOCK_ENTRIES // max(len(edges), len(lo), 1))
    for start in range(0, len(lags), step):
        t = lags[start:start + step]
        sines = np.sin(np.multiply.outer(2 * np.pi * edges, t))
        terms = sines[at[len(lo):]]
        terms -= sines[at[:len(lo)]]
        terms *= v[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            terms /= np.pi * t
        terms[:, t < 1e-12] = (2.0 * v * (hi - lo))[:, None]
        # numpy reduces a lone column pairwise, and more than one in row order
        out[start:start + step] = (_ordered_sum(terms, axis=0) if len(t) == 1
                                   else np.add.reduce(terms, axis=0))
    return out[back].reshape(np.shape(tau))


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The (2K+1) x (2K+1) matrices whose entry (a, b) is c[..., a - b + 2K],
    from the values c at the 4K+1 lag indices -2K..2K of a window, one per
    leading index of c.  Row a is a window of c reversed, so this is a
    strided view of c: no entry is copied."""
    n = (c.shape[-1] + 1) // 2
    return sliding_window_view(c[..., ::-1], n, axis=-1)[..., n - 1::-1, :]


def covariance_from_psd(S: SpectralDensity, tau) -> float | np.ndarray:
    """Autocovariance at lag tau, a number or an array, of a process with the given even PSD."""
    taus = np.ravel(np.asarray(tau, dtype=object))  # entries as given: a bool or str fails
    lags = np.reshape([_as_finite(t, "lag tau") for t in taus], np.shape(tau))
    out = _cov_from_segments([(iv.lo, iv.hi, v) for iv, v in S.segments], lags)
    return float(out) if out.ndim == 0 else out


def _observation_segments(src: _Source) -> tuple[_Pw, _Pw]:
    """Sx*H and (Sx+Sn)*H^2 on the full line, read off the source grid once per
    sweep (no fs enters).  SpectrumError unless H is real and even, checked on
    the grid and its mirror image."""
    bp, _, x, z, g = src.grid
    g = g[0]
    if np.max(np.abs(g.imag), initial=0.0) > 1e-12:
        raise SpectrumError("time-domain oracles need real filter gains")
    both = _dedup(np.concatenate([bp, -bp]))
    mids = 0.5 * (both[:-1] + both[1:])
    if np.max(np.abs(_pw_eval(_Pw(bp, g), -mids) - _pw_eval(_Pw(bp, g), mids)),
              initial=0.0) > 1e-12:
        raise SpectrumError("time-domain oracles need even filter gains")
    return _Pw(bp, x * g.real), _Pw(bp, z * g.real * g.real)


@dataclass(frozen=True)
class CovarianceWindow:
    """Normal-equation data for a length-(2K+1) window of samples.

    C_Y is the Toeplitz observation covariance at lag spacing 1/fs; cross
    vectors against source values at offset delta are produced on demand.
    """

    K: int
    fs: float
    C_Y: np.ndarray
    xz_segments: tuple
    sigma2: float

    @classmethod
    def build(cls, Sx, Sn, H, fs: float, K: int) -> "CovarianceWindow":
        src = _Source(Sx, Sn, [H])
        return cls._of(_observation_segments(src), src.sigma2, fs, K)

    @classmethod
    def _of(cls, pieces, sigma2: float, fs: float, K: int) -> "CovarianceWindow":
        """The window from _observation_segments' pair and the source power."""
        _check_count(K, "window half-length K")
        fs = _check_fs(fs)
        xz, zz = map(_even_segments, pieces)
        cy = _toeplitz(_cov_from_segments(zz, np.arange(-2 * K, 2 * K + 1) / fs)).copy()
        return cls(K=K, fs=fs, C_Y=cy, xz_segments=tuple(xz), sigma2=sigma2)

    def cross_vector(self, delta: float) -> np.ndarray:
        n = np.arange(-self.K, self.K + 1)
        return _cov_from_segments(self.xz_segments, (delta - n) / self.fs)


def _chol_with_ridge(C: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of C, with a ridge of RIDGE_FACTOR times its trace if
    C alone has none; LinalgError if it has none even then, as an all-zero C
    (nothing observed) has not."""
    try:
        return np.linalg.cholesky(C), False
    except np.linalg.LinAlgError:
        ridge = RIDGE_FACTOR * float(np.trace(C))
    try:
        return np.linalg.cholesky(C + ridge * np.eye(len(C))), True
    except np.linalg.LinAlgError:
        raise LinalgError(f"window covariance is not positive definite, even with a "
                          f"ridge of {ridge:g}") from None


@dataclass(frozen=True)
class FiniteWindowMmse:
    value: float
    regularized: bool

    def __float__(self):
        return self.value


def _mmse_average(sigma2: float, ys, regularized: bool) -> FiniteWindowMmse:
    """Mean of sigma2 - |y|^2 over the solved cross vectors y, clipped at 0."""
    total = 0.0
    for y in ys:
        total += sigma2 - float(y @ y)
    return FiniteWindowMmse(value=max(total / len(ys), 0.0), regularized=regularized)


def finite_window_mmse(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    delta: float,
    K: int,
) -> FiniteWindowMmse:
    """Linear MMSE of X((0+delta)/fs) from the 2K+1 samples around it.

    Pure time-domain computation: closed-form covariances and one solve of
    the normal equations.  Near-singular covariances get a tiny ridge and the
    result is flagged so exactness-sensitive callers can reject it.
    """
    delta = _as_finite(delta, "offset delta")
    win = CovarianceWindow.build(Sx, Sn, H, fs, K)
    chol, regularized = _chol_with_ridge(win.C_Y)
    y = np.linalg.solve(chol, win.cross_vector(delta))
    return _mmse_average(win.sigma2, [y], regularized)


def finite_window_mmse_average(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    K: int,
    n_phases: int = 16,
) -> FiniteWindowMmse:
    """Mean of finite_window_mmse over a uniform in-period offset grid."""
    _check_count(n_phases, "n_phases")
    win = CovarianceWindow.build(Sx, Sn, H, fs, K)
    chol, regularized = _chol_with_ridge(win.C_Y)
    ys = [np.linalg.solve(chol, win.cross_vector(j / n_phases)) for j in range(n_phases)]
    return _mmse_average(win.sigma2, ys, regularized)


@dataclass(frozen=True)
class WindowOracle:
    """The time-domain oracles at one fs, with everything but the rate done.

    mmse_average is finite_window_mmse_average over the block's n_phases
    offsets; waterfill holds the eigenvalues of the block's estimator
    covariance, sorted once, with the block's estimation MMSE, as one row,
    so distortion(R) only reads off one water level.
    """

    K: int
    fs: float
    n_phases: int
    mmse_average: FiniteWindowMmse
    waterfill: _WaterfillStack

    def distortion(self, R: float) -> float:
        """block_idrf_oracle at R bits per time unit; WaterfillError for a bad rate."""
        return _row_zero(*self.waterfill.solve(_rate_per_sample(R, self.fs, 2 * self.K + 1))[2:])


def window_oracle(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    K: int,
    n_phases: int = 8,
) -> WindowOracle:
    """Build the window, C_YU and the block spectrum once for one fs.

    The block stacks n_phases offsets of the source over 2K+1 sampling
    periods.  Its cross covariance C_YU is solved against the window's
    Cholesky factor once; the columns at n_i = 0 are the window's cross
    vectors, so the windowed MMSE average is read off the same solve.
    """
    src = _Source(Sx, Sn, [H])
    return _window_oracle(_observation_segments(src), src.sigma2, fs, K, n_phases)


def _window_oracle(pieces, sigma2: float, fs: float, K: int, n_phases: int) -> WindowOracle:
    _check_count(n_phases, "n_phases")
    win = CovarianceWindow._of(pieces, sigma2, fs, K)
    chol, regularized = _chol_with_ridge(win.C_Y)
    n_y = 2 * K + 1
    n_u = n_y * n_phases
    # C_YU row m, column (j, i): cov of Y[m] with X((n_i + delta_j)/fs), at lag
    # (delta_j - (n_m - n_i))/fs.  Each phase block is Toeplitz, so one kernel
    # call evaluates the (phases x (4K+1)) lags (j - n_phases d)/n_phases/fs,
    # each distinct |lag| once, and one copy lays the blocks, as views of c,
    # side by side.  The numerator j - n_phases d is an exact integer, so each
    # lag in sampling periods is its exact value rounded once (j/n_phases - d
    # rounds twice when j/n_phases is not dyadic).
    d = np.arange(-2 * K, 2 * K + 1)
    periods = (np.arange(n_phases)[:, None] - n_phases * d) / n_phases
    c = _cov_from_segments(win.xz_segments, periods / fs)
    c_yu = np.swapaxes(_toeplitz(c), 0, 1).reshape(n_y, n_u)
    b = np.linalg.solve(chol, c_yu)
    # column K of phase block j has n_i = 0, the lags of cross_vector(j/n_phases)
    average = _mmse_average(win.sigma2, np.ascontiguousarray(b[:, K::n_y].T), regularized)
    # nonzero eigenvalues of C_UY C_Y^-1 C_YU via the small Gram matrix
    eig = np.clip(np.linalg.eigvalsh(b @ b.T), 0.0, None)
    # idrf_vector's waterfill over n_u coordinates, sorted once for every rate
    waterfill = _WaterfillStack.of_pieces((np.ones_like(eig), eig),
                                          win.sigma2 - float(eig.sum()) / n_u, 1.0 / n_u)
    return WindowOracle(K=K, fs=fs, n_phases=n_phases, mmse_average=average,
                        waterfill=waterfill)


def block_idrf_oracle(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R: float,
    K: int,
    n_phases: int = 8,
) -> float:
    """Distortion-rate of a finite block, from covariances alone.

    The block stacks n_phases offsets of the source over 2K+1 sampling
    periods; its estimator covariance is eigen-waterfilled at the block's
    bit budget R*(2K+1)/fs and the block estimation MMSE is added.  As K
    grows this converges to the stationary sampled distortion-rate value.
    """
    return window_oracle(Sx, Sn, H, fs, K, n_phases).distortion(R)


# ---------------------------------------------------------------------------
# Discrete-time decimation device.

def sampled_discretization(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    M: int,
) -> tuple[DiscreteSpectrum, DiscreteSpectrum]:
    """Discrete spectra of the fine-sampled observation at rate M*fs.

    Returns (S_XZ, S_Z) on normalized frequency, scaled by M*fs so that the
    discrete power equals the continuous one.  For M*fs above the Nyquist
    rate of the observation the aliased sums have a single term and the
    discretization is lossless.
    """
    _check_count(M, "decimation factor M")
    fs = _check_fs(fs)
    fr = M * fs

    def discretize(pw: _Pw) -> DiscreteSpectrum:
        # The translates are cut and summed here, k by k, and not by the
        # library's kernel (spectra._alias_grids and _translates): at M = 1 this
        # device would otherwise check that kernel against itself.
        kmax = _translate_count(pw, fr, fr / 2.0)
        grid_pts = [np.array([-fr / 2.0, fr / 2.0])]
        for k in range(-kmax, kmax + 1):
            s = pw.bp + fr * k
            grid_pts.append(s[(s > -fr / 2.0) & (s < fr / 2.0)])
        grid = _dedup(np.concatenate(grid_pts))
        gm = 0.5 * (grid[:-1] + grid[1:])
        acc = np.zeros_like(gm)
        for k in range(-kmax, kmax + 1):
            acc += _pw_eval(pw, gm - fr * k)
        return DiscreteSpectrum(grid / fr, fr * acc)

    return tuple(map(discretize, _observation_segments(_Source(Sx, Sn, [H]))))


def discrete_j_m(Sxz_d: DiscreteSpectrum, Sz_d: DiscreteSpectrum, M: int, phi) -> float:
    """Decimated-by-M conditional spectrum at normalized frequency phi."""
    _check_count(M, "decimation factor M")
    phis = (_as_finite(phi, "phi") - np.arange(M)) / M
    num = float(np.sum(np.abs(Sxz_d.evaluate(phis)) ** 2))
    den = float(np.real(np.sum(Sz_d.evaluate(phis))))
    return num / den / M if den > 0 else 0.0


def discrete_j_m_curve(
    Sxz_d: DiscreteSpectrum, Sz_d: DiscreteSpectrum, M: int
) -> DiscreteSpectrum:
    """discrete_j_m as an exact piecewise-constant curve on [-1/2, 1/2).

    A fine-spectrum breakpoint b maps to breakpoints M*b + i (integer i) of
    the decimated curve, so the output grid is exact and midpoint evaluation
    is safe.
    """
    _check_count(M, "decimation factor M")
    pts = (M * np.concatenate([Sxz_d.bp, Sz_d.bp]))[:, None] + np.arange(-M, M + 1)
    bp = _dedup(np.concatenate([[-0.5, 0.5], pts[np.abs(pts) <= 0.5]]))
    mids = 0.5 * (bp[:-1] + bp[1:])
    vals = np.array([discrete_j_m(Sxz_d, Sz_d, M, m) for m in mids])
    return DiscreteSpectrum(bp, vals)


# ---------------------------------------------------------------------------
# Scalar closed forms.

def iid_drf(C_U: float, C_V: float, C_UV: float, R: float) -> float:
    """Distortion-rate of scalar U described at R bits from observation V."""
    R = _as_rate(R)
    if C_V <= 0:
        if C_UV != 0:
            raise SpectrumError("zero-variance observation with nonzero cross term")
        return C_U
    return C_U - (1.0 - 2.0 ** (-2.0 * R)) * C_UV**2 / C_V


def iid_rate_for_distortion(C_U: float, C_V: float, C_UV: float, D: float) -> float:
    """Inverse of iid_drf on its attainable range."""
    if C_V <= 0 and C_UV != 0:
        raise SpectrumError("zero-variance observation with nonzero cross term")
    mmse = C_U - C_UV**2 / C_V if C_V > 0 else C_U  # an empty range then
    if not mmse < D <= C_U:
        raise SpectrumError(f"distortion {D} outside ({mmse}, {C_U}]")
    return -0.5 * math.log2((D - mmse) * C_V / C_UV**2)


def joint_mmse_two(
    C_U1: float, C_U2: float, C_xi1: float, C_xi2: float, h1: float, h2: float
) -> float:
    """Average MMSE of (U1, U2) from V = h1(U1+xi1) + h2(U2+xi2)."""
    c_v = h1 * h1 * (C_U1 + C_xi1) + h2 * h2 * (C_U2 + C_xi2)
    if c_v <= 0:
        return 0.5 * (C_U1 + C_U2)
    m1 = C_U1 - (h1 * C_U1) ** 2 / c_v
    m2 = C_U2 - (h2 * C_U2) ** 2 / c_v
    return 0.5 * (m1 + m2)


def best_single_observation(
    C_U1: float, C_U2: float, C_xi1: float, C_xi2: float
) -> tuple[float, float]:
    """Which single source to observe: the one with the larger C_U^2/(C_U+C_xi)."""
    g1 = C_U1**2 / (C_U1 + C_xi1) if C_U1 + C_xi1 > 0 else 0.0
    g2 = C_U2**2 / (C_U2 + C_xi2) if C_U2 + C_xi2 > 0 else 0.0
    return (1.0, 0.0) if g1 >= g2 else (0.0, 1.0)
