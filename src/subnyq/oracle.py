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

from .sampling import _source_and_observation
from .spectra import (
    BP_TOL,
    ComplexGainProfile,
    SpectralDensity,
    SpectrumError,
    _dedup,
    _pw_eval,
    _pw_from_gain,
    _pw_support_radius,
    _Pw,
    _translate_count,
)

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


def _real_even_gain_pw(H: ComplexGainProfile | None) -> _Pw | None:
    """Validate that H has real, even gains and return its piecewise form."""
    if H is None:
        return None
    pw = _pw_from_gain(H)
    if np.max(np.abs(pw.vals.imag), initial=0.0) > 1e-12:
        raise SpectrumError("time-domain oracles need real filter gains")
    mids = 0.5 * (pw.bp[:-1] + pw.bp[1:])
    if np.max(np.abs(_pw_eval(pw, -mids) - pw.vals), initial=0.0) > 1e-12:
        raise SpectrumError("time-domain oracles need even filter gains")
    return _Pw(pw.bp, pw.vals.real)


def _even_segments(pw: _Pw) -> list[tuple[float, float, float]]:
    """Positive-frequency (lo, hi, value) list of an even real piecewise fn."""
    out = []
    for lo, hi, v in zip(pw.bp[:-1], pw.bp[1:], np.real(pw.vals)):
        if v == 0:
            continue
        a, b = max(lo, 0.0), hi
        if b > a:
            out.append((a, b, float(v)))
    return out


def _cov_from_segments(segs: Sequence[tuple], tau: np.ndarray) -> np.ndarray:
    """c(tau) = int S(f) e^{2 pi i f tau} df for even S given on f >= 0."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape)
    small = np.abs(tau) < 1e-12
    for lo, hi, v in segs:
        with np.errstate(invalid="ignore", divide="ignore"):
            term = v * (np.sin(2 * np.pi * hi * tau) - np.sin(2 * np.pi * lo * tau)) / (
                np.pi * tau
            )
        term = np.where(small, 2.0 * v * (hi - lo), term)
        out += term
    return out


def covariance_from_psd(S: SpectralDensity, tau) -> float | np.ndarray:
    """Autocovariance at lag tau of a process with the given even PSD."""
    segs = [(iv.lo, iv.hi, v) for iv, v in S.segments]
    out = _cov_from_segments(segs, np.asarray(tau, dtype=float))
    return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out


def _observation_segments(Sx, Sn, H):
    """(Sx*H segments, (Sx+Sn)*H^2 segments) on f >= 0, filter folded in."""
    hw = _real_even_gain_pw(H)
    extra_bp = [] if hw is None else [hw.bp]
    bp, mids, x, z = _source_and_observation(Sx, Sn, *extra_bp)
    g = np.ones_like(mids) if hw is None else np.real(_pw_eval(hw, mids))
    xz = _Pw(bp, x * g)
    zz = _Pw(bp, z * g * g)
    return _even_segments(xz), _even_segments(zz)


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
        if K < 1:
            raise SpectrumError(f"window half-length must be >= 1, got {K}")
        if fs <= 0:
            raise SpectrumError(f"fs must be positive, got {fs}")
        xz, zz = _observation_segments(Sx, Sn, H)
        n = np.arange(-K, K + 1)
        lags = (n[:, None] - n[None, :]) / fs
        cy = _cov_from_segments(zz, lags)
        return cls(K=K, fs=fs, C_Y=cy, xz_segments=tuple(xz),
                   sigma2=Sx.total_power())

    def cross_vector(self, delta: float) -> np.ndarray:
        n = np.arange(-self.K, self.K + 1)
        return _cov_from_segments(list(self.xz_segments), (delta - n) / self.fs)


def _chol_with_ridge(C: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        return np.linalg.cholesky(C), False
    except np.linalg.LinAlgError:
        ridge = RIDGE_FACTOR * float(np.trace(C))
        return np.linalg.cholesky(C + ridge * np.eye(len(C))), True


@dataclass(frozen=True)
class FiniteWindowMmse:
    value: float
    regularized: bool

    def __float__(self):
        return self.value


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
    win = CovarianceWindow.build(Sx, Sn, H, fs, K)
    chol, regularized = _chol_with_ridge(win.C_Y)
    c = win.cross_vector(delta)
    y = np.linalg.solve(chol, c)
    val = win.sigma2 - float(y @ y)
    return FiniteWindowMmse(value=max(val, 0.0), regularized=regularized)


def finite_window_mmse_average(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    K: int,
    n_phases: int = 16,
) -> FiniteWindowMmse:
    """Mean of finite_window_mmse over a uniform in-period offset grid."""
    win = CovarianceWindow.build(Sx, Sn, H, fs, K)
    chol, regularized = _chol_with_ridge(win.C_Y)
    total = 0.0
    for j in range(n_phases):
        c = win.cross_vector(j / n_phases)
        y = np.linalg.solve(chol, c)
        total += win.sigma2 - float(y @ y)
    return FiniteWindowMmse(value=max(total / n_phases, 0.0),
                            regularized=regularized)


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
    if K < 1:
        raise SpectrumError(f"window half-length must be >= 1, got {K}")
    if R < 0:
        raise SpectrumError(f"rate must be >= 0, got {R}")
    win = CovarianceWindow.build(Sx, Sn, H, fs, K)
    chol, _ = _chol_with_ridge(win.C_Y)
    n = np.arange(-K, K + 1)
    n_y = len(n)
    n_u = n_y * n_phases
    # C_YU row m, column (j, i): cov of Y[m] with X((n_i + delta_j)/fs)
    c_yu = np.empty((n_y, n_u))
    for j in range(n_phases):
        delta = j / n_phases
        lags = ((n[None, :] + delta) - n[:, None]) / fs
        c_yu[:, j * n_y:(j + 1) * n_y] = _cov_from_segments(
            list(win.xz_segments), lags
        )
    # nonzero eigenvalues of C_UY C_Y^-1 C_YU via the small Gram matrix
    b = np.linalg.solve(chol, c_yu)
    gram = b @ b.T
    eig = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    mmse_block = win.sigma2 - float(eig.sum()) / n_u

    from .waterfill import idrf_vector

    budget = R * (2 * K + 1) / fs
    sol = idrf_vector((np.ones_like(eig), eig), n_u, budget, mmse_block)
    return sol.distortion


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
    if M < 1:
        raise SpectrumError(f"decimation factor must be >= 1, got {M}")
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    fr = M * fs
    xz, zz = _observation_segments(Sx, Sn, H)

    def discretize(segs) -> DiscreteSpectrum:
        full = [(lo, hi, v) for lo, hi, v in segs] + [
            (-hi, -lo, v) for lo, hi, v in segs
        ]
        if not full:
            return DiscreteSpectrum(np.array([-0.5, 0.5]), np.array([0.0]))
        pts = sorted({p for lo, hi, _ in full for p in (lo, hi)})
        pw = _Pw(_dedup(np.array(pts)),
                 np.zeros(len(_dedup(np.array(pts))) - 1))
        # rebuild values at midpoints
        mids = 0.5 * (pw.bp[:-1] + pw.bp[1:])
        vals = np.zeros_like(mids)
        for lo, hi, v in full:
            vals[(mids > lo) & (mids < hi)] += v
        pw = _Pw(pw.bp, vals)
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

    return discretize(xz), discretize(zz)


def discrete_j_m(Sxz_d: DiscreteSpectrum, Sz_d: DiscreteSpectrum, M: int, phi) -> float:
    """Decimated-by-M conditional spectrum at normalized frequency phi."""
    if M < 1:
        raise SpectrumError(f"decimation factor must be >= 1, got {M}")
    phis = (float(phi) - np.arange(M)) / M
    num = float(np.sum(np.abs(Sxz_d.evaluate(phis)) ** 2))
    den = float(np.real(np.sum(Sz_d.evaluate(phis))))
    if den <= 0:
        return 0.0
    return num / den / M


def discrete_j_m_curve(
    Sxz_d: DiscreteSpectrum, Sz_d: DiscreteSpectrum, M: int
) -> DiscreteSpectrum:
    """discrete_j_m as an exact piecewise-constant curve on [-1/2, 1/2).

    A fine-spectrum breakpoint b maps to breakpoints M*b + i (integer i) of
    the decimated curve, so the output grid is exact and midpoint evaluation
    is safe.
    """
    if M < 1:
        raise SpectrumError(f"decimation factor must be >= 1, got {M}")
    pts = [np.array([-0.5, 0.5])]
    for b in np.concatenate([Sxz_d.bp, Sz_d.bp]):
        lo_i = math.ceil(-0.5 - M * b)
        hi_i = math.floor(0.5 - M * b)
        for i in range(lo_i, hi_i + 1):
            pts.append(np.array([M * b + i]))
    bp = _dedup(np.concatenate(pts))
    bp = bp[(bp >= -0.5 - BP_TOL) & (bp <= 0.5 + BP_TOL)]
    mids = 0.5 * (bp[:-1] + bp[1:])
    vals = np.array([discrete_j_m(Sxz_d, Sz_d, M, m) for m in mids])
    return DiscreteSpectrum(bp, vals)


# ---------------------------------------------------------------------------
# Scalar closed forms.

def iid_drf(C_U: float, C_V: float, C_UV: float, R: float) -> float:
    """Distortion-rate of scalar U described at R bits from observation V."""
    if C_V <= 0:
        if C_UV != 0:
            raise SpectrumError("zero-variance observation with nonzero cross term")
        return C_U
    return C_U - (1.0 - 2.0 ** (-2.0 * R)) * C_UV**2 / C_V


def iid_rate_for_distortion(C_U: float, C_V: float, C_UV: float, D: float) -> float:
    """Inverse of iid_drf on its attainable range."""
    mmse = C_U - C_UV**2 / C_V
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
