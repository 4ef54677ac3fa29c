"""Parametric reverse waterfilling and the distortion-rate operations.

Every distortion-rate quantity in the package reduces to the same parametric
pair on a piecewise-constant curve (or a family of eigenvalue curves):

    R(theta) = 1/2 * sum_p int log2+ [lambda_p(f) / theta] df
    D(theta) = mmse + sum_p int min{lambda_p(f), theta} df

R(theta) is piecewise log-linear, so _Waterfill reads the water level off
values sorted once and their cumulative sums, in closed form at any rate.
Each one-rate function f has a private form _f without R that returns that
object (a function of R, for the polyphase bound), so a sweep builds it once
per fs.  Logarithms are base 2 throughout, so rates are in bits and the
flat-spectrum closed forms come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import (
    EigenCurves,
    SamplerSpec,
    ScalarCurve,
    eigen_curves_multi,
    _mmse_and_curve,
    _polyphase_translates,
    _polyphase_values,
    maximal_af_sets,
    s_tilde_single,
)
from .spectra import (
    ComplexGainProfile,
    SpectralDensity,
    SpectrumError,
    _density_pieces,
    _pw_aliased,
    _pw_from_density,
    snr_ratio,
    superlevel_set_of_measure,
)

__all__ = [
    "WaterfillError",
    "UnattainableRateError",
    "RateSpec",
    "WaterfillSolution",
    "rate_of_theta",
    "distortion_of_theta",
    "solve_theta_for_rate",
    "idrf_stationary",
    "idrf_vector",
    "drf_sampled_single",
    "drf_sampled_multi",
    "drf_sampled_optimal",
    "d_dagger",
    "d_star_lower_bound",
    "polyphase_lower_bound",
    "drf_of_estimator",
]

BITS_PER_TIME = "bits-per-time-unit"
BITS_PER_SAMPLE = "bits-per-sample"


class WaterfillError(ValueError):
    pass


class UnattainableRateError(WaterfillError):
    """Positive rate requested from an identically-zero spectrum."""


@dataclass(frozen=True)
class RateSpec:
    value: float
    unit: str = BITS_PER_TIME

    def __post_init__(self):
        _check_rate(self.value)
        if self.unit not in (BITS_PER_TIME, BITS_PER_SAMPLE):
            raise WaterfillError(f"unknown rate unit {self.unit!r}")

    def per_time(self, fs: float) -> float:
        if self.unit == BITS_PER_SAMPLE:
            return self.value * fs
        return self.value


def _check_rate(R) -> None:
    if not (math.isfinite(R) and R >= 0):
        raise WaterfillError(f"rate must be finite and >= 0, got {R}")


def _as_rate(R, fs: float | None = None) -> float:
    if isinstance(R, RateSpec):
        if R.unit == BITS_PER_SAMPLE:
            if fs is None:
                raise WaterfillError("bits-per-sample rate needs a sampling frequency")
            return R.per_time(fs)
        return R.value
    R = float(R)
    _check_rate(R)
    return R


@dataclass(frozen=True)
class WaterfillSolution:
    theta: float
    rate: float
    distortion: float
    mmse_part: float
    lossy_part: float

    def __post_init__(self):
        gap = abs(self.distortion - self.mmse_part - self.lossy_part)
        if gap > 1e-10 * max(1.0, abs(self.distortion)):
            raise WaterfillError(f"distortion decomposition off by {gap}")


def _pieces(curves) -> tuple[np.ndarray, np.ndarray]:
    """Flatten any supported curve description into (widths, values)."""
    if isinstance(curves, (ScalarCurve, EigenCurves)):
        return curves.pieces()
    w, v = curves
    return np.asarray(w, dtype=float), np.asarray(v, dtype=float)


def rate_of_theta(curves, theta: float) -> float:
    """Bits per unit width: 1/2 * sum w * log2+(v / theta)."""
    if theta <= 0:
        raise WaterfillError(f"theta must be positive, got {theta}")
    w, v = _pieces(curves)
    above = v > theta
    if not np.any(above):
        return 0.0
    # log2(v) - log2(theta), not log2(v / theta): the quotient overflows
    # when theta is subnormal
    return float(0.5 * np.sum(w[above] * (np.log2(v[above]) - math.log2(theta))))


def distortion_of_theta(sigma2: float, curves, theta: float) -> WaterfillSolution:
    if theta < 0:
        raise WaterfillError(f"theta must be >= 0, got {theta}")
    w, v = _pieces(curves)
    kept = float(np.sum(w * np.maximum(v - theta, 0.0)))
    lossy = float(np.sum(w * np.minimum(v, theta)))
    mmse = sigma2 - float(np.sum(w * v))
    rate = rate_of_theta(curves, theta) if theta > 0 else math.inf
    return WaterfillSolution(
        theta=theta,
        rate=rate,
        distortion=sigma2 - kept,
        mmse_part=mmse,
        lossy_part=lossy,
    )


class _Waterfill:
    """Reverse waterfill over one set of curves, sorted once for every rate.

    With the k largest values active, 2R = S_k - W_k log2(theta), where W_k
    and S_k are the cumulative sums of w and w log2(v) over the values sorted
    largest first.  k counts the values whose next-value rate is below R; it
    is not a binary search, as float ties can leave those rates out of order.
    R = 0 gives the curve maximum.  Theta comes from its log2, so it
    underflows to 0.0 only below the smallest subnormal.  The distortion is
    mmse plus scale times the lossy integral, read off the unsorted curve.
    """

    def __init__(self, curves, mmse: float = 0.0, scale: float = 1.0):
        self.w, self.v = _pieces(curves)
        self.mmse, self.scale = mmse, scale
        keep = (self.w > 0) & (self.v > 0)
        order = np.argsort(-self.v[keep])
        w, v = self.w[keep][order], self.v[keep][order]
        self.top = float(v[0]) if v.size else 0.0
        log_v = np.log2(v)
        self.W = np.cumsum(w)
        self.S = np.cumsum(w * log_v)
        self.rate_at_next_value = 0.5 * (self.S[:-1] - self.W[:-1] * log_v[1:])

    @classmethod
    def of_source(cls, sigma2: float, curves) -> "_Waterfill":
        """Waterfill whose mmse is sigma2, the source power, less the curves' integral."""
        w, v = _pieces(curves)
        return cls((w, v), sigma2 - float(np.sum(w * v)))

    def solve(self, R, fs: float | None = None) -> WaterfillSolution:
        R = _as_rate(R, fs)
        if R == 0:
            theta = self.top
        elif not self.W.size:
            raise UnattainableRateError("curve is identically zero; "
                                        "no positive rate is attainable")
        else:
            k = int(np.count_nonzero(self.rate_at_next_value < R))
            theta = float(np.exp2((self.S[k] - 2.0 * R) / self.W[k]))
        lossy = self.scale * float(np.sum(self.w * np.minimum(self.v, theta)))
        return WaterfillSolution(theta, R, self.mmse + lossy, self.mmse, lossy)


def solve_theta_for_rate(curves, R, fs: float | None = None) -> float:
    """Water level theta with rate_of_theta(theta) = R, in closed form."""
    return _Waterfill(curves).solve(R, fs).theta


def _idrf_stationary(Sx, Sn, H):
    w, v = _density_pieces(snr_ratio(Sx, Sn), None if H is None else H.support())
    return _Waterfill.of_source(Sx.total_power(), (w, v))


def idrf_stationary(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    R,
) -> WaterfillSolution:
    """Distortion-rate of the source given the full filtered noisy waveform.

    This is the no-sampling baseline: waterfilling over the conditional
    spectrum Sx^2 |H|^2 / ((Sx+Sn)|H|^2) on the whole line.
    """
    return _idrf_stationary(Sx, Sn, H).solve(R)


def idrf_vector(curves, M: int, rate_per_symbol, mmse: float) -> WaterfillSolution:
    """Vector source seen through a vector observation: eigenvalue waterfill.

    Rate is counted over all M coordinates; the distortion is averaged, so
    only the lossy term picks up the 1/M.
    """
    if M < 1:
        raise WaterfillError(f"M must be >= 1, got {M}")
    return _Waterfill(curves, mmse, 1.0 / M).solve(rate_per_symbol)


def _drf_sampled_single(Sx, Sn, H, fs):
    return _Waterfill.of_source(Sx.total_power(), s_tilde_single(Sx, Sn, H, fs))


def drf_sampled_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
) -> WaterfillSolution:
    """Minimal distortion at rate R bits/time from single-branch samples at fs."""
    return _drf_sampled_single(Sx, Sn, H, fs).solve(R, fs)


def _drf_sampled_multi(Sx, Sn, spec):
    return _Waterfill.of_source(Sx.total_power(), eigen_curves_multi(Sx, Sn, spec))


def drf_sampled_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
    R,
) -> WaterfillSolution:
    """Same as drf_sampled_single but for a P-branch filter bank."""
    return _drf_sampled_multi(Sx, Sn, spec).solve(R, spec.fs)


def _drf_sampled_optimal(Sx, Sn, fs, P):
    ratio = snr_ratio(Sx, Sn)
    w, v = zip(*(_density_pieces(ratio, F) for F in maximal_af_sets(ratio, fs, P)))
    return _Waterfill.of_source(Sx.total_power(), (np.concatenate(w), np.concatenate(v)))


def drf_sampled_optimal(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    fs: float,
    P: int,
    R,
) -> WaterfillSolution:
    """Distortion with the best P-branch filter bank at total rate fs.

    The optimal filters are indicators of the maximal aliasing-free sets of
    the SNR ratio, so the waterfill runs over the ratio restricted to their
    union; no eigen grid is needed.
    """
    return _drf_sampled_optimal(Sx, Sn, fs, P).solve(R, fs)


def _d_dagger(Sx, Sn, fs):
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    ratio = snr_ratio(Sx, Sn)
    F, _ = superlevel_set_of_measure(ratio, fs)
    return _Waterfill.of_source(Sx.total_power(), _density_pieces(ratio, F))


def d_dagger(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> WaterfillSolution:
    """Limit of drf_sampled_optimal as the branch count grows.

    Waterfills the SNR ratio over its best superlevel set of measure fs; a
    lower bound on every finite-P optimum.
    """
    return _d_dagger(Sx, Sn, fs).solve(R, fs)


def _d_star_lower_bound(Sx, Sn, fs):
    ratio_pw = _pw_from_density(snr_ratio(Sx, Sn))
    sup = _pw_aliased(ratio_pw, fs, -fs / 2.0, fs / 2.0, op="sup")
    return _Waterfill.of_source(Sx.total_power(), ScalarCurve(sup.bp, np.real(sup.vals)))


def d_star_lower_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> float:
    """Waterfill over the per-frequency best translate of the SNR ratio.

    No single-branch sampler at fs can do better than this, whatever the
    filter; the bound is met by the indicator of the maximal aliasing-free
    set.
    """
    return _d_star_lower_bound(Sx, Sn, fs).solve(R, fs).distortion


def _polyphase_lower_bound(Sx, Sn, H, fs, mmse, drf: _Waterfill, N_delta: int = 64):
    """The bound at fs as a function of R bits/time, given the sampling MMSE
    and the drf_sampled_single waterfill; the n offset spectra are sorted here."""
    sigma2 = Sx.total_power()
    grid, k, A, denom = _polyphase_translates(Sx, Sn, H, fs)
    n = max(N_delta, len(k))
    w = np.diff(grid / fs)
    offsets = [_Waterfill((w, v)) for v in _polyphase_values(k, A, denom, fs, np.arange(n) / n)
               if v.max() > 0]

    def at_rate(R: float) -> float:
        bound = mmse + sum(wf.solve(R / fs).lossy_part for wf in offsets) / n
        d = drf.solve(R).distortion
        if bound > d + 1e-10 * max(1.0, sigma2):
            raise SpectrumError(f"polyphase bound {bound} exceeds the distortion {d}")
        return bound
    return at_rate


def polyphase_lower_bound(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
    N_delta: int = 64,
) -> float:
    """Lower bound on drf_sampled_single via the polyphase decomposition.

    Each in-period offset delta gets its own waterfill at the per-sample rate
    R/fs over its conditional polyphase spectrum; the lossy terms are
    averaged over n = max(N_delta, 2*k_max + 1) equally spaced offsets, one
    at least per fs translate in the phased sums, and added to the sampling
    MMSE.  With that many offsets the cross terms of the squared phased sums
    cancel exactly, so the bound holds at every fs.  Equality holds above the
    Nyquist rate, where the polyphase spectra coincide.  A bound above
    drf_sampled_single raises SpectrumError.
    """
    if N_delta < 8:
        raise WaterfillError(f"N_delta must be >= 8, got {N_delta}")
    R = _as_rate(R, fs)
    mmse, curve = _mmse_and_curve(Sx, Sn, H, fs)
    drf = _Waterfill.of_source(Sx.total_power(), curve)
    return _polyphase_lower_bound(Sx, Sn, H, fs, mmse, drf, N_delta)(R)


def drf_of_estimator(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
) -> WaterfillSolution:
    """Distortion-rate of the optimal sampling estimator process itself.

    The estimator has spectrum s_tilde_single and no estimation-error floor,
    so the solution is pure lossy part; adding mmse_single reconstitutes
    drf_sampled_single at the same rate (separation).
    """
    return _Waterfill(s_tilde_single(Sx, Sn, H, fs)).solve(R, fs)
