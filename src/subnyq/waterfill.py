"""Parametric reverse waterfilling and the distortion-rate operations.

Every distortion-rate quantity in the package reduces to the same parametric
pair on a piecewise-constant curve (or a family of eigenvalue curves):

    R(theta) = 1/2 * sum_p int log2+ [lambda_p(f) / theta] df
    D(theta) = mmse + sum_p int min{lambda_p(f), theta} df

R(theta) is piecewise log-linear, so the solver reads the water level off
sorted values and cumulative sums in closed form.  Logarithms are base 2
throughout, so rates are in bits and the flat-spectrum closed forms come out
exact.
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


def solve_theta_for_rate(curves, R, fs: float | None = None) -> float:
    """Water level theta with rate_of_theta(theta) = R, in closed form.

    With the k largest values active, 2R = S_k - W_k log2(theta), where W_k
    and S_k are the cumulative sums of w and w log2(v) over the values sorted
    largest first.  The active set is the smallest k whose rate at the next
    value down reaches R.  R = 0 returns the curve maximum.  Theta is formed
    from its log2, so it is exact down to the smallest subnormal and
    underflows to 0.0 beyond it.
    """
    R = _as_rate(R, fs)
    w, v = _pieces(curves)
    keep = (w > 0) & (v > 0)
    if not np.any(keep):
        if R > 0:
            raise UnattainableRateError(
                "curve is identically zero; no positive rate is attainable"
            )
        return 0.0
    order = np.argsort(-v[keep])
    w, v = w[keep][order], v[keep][order]
    if R == 0:
        return float(v[0])
    log_v = np.log2(v)
    W = np.cumsum(w)
    S = np.cumsum(w * log_v)
    rate_at_next_value = 0.5 * (S[:-1] - W[:-1] * log_v[1:])
    k = int(np.count_nonzero(rate_at_next_value < R))
    return float(np.exp2((S[k] - 2.0 * R) / W[k]))


def _solution(curves, R: float, mmse: float, scale: float = 1.0) -> WaterfillSolution:
    """Solve at rate R; distortion is mmse plus scale times the lossy integral.

    The lossy integral is read off the curve, so a zero curve and a theta
    that underflowed to 0.0 both give a zero lossy part without a special
    case, and the solution reports the requested rate.
    """
    w, v = _pieces(curves)
    theta = solve_theta_for_rate((w, v), R)
    lossy = scale * float(np.sum(w * np.minimum(v, theta)))
    return WaterfillSolution(theta, R, mmse + lossy, mmse, lossy)


def _waterfill(sigma2: float, curves, R, fs: float | None = None) -> WaterfillSolution:
    w, v = _pieces(curves)
    return _solution((w, v), _as_rate(R, fs), sigma2 - float(np.sum(w * v)))


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
    sigma2 = Sx.total_power()
    ratio = snr_ratio(Sx, Sn)
    w, v = _density_pieces(ratio, None if H is None else H.support())
    return _waterfill(sigma2, (w, v), R)


def idrf_vector(curves, M: int, rate_per_symbol, mmse: float) -> WaterfillSolution:
    """Vector source seen through a vector observation: eigenvalue waterfill.

    Rate is counted over all M coordinates; the distortion is averaged, so
    only the lossy term picks up the 1/M.
    """
    if M < 1:
        raise WaterfillError(f"M must be >= 1, got {M}")
    return _solution(curves, _as_rate(rate_per_symbol), mmse, 1.0 / M)


def drf_sampled_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
) -> WaterfillSolution:
    """Minimal distortion at rate R bits/time from single-branch samples at fs."""
    sigma2 = Sx.total_power()
    curve = s_tilde_single(Sx, Sn, H, fs)
    return _waterfill(sigma2, curve, R, fs)


def drf_sampled_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
    R,
) -> WaterfillSolution:
    """Same as drf_sampled_single but for a P-branch filter bank."""
    sigma2 = Sx.total_power()
    curves = eigen_curves_multi(Sx, Sn, spec)
    return _waterfill(sigma2, curves, R, spec.fs)


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
    sigma2 = Sx.total_power()
    ratio = snr_ratio(Sx, Sn)
    sets = maximal_af_sets(ratio, fs, P)
    widths, vals = [], []
    for F in sets:
        w, v = _density_pieces(ratio, F)
        widths.append(w)
        vals.append(v)
    pieces = (np.concatenate(widths), np.concatenate(vals))
    return _waterfill(sigma2, pieces, R, fs)


def d_dagger(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> WaterfillSolution:
    """Limit of drf_sampled_optimal as the branch count grows.

    Waterfills the SNR ratio over its best superlevel set of measure fs; a
    lower bound on every finite-P optimum.
    """
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    sigma2 = Sx.total_power()
    ratio = snr_ratio(Sx, Sn)
    F, _ = superlevel_set_of_measure(ratio, fs)
    return _waterfill(sigma2, _density_pieces(ratio, F), R, fs)


def d_star_lower_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> float:
    """Waterfill over the per-frequency best translate of the SNR ratio.

    No single-branch sampler at fs can do better than this, whatever the
    filter; the bound is met by the indicator of the maximal aliasing-free
    set.
    """
    sigma2 = Sx.total_power()
    ratio_pw = _pw_from_density(snr_ratio(Sx, Sn))
    sup = _pw_aliased(ratio_pw, fs, -fs / 2.0, fs / 2.0, op="sup")
    curve = ScalarCurve(sup.bp, np.real(sup.vals))
    return _waterfill(sigma2, curve, R, fs).distortion


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
    sigma2 = Sx.total_power()
    mmse, curve = _mmse_and_curve(Sx, Sn, H, fs)
    grid, k, A, denom = _polyphase_translates(Sx, Sn, H, fs)
    n = max(N_delta, len(k))
    w = np.diff(grid / fs)
    lossy = sum(_solution((w, v), R / fs, 0.0).lossy_part
                for v in _polyphase_values(k, A, denom, fs, np.arange(n) / n)
                if v.max() > 0)
    bound = mmse + lossy / n
    d = _waterfill(sigma2, curve, R).distortion
    if bound > d + 1e-10 * max(1.0, sigma2):
        raise SpectrumError(f"polyphase bound {bound} exceeds the distortion {d}")
    return bound


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
    curve = s_tilde_single(Sx, Sn, H, fs)
    return _solution(curve, _as_rate(R, fs), 0.0)
