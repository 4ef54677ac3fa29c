"""Parametric reverse waterfilling and the distortion-rate operations.

Every distortion-rate quantity in the package reduces to the same parametric
pair on a piecewise-constant curve (or a family of eigenvalue curves):

    R(theta) = 1/2 * sum_p int log2+ [lambda_p(f) / theta] df
    D(theta) = mmse + sum_p int min{lambda_p(f), theta} df

R(theta) is piecewise log-linear, so the water level is read off values
sorted once and their cumulative sums, in closed form at any rate.  A
_WaterfillStack sorts a stack of curves at once, one per row, and solves a
rate for every row in one vectorised step: theta, the lossy part and the
distortion of each row, with the checks of a solution (the rate attained,
distortion = mmse + lossy) as masks over the rows, which the sweep raises
at the point that fails them.  Each row's sums add its pieces in order
(spectra._ordered_sum), so the zero pieces that pad a row in a block move no
bit and it solves to the bit as its one-row case.  The block forms take a
block of fs (a sampling._Period's curves, or the fs themselves for D-dagger)
and give a stack with a row per fs, or for the polyphase bound a function of
each row's (mmse, d, R).  Each public one-rate function is the one-row case,
read as a WaterfillSolution (_WaterfillStack.solution).  Logarithms are base
2 throughout, so rates are in bits and the flat-spectrum closed forms come
out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _raise_first
from .sampling import (
    EigenCurves,
    SamplerSpec,
    ScalarCurve,
    _BankCurves,
    _folded,
    _mmse,
    _mmse_single,
    _Period,
    _polyphase_values,
    _row_zero,
    _Source,
    _top_translates,
    s_tilde_single,
)
from .spectra import (
    ComplexGainProfile,
    SpectralDensity,
    SpectrumError,
    _as_finite,
    _as_real,
    _check_count,
    _check_fs,
    _density_pieces,
    _ordered_sum,
    _set_pieces,
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

# Most entries of the polyphase bound's (offsets x translates) phases and
# (offsets x cells) spectra, as the CLI caps the oracle's cross covariance.
_MAX_OFFSET_ENTRIES = 10_000_000

BITS_PER_TIME = "bits-per-time-unit"
BITS_PER_SAMPLE = "bits-per-sample"


_UNATTAINABLE = "curve is identically zero; no positive rate is attainable"


class WaterfillError(ValueError):
    pass


class UnattainableRateError(WaterfillError):
    """Positive rate requested from an identically-zero spectrum."""


@dataclass(frozen=True)
class RateSpec:
    value: float
    unit: str = BITS_PER_TIME

    def __post_init__(self):
        _check_rate(_as_real(self.value, "rate", WaterfillError))
        if self.unit not in (BITS_PER_TIME, BITS_PER_SAMPLE):
            raise WaterfillError(f"unknown rate unit {self.unit!r}")

    def per_time(self, fs):
        """The rate in bits per time at fs, a number or an array of them;
        WaterfillError, naming the rate and fs, where that overflows."""
        if self.unit != BITS_PER_SAMPLE:
            return self.value
        rate, check = self._per_time(np.atleast_1d(fs))
        _raise_first([check], np.argmax(check[0]))  # the first fs where it overflows
        return rate if np.ndim(fs) else float(rate[0])

    def _per_time(self, fs: np.ndarray):
        """per_time at each fs of an array, inf where it overflows, and the
        check of those fs, as linalg._raise_first takes it."""
        with np.errstate(over="ignore"):  # named by the check instead
            rate = self.value * fs if self.unit == BITS_PER_SAMPLE else np.full(len(fs), self.value)
        return rate, (rate == math.inf, lambda i: WaterfillError(
            f"rate R = {self.value:g} bits per sample at fs = {fs[i]:g} overflows per time"))


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
    R = _as_real(R, "rate", WaterfillError)
    _check_rate(R)
    return R


def _per_sample(rate: np.ndarray, fs: np.ndarray, samples: int = 1):
    """Rates in bits per time at fs in bits per sample, over a block of
    samples, per entry, inf where that overflows, and the check of those
    entries, as linalg._raise_first takes it."""
    with np.errstate(over="ignore"):  # named by the check instead
        out = rate * samples / fs
    return out, (out == math.inf, lambda i: WaterfillError(
        f"rate R = {rate[i]:g} bits per time at fs = {fs[i]:g} overflows per sample"))


def _rate_per_sample(R, fs: float, samples: int = 1) -> float:
    """_as_rate(R, fs) in bits per sample at fs, over a block of samples;
    WaterfillError, naming the rate and fs, where that overflows."""
    rate, check = _per_sample(np.array([_as_rate(R, fs)]), np.array([fs]), samples)
    _raise_first([check], 0)
    return float(rate[0])


def _decomposition(distortion, mmse, lossy):
    """The check that each distortion is its mmse plus its lossy part, as
    linalg._raise_first takes it; NaN fails too."""
    gap = np.abs(distortion - mmse - lossy)
    return ~(gap <= 1e-10 * np.maximum(1.0, np.abs(distortion))), lambda at: WaterfillError(
        f"distortion decomposition off by {float(gap[at])}")


@dataclass(frozen=True)
class WaterfillSolution:
    theta: float
    rate: float
    distortion: float
    mmse_part: float
    lossy_part: float

    def __post_init__(self):
        _raise_first([_decomposition(self.distortion, self.mmse_part, self.lossy_part)])


def _pieces(curves) -> tuple[np.ndarray, np.ndarray]:
    """Flatten any supported curve description into (widths, values): the
    library's curves, or raw (w, v), which are checked."""
    if isinstance(curves, (ScalarCurve, EigenCurves)):
        return curves.pieces()
    try:
        w, v = (np.asarray(x) for x in curves)
    except (TypeError, ValueError):  # not a pair, or ragged
        w = v = np.zeros((0, 0))
    real = w.ndim == v.ndim == 1 and len(w) == len(v) and {w.dtype.kind, v.dtype.kind} <= {*"iuf"}
    if not (real and all(((x >= 0) & (x < math.inf)).all() for x in (w, v))):
        raise WaterfillError("pieces must be (widths, values), 1-D arrays of real numbers of "
                             "one length, each finite and >= 0")
    return w.astype(float), v.astype(float)


def rate_of_theta(curves, theta: float) -> float:
    """Bits per unit width: 1/2 * sum w * log2+(v / theta)."""
    if not theta > 0:  # NaN fails too
        raise WaterfillError(f"theta must be positive, got {theta}")
    w, v = _pieces(curves)
    above = v > theta
    if not np.any(above):
        return 0.0
    # log2(v) - log2(theta), not log2(v / theta): the quotient overflows
    # when theta is subnormal
    return float(0.5 * np.sum(w[above] * (np.log2(v[above]) - math.log2(theta))))


def distortion_of_theta(sigma2: float, curves, theta: float) -> WaterfillSolution:
    sigma2 = _as_finite(sigma2, "sigma2", WaterfillError)
    if not theta >= 0:  # NaN fails too
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


class _WaterfillStack:
    """Reverse waterfills over a stack of curves, one per row of values, each
    sorted once for every rate; w holds the widths, one row per row of values
    or one row for all.

    With the k largest values of a row active, 2R = S_k - W_k log2(theta),
    where W_k and S_k are the cumulative sums of w and w log2(v) over the row's
    values sorted largest first.  k counts the values whose next-value rate is
    below R; it is not a binary search, as float ties can leave those rates out
    of order.  R = 0 gives the row maximum.  Theta comes from its log2, so it
    underflows to 0.0 only below the smallest subnormal.  The rows share one
    stable argsort along axis 1, and every rate one count per row, one exp2 and
    one sum per row.  Pieces of zero width or value sort last and are masked:
    their log2 is never taken and their next-value rate is inf, so they are
    never active.  A row with no positive piece has theta 0 at R = 0 and
    attains no positive rate.

    A row of a block may carry padding pieces of zero width or value; its
    sums add its pieces in order, so they move no bit, and a row solves to
    the bit as it would in a stack of its own.  mmse (per row) and scale (of
    the lossy integral) are 0 and 1 unless set.
    """

    scale = 1.0

    def __init__(self, w: np.ndarray, values: np.ndarray):
        self.w, self.v = w, values
        key = np.where((w > 0) & (values > 0), -values, np.inf)
        order = key.argsort(axis=1, kind="stable")
        self.rows = np.arange(len(values))
        at = self.rows[:, None], order
        key = key[at]
        kept, v = key < np.inf, -key
        w = w[order] if w.ndim == 1 else w[at]
        log_v = np.log2(np.where(kept, v, 1.0))
        self.top = np.where(kept[:, 0], v[:, 0], 0.0)
        self.attains = kept[:, 0]
        # past a row's last kept piece W and S are never read, and may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            self.W = w.cumsum(axis=1)
            self.S = (w * log_v).cumsum(axis=1)
            self.rate_at_next_value = np.where(
                kept[:, 1:], 0.5 * (self.S[:, :-1] - self.W[:, :-1] * log_v[:, 1:]), np.inf)
        # a row reads W at a kept piece, where it is positive, or, with none
        # kept, at its first: 1 there spares a division by 0 in a level that
        # is never read
        self.W[~self.attains, 0] = 1.0
        self.mmse = np.zeros(len(values))

    @classmethod
    def of_source(cls, sigma2: float, w: np.ndarray, v: np.ndarray) -> "_WaterfillStack":
        """Rows whose mmse is sigma2, the source power, less the row's integral
        (sampling._mmse)."""
        stack = cls(w, v)
        stack.mmse = _mmse(sigma2, stack._row_sums())
        return stack

    @classmethod
    def of_curves(cls, sigma2: float, curves) -> "_WaterfillStack":
        """of_source over the rows of a sampling._Curves or _BankCurves."""
        return cls.of_source(sigma2, *curves.pieces())

    @classmethod
    def of_pieces(cls, curves, mmse: float = 0.0, scale: float = 1.0) -> "_WaterfillStack":
        """One row, of any supported curve description (_pieces), whose
        distortion is mmse plus scale times the lossy integral."""
        w, v = _pieces(curves)
        if not w.size:  # one piece of zero width stands for none
            w, v = np.zeros(1), np.zeros(1)
        stack = cls(w, v[None])
        stack.mmse, stack.scale = np.array([mmse], dtype=float), scale
        return stack

    def _row_sums(self, theta=None) -> np.ndarray:
        """Per row, the sum of w * v over its pieces in order, or of
        w * min(v, theta) given a level per row."""
        v = self.v if theta is None else np.minimum(self.v, theta[:, None])
        return _ordered_sum(self.w * v)

    def level(self, rate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, lossy, attained) per row at rate, in bits per time: one
        number, or an array of them, one per row (or, on a one-row stack, one
        per level wanted).  attained is False where a row's rate is positive
        and the row attains none."""
        zero = np.asarray(rate) == 0  # the level is the row maximum
        k = (self.rate_at_next_value < np.reshape(rate, (-1, 1))).sum(axis=1)
        with np.errstate(over="ignore"):  # 2R past the float range: theta is 0
            theta = np.where(zero, self.top,
                             np.exp2((self.S[self.rows, k] - 2.0 * rate) / self.W[self.rows, k]))
        lossy = self._row_sums(theta)
        return theta, lossy if self.scale == 1.0 else self.scale * lossy, zero | self.attains

    def solve(self, rate) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """(theta, lossy, distortion, checks) per row at rate, as level takes
        it: distortion is mmse + lossy, and checks are a solution's, in the
        order they are made, as linalg._raise_first takes them: the rate
        attained, then the decomposition."""
        theta, lossy, attained = self.level(rate)
        distortion = self.mmse + lossy
        return theta, lossy, distortion, [
            (~attained, lambda i: UnattainableRateError(_UNATTAINABLE)),
            _decomposition(distortion, self.mmse, lossy)]

    def solution(self, R, fs: float | None = None, i: int = 0) -> WaterfillSolution:
        """Row i's solution at R, in bits per time, or per sample at fs; the
        row's failure there raises."""
        rate = _as_rate(R, fs)
        theta, lossy, distortion, checks = self.solve(rate)
        _raise_first(checks, i)
        return WaterfillSolution(float(theta[i]), float(rate), float(distortion[i]),
                                 float(self.mmse[i]), float(lossy[i]))


def solve_theta_for_rate(curves, R, fs: float | None = None) -> float:
    """Water level theta with rate_of_theta(theta) = R, in closed form."""
    return _WaterfillStack.of_pieces(curves).solution(R, fs).theta


def _idrf_stationary(src: _Source) -> _WaterfillStack:
    """idrf_stationary's waterfill, one row for every fs."""
    w, v = _density_pieces(src.ratio, None if src.H is None else src.H.support())
    return _WaterfillStack.of_source(src.sigma2, w, v[None])


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
    return _idrf_stationary(_Source(Sx, Sn, [H])).solution(R)


def idrf_vector(curves, M: int, rate_per_symbol, mmse: float) -> WaterfillSolution:
    """Vector source seen through a vector observation: eigenvalue waterfill.

    Rate is counted over all M coordinates; the distortion is averaged, so
    only the lossy term picks up the 1/M.
    """
    _check_count(M, "M", error=WaterfillError)
    mmse = _as_finite(mmse, "mmse", WaterfillError)
    return _WaterfillStack.of_pieces(curves, mmse, 1.0 / M).solution(rate_per_symbol)


def _solve_one(curves, R, fs: float) -> WaterfillSolution:
    """The waterfill over a one-row block of curves at R (per sample at fs),
    once the row passes the curves' checks."""
    _raise_first(curves.checks, 0)
    return _WaterfillStack.of_curves(curves.per.src.sigma2, curves).solution(R, fs)


def drf_sampled_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
) -> WaterfillSolution:
    """Minimal distortion at rate R bits/time from single-branch samples at fs."""
    fs = _check_fs(fs)
    return _solve_one(_folded(_Source(Sx, Sn, [H]).periods([fs])), R, fs)


def drf_sampled_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
    R,
) -> WaterfillSolution:
    """Same as drf_sampled_single but for a P-branch filter bank."""
    return _solve_one(_BankCurves(_Source(Sx, Sn, spec.branches).periods([spec.fs])), R, spec.fs)


def drf_sampled_optimal(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    fs: float,
    P: int,
    R,
) -> WaterfillSolution:
    """Distortion with the best P-branch filter bank at total rate fs.

    The optimal filters are indicators of the maximal aliasing-free sets of
    the SNR ratio, so the waterfill runs over the ratio on their union: the P
    largest translates of the ratio by fs/P on one period.  No set is built.
    """
    _check_count(P, "P")
    fs = _check_fs(fs)
    return _solve_one(_top_translates(_Source(Sx, Sn).periods([fs], P), P), R, fs)


def _d_dagger(src: _Source, fs: np.ndarray) -> _WaterfillStack:
    """d_dagger's waterfills, one row per fs: the SNR ratio's pieces on its
    best superlevel set of measure fs, zero-padded to one length."""
    sets = [superlevel_set_of_measure(src.ratio, f)[0] for f in fs.tolist()]
    return _WaterfillStack.of_source(src.sigma2, *_set_pieces(src.ratio, sets))


def d_dagger(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> WaterfillSolution:
    """Limit of drf_sampled_optimal as the branch count grows.

    Waterfills the SNR ratio over its best superlevel set of measure fs; a
    lower bound on every finite-P optimum.
    """
    fs = _check_fs(fs)
    return _d_dagger(_Source(Sx, Sn), np.array([fs])).solution(R, fs)


def d_star_lower_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> float:
    """Waterfill over the per-frequency best translate of the SNR ratio.

    No single-branch sampler at fs can do better than this, whatever the
    filter; the bound is met by the indicator of the maximal aliasing-free
    set, so it is drf_sampled_optimal at P = 1, bit for bit: the sup over
    translates is the top-1 row.
    """
    return drf_sampled_optimal(Sx, Sn, fs, 1, R).distortion


class _PolyphaseBound:
    """The polyphase bound on the rows of a block of the source's periods.
    Row i has n = max(N_delta, 2*kmax + 1) offsets j/n; the offset spectra of
    all rows are one stack, sorted here once and solved once per rate for all
    rows, each at its own rate per sample.  check fails on the rows whose
    offsets exceed the cap, which are not built."""

    def __init__(self, per: _Period, N_delta: int):
        self.per, translates = per, 2 * per.kmax + 1
        # a row with more offsets than the cap fails it, so n stops past the cap
        self.n = np.maximum(min(N_delta, _MAX_OFFSET_ENTRIES + 1), translates)
        fits = self.n * np.maximum(translates, per.cells) <= _MAX_OFFSET_ENTRIES
        v = _polyphase_values(per, [np.arange(m) / m if ok else [] for m, ok in zip(self.n, fits)])
        w = np.diff(per.grid / per.steps[:, None], axis=1)
        self.offsets = _WaterfillStack(np.tile(w, (len(v), 1)), v.reshape(-1, w.shape[1]))
        self.check = (~fits, lambda i: WaterfillError(
            f"{max(N_delta, translates[i])} offsets by {translates[i]} translates and "
            f"{per.cells[i]} cells exceed the cap of {_MAX_OFFSET_ENTRIES} entries"))

    def __call__(self, mmse: np.ndarray, d: np.ndarray, rate: np.ndarray):
        """(bound, checks) per row, given its sampling MMSE, the distortion d of
        drf_sampled_single and the rate in bits per time; checks, as _raise_first
        takes them: the rate per sample overflows, then the bound exceeds d."""
        per = self.per
        rate, over = _per_sample(rate, per.steps)
        lossy = self.offsets.level(np.tile(rate, len(self.offsets.rows) // len(per)))[1]
        # per row, added in offset order, as n waterfills would be
        bound = mmse + _ordered_sum(lossy.reshape(-1, len(per)), axis=0) / self.n
        above = ~(bound <= d + 1e-10 * max(1.0, per.src.sigma2))  # NaN fails too
        return bound, [over, (above, lambda i: SpectrumError(
            f"polyphase bound {float(bound[i])} exceeds the distortion {float(d[i])}"))]


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
    MMSE.  The n offset spectra are one stack, sorted once per fs.  With
    that many offsets the cross terms of the squared phased sums cancel
    exactly, so the bound holds at every fs.  Equality holds above the
    Nyquist rate, where the polyphase spectra coincide.  A bound above
    drf_sampled_single raises SpectrumError.
    """
    _check_count(N_delta, "N_delta", 8, WaterfillError)
    R = _as_rate(R, fs)
    curves = _folded(_Source(Sx, Sn, [H]).periods([_check_fs(fs)]))
    mmse = _row_zero(*_mmse_single(curves))
    d = _WaterfillStack.of_curves(curves.per.src.sigma2, curves).solution(R).distortion
    bound = _PolyphaseBound(curves.per, N_delta)
    _raise_first([bound.check], 0)
    return _row_zero(*bound(np.array([mmse]), np.array([d]), np.array([R])))


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
    return _WaterfillStack.of_pieces(s_tilde_single(Sx, Sn, H, fs)).solution(R, fs)
