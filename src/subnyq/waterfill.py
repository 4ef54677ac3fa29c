"""Parametric reverse waterfilling and the distortion-rate operations.

Every distortion-rate quantity in the package reduces to the same parametric
pair on a piecewise-constant curve (or a family of eigenvalue curves):

    R(theta) = 1/2 * sum_p int log2+ [lambda_p(f) / theta] df
    D(theta) = mmse + sum_p int min{lambda_p(f), theta} df

R(theta) is piecewise log-linear, so the water level is read off values
sorted once and their cumulative sums, in closed form at any rate.  A
_WaterfillStack sorts a stack of curves at once, one per row, and solves a
rate for every row in one vectorised step.  Each row's sums add its pieces
in order (spectra._ordered_sum), so the zero pieces that pad a row in a block
move no bit and it solves to the bit as its one-row case.  A _Waterfill is
one row of a stack and reads its solution off the stack's level at any rate;
a row's failure at a rate is raised only when that row is read there.  Each
one-rate function f has a private form _f without R over a block of fs (a
sampling._Period, or the fs themselves for D-dagger): a stack with a row per
fs, or for the polyphase bound a function of the row.  The public function
is the one-row case.  Logarithms are base 2 throughout, so rates are in bits
and the flat-spectrum closed forms come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import (
    EigenCurves,
    SamplerSpec,
    ScalarCurve,
    _BankCurves,
    _folded,
    _mmse,
    _mmse_and_curve,
    _Period,
    _polyphase_values,
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
        with np.errstate(over="ignore"):  # named below instead
            rate = self.value * fs
        if (over := np.asarray(rate) == math.inf).any():
            raise WaterfillError(f"rate R = {self.value:g} bits per sample at fs = "
                                 f"{np.asarray(fs)[over][0]:g} overflows per time")
        return rate


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


def _rate_per_sample(R, fs: float, samples: int = 1) -> float:
    """_as_rate(R, fs) in bits per sample at fs, over a block of samples;
    WaterfillError, naming the rate and fs, where that overflows."""
    R = _as_rate(R, fs)
    if (rate := R * samples / fs) == math.inf:
        raise WaterfillError(f"rate R = {R:g} bits per time at fs = {fs:g} overflows per sample")
    return rate


@dataclass(frozen=True)
class WaterfillSolution:
    theta: float
    rate: float
    distortion: float
    mmse_part: float
    lossy_part: float

    def __post_init__(self):
        gap = abs(self.distortion - self.mmse_part - self.lossy_part)
        if not gap <= 1e-10 * max(1.0, abs(self.distortion)):  # NaN fails too
            raise WaterfillError(f"distortion decomposition off by {gap}")


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
    the bit as it would in a stack of its own.  mmse (per row), scale (of the
    lossy integral) and fs (per row, for rates in bits per sample) are 0, 1
    and None unless set.
    """

    fs = None
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
        self._levels = {}

    def check(self, i: int) -> None:
        """Raises row i's failure, if it has one; of_source's check replaces it."""

    @classmethod
    def of_source(cls, sigma2: float, w: np.ndarray, v: np.ndarray, check=None,
                  fs=None) -> "_WaterfillStack":
        """Rows whose mmse is sigma2, the source power, less the row's integral
        (sampling._mmse); check, if given, replaces the method of that name."""
        stack = cls(w, v)
        stack.fs = fs
        if check is not None:
            stack.check = check
        stack.mmse = _mmse(sigma2, stack._row_sums())
        return stack

    @classmethod
    def of_curves(cls, sigma2: float, curves) -> "_WaterfillStack":
        """of_source over the rows of a sampling._Curves, checked as it checks
        them, at the sampling rates of its periods."""
        return cls.of_source(sigma2, *curves.pieces(), curves.check, curves.per.fs)

    def _row_sums(self, theta=None) -> np.ndarray:
        """Per row, the sum of w * v over its pieces in order, or of
        w * min(v, theta) given a level per row."""
        v = self.v if theta is None else np.minimum(self.v, theta[:, None])
        return _ordered_sum(self.w * v)

    def level(self, R) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(theta, lossy, attained, rate) per row at R, a rate in bits per
        time, a RateSpec, which in bits per sample gives each row its own rate
        at its fs, or an array of rates, one per row (rate is then one per
        row, else one number).  attained is False where a row's rate is
        positive and the row attains none.  The level at a RateSpec is kept,
        as every row of a block reads it in turn."""
        spec = isinstance(R, RateSpec)
        if spec and (out := self._levels.get(R)) is not None:
            return out
        rate = R if isinstance(R, np.ndarray) else _as_rate(R, self.fs)
        zero = np.asarray(R.value if spec else rate) == 0  # the level is the row maximum
        k = (self.rate_at_next_value < np.reshape(rate, (-1, 1))).sum(axis=1)
        theta = np.where(zero, self.top,
                         np.exp2((self.S[self.rows, k] - 2.0 * rate) / self.W[self.rows, k]))
        attained = zero | self.attains
        lossy = self._row_sums(theta)
        out = theta, lossy if self.scale == 1.0 else self.scale * lossy, attained, rate
        if spec:
            self._levels[R] = out
        return out

    def row(self, i: int) -> "_Waterfill":
        """Row i as a _Waterfill, once the row passes its check."""
        self.check(i)
        wf = _Waterfill.__new__(_Waterfill)
        wf.stack, wf.i = self, i
        return wf


class _Waterfill:
    """Reverse waterfill over one curve: row i of a _WaterfillStack, solved at
    any rate by reading the stack's level there, or a stack of its own when
    built from curves.  The distortion is mmse plus scale times the lossy
    integral."""

    def __init__(self, curves, mmse: float = 0.0, scale: float = 1.0):
        w, v = _pieces(curves)
        if not w.size:  # one piece of zero width stands for none
            w, v = np.zeros(1), np.zeros(1)
        self.stack, self.i = _WaterfillStack(w, v[None]), 0
        self.stack.mmse, self.stack.scale = np.array([mmse], dtype=float), scale

    @classmethod
    def of_source(cls, sigma2: float, curves) -> "_Waterfill":
        """Waterfill whose mmse is sigma2, the source power, less the curves'
        integral (sampling._mmse), summed as a stack's row sums it."""
        w, v = _pieces(curves)
        return cls((w, v), float(_mmse(sigma2, _ordered_sum(w * v))))

    def solve(self, R, fs: float | None = None) -> WaterfillSolution:
        """The solution at R, in bits per time, or per sample at fs (by
        default, the row's own)."""
        if fs is not None and isinstance(R, RateSpec) and R.unit == BITS_PER_SAMPLE:
            R = R.per_time(fs)
        theta, lossy, attained, rate = self.stack.level(R)
        if not attained[self.i]:
            raise UnattainableRateError(_UNATTAINABLE)
        mmse, lossy = float(self.stack.mmse[self.i]), float(lossy[self.i])
        if isinstance(rate, np.ndarray):
            rate = rate[self.i]
        return WaterfillSolution(float(theta[self.i]), float(rate), mmse + lossy, mmse, lossy)


def solve_theta_for_rate(curves, R, fs: float | None = None) -> float:
    """Water level theta with rate_of_theta(theta) = R, in closed form."""
    return _Waterfill(curves).solve(R, fs).theta


def _idrf_stationary(src: _Source):
    w, v = _density_pieces(src.ratio, None if src.H is None else src.H.support())
    return _Waterfill.of_source(src.sigma2, (w, v))


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
    return _idrf_stationary(_Source(Sx, Sn, [H])).solve(R)


def idrf_vector(curves, M: int, rate_per_symbol, mmse: float) -> WaterfillSolution:
    """Vector source seen through a vector observation: eigenvalue waterfill.

    Rate is counted over all M coordinates; the distortion is averaged, so
    only the lossy term picks up the 1/M.
    """
    _check_count(M, "M", error=WaterfillError)
    mmse = _as_finite(mmse, "mmse", WaterfillError)
    return _Waterfill(curves, mmse, 1.0 / M).solve(rate_per_symbol)


def _drf_sampled_single(per: _Period) -> _WaterfillStack:
    return _WaterfillStack.of_curves(per.src.sigma2, _folded(per))


def drf_sampled_single(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    H: ComplexGainProfile | None,
    fs: float,
    R,
) -> WaterfillSolution:
    """Minimal distortion at rate R bits/time from single-branch samples at fs."""
    return _drf_sampled_single(_Source(Sx, Sn, [H]).periods([_check_fs(fs)])).row(0).solve(R)


def _drf_sampled_multi(per: _Period) -> _WaterfillStack:
    return _WaterfillStack.of_curves(per.src.sigma2, _BankCurves(per))


def drf_sampled_multi(
    Sx: SpectralDensity,
    Sn: SpectralDensity,
    spec: SamplerSpec,
    R,
) -> WaterfillSolution:
    """Same as drf_sampled_single but for a P-branch filter bank."""
    return _drf_sampled_multi(_Source(Sx, Sn, spec.branches).periods([spec.fs])).row(0).solve(R)


def _drf_sampled_optimal(per: _Period, P: int) -> _WaterfillStack:
    """On a block of the source's periods of fs/P cut at the SNR ratio."""
    return _WaterfillStack.of_curves(per.src.sigma2, _top_translates(per, P))


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
    return _drf_sampled_optimal(_Source(Sx, Sn).periods([_check_fs(fs)], P), P).row(0).solve(R)


def _d_dagger(src: _Source, fs: np.ndarray) -> _WaterfillStack:
    """d_dagger's waterfills, one row per fs: the SNR ratio's pieces on its
    best superlevel set of measure fs, zero-padded to one length."""
    sets = [superlevel_set_of_measure(src.ratio, f)[0] for f in fs.tolist()]
    w, v = _set_pieces(src.ratio, sets)
    return _WaterfillStack.of_source(src.sigma2, w, v, fs=fs)


def d_dagger(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> WaterfillSolution:
    """Limit of drf_sampled_optimal as the branch count grows.

    Waterfills the SNR ratio over its best superlevel set of measure fs; a
    lower bound on every finite-P optimum.
    """
    return _d_dagger(_Source(Sx, Sn), np.array([_check_fs(fs)])).row(0).solve(R)


def _d_star_lower_bound(per: _Period) -> _WaterfillStack:
    return _drf_sampled_optimal(per, 1)  # the sup over translates is the top-1 row


def d_star_lower_bound(Sx: SpectralDensity, Sn: SpectralDensity, fs: float, R) -> float:
    """Waterfill over the per-frequency best translate of the SNR ratio.

    No single-branch sampler at fs can do better than this, whatever the
    filter; the bound is met by the indicator of the maximal aliasing-free
    set, so it is drf_sampled_optimal at P = 1, bit for bit.
    """
    fs = _check_fs(fs)
    return _d_star_lower_bound(_Source(Sx, Sn).periods([fs], 1)).row(0).solve(R).distortion


def _polyphase_lower_bound(per: _Period, N_delta: int = 64):
    """The bound on the rows of a block of the source's periods, as a function
    of a row i and its sampling MMSE that gives the bound at that fs as a
    function of R and the distortion d of drf_sampled_single at R.  Row i has
    n = max(N_delta, 2*kmax + 1) offsets j/n; the offset spectra of all rows
    are one stack, sorted here once and solved once per R for all rows, each
    at its own rate per sample.  A row over the cap is not built, and raises
    when read."""
    translates = 2 * per.kmax + 1
    # a row with more offsets than the cap fails it, so n stops past the cap
    n = np.maximum(min(N_delta, _MAX_OFFSET_ENTRIES + 1), translates)
    fits = n * np.maximum(translates, per.cells) <= _MAX_OFFSET_ENTRIES
    v = _polyphase_values(per, [np.arange(m) / m if ok else [] for m, ok in zip(n, fits)])
    w = np.diff(per.grid / per.steps[:, None], axis=1)
    offsets, lossy = _WaterfillStack(np.tile(w, (len(v), 1)), v.reshape(-1, w.shape[1])), {}

    def row(i: int, mmse: float):
        if not fits[i]:
            raise WaterfillError(f"{max(N_delta, translates[i])} offsets by {translates[i]} "
                                 f"translates and {per.cells[i]} cells exceed the cap of "
                                 f"{_MAX_OFFSET_ENTRIES} entries")

        def at_rate(R, d: float) -> float:
            _rate_per_sample(R, float(per.steps[i]))  # raises where that overflows
            if R not in lossy:  # per row, added in offset order, as n waterfills would be
                with np.errstate(over="ignore"):  # a row whose rate overflows raises when read
                    rate = np.tile(_as_rate(R, per.fs) / per.steps, len(v))
                lossy[R] = _ordered_sum(offsets.level(rate)[1].reshape(len(v), -1), axis=0) / n
            bound = mmse + float(lossy[R][i])
            if not bound <= d + 1e-10 * max(1.0, per.src.sigma2):  # NaN fails too
                raise SpectrumError(f"polyphase bound {bound} exceeds the distortion {d}")
            return bound
        return at_rate
    return row


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
    per = _Source(Sx, Sn, [H]).periods([_check_fs(fs)])
    curves = _folded(per)
    mmse, _ = _mmse_and_curve(curves, 0)
    d = _WaterfillStack.of_curves(per.src.sigma2, curves).row(0).solve(R).distortion
    return _polyphase_lower_bound(per, N_delta)(0, mmse)(R, d)


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
