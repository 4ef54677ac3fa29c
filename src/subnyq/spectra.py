"""Piecewise-constant spectral densities and frequency-interval sets.

All spectra handled by this package are even, nonnegative, piecewise-constant
functions of frequency with bounded support.  Restricting to this class keeps
every integral, aliased sum and waterfilling step exact: there is no quadrature
anywhere, only interval arithmetic.  Densities store their f >= 0 half only and
mirror it, so evenness holds by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Breakpoints closer than this are considered equal when grids produced by
# translate lattices are merged.  Well above float rounding at the frequency
# scales involved, well below any meaningful segment width.
BP_TOL = 1e-9


class SpectrumError(ValueError):
    """Invalid spectral data or arguments."""


def _check_fs(fs) -> float:
    """The one sampling-rate check: a real number in (0, inf), so NaN, a bool,
    a string or a complex fails too; returns fs as a float."""
    fs = _as_real(fs, "fs")
    if not 0 < fs < math.inf:
        raise SpectrumError(f"fs must be positive and finite, got {fs}")
    return fs


def _check_count(n, name: str, minimum: int = 1, error: type = SpectrumError) -> None:
    """The one count check: an integer, not a bool, and at least minimum."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < minimum:
        raise error(f"{name} must be >= {minimum} and an integer, got {n!r}")


def _as_real(x, what: str, error: type = SpectrumError) -> float:
    """x as a float: a real number, not a bool, string, None or complex.  An
    integer too large for a float becomes +-inf, for the caller's finite check."""
    if type(x) is float:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _as_finite(x, what: str, error: type = SpectrumError) -> float:
    """_as_real(x, what, error), or error unless it is finite."""
    if not math.isfinite(x := _as_real(x, what, error)):
        raise error(f"{what} must be finite, got {x}")
    return x


def _as_complex(x, what: str) -> complex:
    """x as a complex: a number, not a bool, string or None; an integer too
    large for a float becomes inf."""
    if isinstance(x, bool) or not isinstance(x, numbers.Complex):
        raise SpectrumError(f"{what} must be a number, got {x!r}")
    if isinstance(x, numbers.Real):
        return complex(_as_real(x, what))
    return complex(x)


def _entries(seq, what: str) -> tuple:
    """The entries of a list of segments, or of one segment, as a tuple."""
    try:
        return tuple(seq)
    except TypeError:
        raise SpectrumError(f"{what} must be a sequence, got {seq!r}") from None


def _segment(seg, what: str) -> tuple:
    """(lo, hi, value) of one segment, as entries of any type."""
    parts = _entries(seg, what)
    if len(parts) != 3:
        raise SpectrumError(f"{what} must have 3 entries (lo, hi, value), got {seg!r}")
    return parts


@dataclass(frozen=True, order=True)
class FrequencyInterval:
    """Open-ended frequency interval (lo, hi); empty intervals are rejected."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise SpectrumError(f"interval needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo


class FrequencySet:
    """Finite union of disjoint bounded intervals.

    Normalization sorts the intervals, merges any that overlap or touch
    (within BP_TOL) and drops slivers of width <= BP_TOL, so two sets that
    describe the same region compare equal.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[FrequencyInterval | tuple] = ()):
        pairs = []
        for iv in intervals:
            if isinstance(iv, FrequencyInterval):
                pairs.append((iv.lo, iv.hi))
            else:
                lo, hi = iv
                if hi - lo > BP_TOL:
                    pairs.append((float(lo), float(hi)))
        pairs.sort()
        merged: list[list[float]] = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1] + BP_TOL:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(
            self,
            "intervals",
            tuple(FrequencyInterval(lo, hi) for lo, hi in merged if hi - lo > BP_TOL),
        )

    def __setattr__(self, *a):
        raise AttributeError("FrequencySet is immutable")

    def __eq__(self, other):
        if not isinstance(other, FrequencySet):
            return NotImplemented
        if len(self.intervals) != len(other.intervals):
            return False
        return all(
            math.isclose(a.lo, b.lo, abs_tol=10 * BP_TOL)
            and math.isclose(a.hi, b.hi, abs_tol=10 * BP_TOL)
            for a, b in zip(self.intervals, other.intervals)
        )

    def __hash__(self):
        return hash(len(self.intervals))

    def __repr__(self):
        body = " u ".join(f"({iv.lo:g},{iv.hi:g})" for iv in self.intervals)
        return f"FrequencySet[{body or 'empty'}]"

    def measure(self) -> float:
        return sum(iv.width for iv in self.intervals)

    def contains(self, f: float) -> bool:
        return any(iv.lo <= f < iv.hi for iv in self.intervals)

    def union(self, other: "FrequencySet") -> "FrequencySet":
        return FrequencySet(self.intervals + other.intervals)

    def intersect(self, other: "FrequencySet") -> "FrequencySet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if hi - lo > BP_TOL:
                    out.append((lo, hi))
        return FrequencySet(out)

    def complement_within(self, lo: float, hi: float) -> "FrequencySet":
        out = []
        cursor = lo
        for iv in self.intervals:
            if iv.hi <= lo or iv.lo >= hi:
                continue
            if iv.lo > cursor:
                out.append((cursor, iv.lo))
            cursor = max(cursor, iv.hi)
        if cursor < hi:
            out.append((cursor, hi))
        return FrequencySet(out)

    def translate(self, delta: float) -> "FrequencySet":
        return FrequencySet((iv.lo + delta, iv.hi + delta) for iv in self.intervals)

    def mirrored(self) -> "FrequencySet":
        neg = [(-iv.hi, -iv.lo) for iv in self.intervals]
        return FrequencySet(list(neg) + [(iv.lo, iv.hi) for iv in self.intervals])


class SpectralDensity:
    """Even nonnegative piecewise-constant density, stored on f >= 0 only.

    ``segments`` is an ordered tuple of (FrequencyInterval, value) with
    lo >= 0 and value >= 0; the negative axis is the mirror image.  The
    density is 0 outside all segments.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[tuple]):
        norm = []
        for seg in _entries(segments, "segments"):
            parts = _entries(seg, "a segment")
            if len(parts) == 2 and isinstance(parts[0], FrequencyInterval):
                parts = (parts[0].lo, parts[0].hi, parts[1])
            lo, hi, val = (_as_real(x, "a segment entry") for x in _segment(parts, "a segment"))
            if not all(map(math.isfinite, (lo, hi, val))):
                raise SpectrumError(f"segment ({lo},{hi})={val} is not finite")
            if lo < 0:
                raise SpectrumError(f"segments live on f >= 0, got lo={lo}")
            if val < 0:
                raise SpectrumError(f"negative density {val}")
            if hi - lo <= 0:
                raise SpectrumError(f"empty segment ({lo},{hi})")
            if val > 0:
                norm.append((lo, hi, val))
        norm.sort()
        for (l0, h0, _), (l1, _, _) in zip(norm, norm[1:]):
            if l1 < h0 - BP_TOL:
                raise SpectrumError("overlapping segments")
        self_segments = tuple(
            (FrequencyInterval(lo, hi), val) for lo, hi, val in norm
        )
        object.__setattr__(self, "segments", self_segments)

    def __setattr__(self, *a):
        raise AttributeError("SpectralDensity is immutable")

    def __repr__(self):
        body = ", ".join(
            f"({iv.lo:g},{iv.hi:g})={v:g}" for iv, v in self.segments
        )
        return f"SpectralDensity[{body or '0'}]"

    @property
    def f_max(self) -> float:
        return self.segments[-1][0].hi if self.segments else 0.0

    def total_power(self) -> float:
        # factor 2: each stored segment has a mirror image
        return 2.0 * sum(iv.width * v for iv, v in self.segments)

    def support(self) -> FrequencySet:
        return FrequencySet(iv for iv, _ in self.segments).mirrored()

    def evaluate(self, f: float) -> float:
        f = abs(_as_real(f, "f"))
        for iv, v in self.segments:
            if iv.lo <= f < iv.hi:
                return v
        return 0.0

    def breakpoints(self) -> list[float]:
        pts = set()
        for iv, _ in self.segments:
            pts.add(iv.lo)
            pts.add(iv.hi)
        return sorted(pts)


def _intervals(F) -> tuple:
    """F's intervals; SpectrumError unless F is a FrequencySet."""
    if not isinstance(F, FrequencySet):
        raise SpectrumError(f"expected a FrequencySet, got {F!r}")
    return F.intervals


def _searchsorted_rows(owner: np.ndarray, rows: int, keys: np.ndarray, x: np.ndarray,
                       side: str) -> np.ndarray:
    """(rows, len(x)): np.searchsorted(row r's keys, x, side) for each row r,
    plus the count of keys in the rows before it, so an index into keys; the
    keys are grouped by row (owner ascends) and ascend in each.  Counted, not
    searched: a key counts toward every x of the sorted x from its place on."""
    xs = np.sort(x)
    at = np.searchsorted(xs, keys, side="left" if side == "right" else "right")
    hist = np.bincount(owner * (len(x) + 1) + at, minlength=rows * (len(x) + 1))
    return hist.cumsum().reshape(rows, -1)[:, np.searchsorted(xs, x)]


def _set_pieces(S: SpectralDensity, sets) -> tuple[np.ndarray, np.ndarray]:
    """(w, v), one row per entry of sets, a FrequencySet or None for the whole
    line: the (width, value) pieces of S on the set, mirror included, segment
    by segment, the f >= 0 half before its mirror, each half cut by the set's
    intervals in turn; rows are padded with zero pieces to one length.

    A set's intervals are sorted and disjoint, so those that meet a half
    (x0, x1) are a run: from the first whose hi exceeds x0 up to the first
    whose lo is not below x1."""
    lo, hi, val = np.array([(iv.lo, iv.hi, v) for iv, v in S.segments],
                           dtype=float).reshape(-1, 3).T
    x0, x1 = np.stack((lo, -hi), axis=1).ravel(), np.stack((hi, -lo), axis=1).ravel()
    ivs = [(FrequencyInterval(-math.inf, math.inf),) if F is None else _intervals(F)
           for F in sets]
    owner = np.repeat(np.arange(len(ivs)), np.array([len(row) for row in ivs]))
    a = np.array([iv.lo for row in ivs for iv in row], dtype=float)
    b = np.array([iv.hi for row in ivs for iv in row], dtype=float)
    first = _searchsorted_rows(owner, len(ivs), b, x0, "right").ravel()
    runs = _searchsorted_rows(owner, len(ivs), a, x1, "left").ravel() - first
    run = np.repeat(np.arange(len(runs)), runs)  # each piece's, by (row, half)
    at = np.cumsum(runs) - runs  # each run's first piece
    k = np.arange(len(run)) + (first - at)[run]
    row, half = np.divmod(run, len(x0))
    col = np.arange(len(run)) - at[row * len(x0)]
    w, v = np.zeros((2, len(ivs), max(1, col.max(initial=0) + 1)))
    w[row, col] = np.minimum(x1[half], b[k]) - np.maximum(x0[half], a[k])
    v[row, col] = val[half // 2]
    return w, v


def _density_pieces(S: SpectralDensity, F: FrequencySet | None = None):
    """(width, value) pieces of S, optionally restricted to F (mirror
    included), in _set_pieces' order; one piece of width 1 and value 0 if
    there are none."""
    w, v = _set_pieces(S, [F])
    if not w[0, 0] > 0:
        return np.ones(1), np.zeros(1)
    return w[0], v[0]


def integrate(S: SpectralDensity, F: FrequencySet | None = None) -> float:
    """Integral of S over F; over the whole line when F is omitted."""
    w, v = _density_pieces(S, F)
    return float(np.sum(w * v))


def aliased_sum(S: SpectralDensity, fs: float, f: float) -> float:
    """Sum of S(f - fs*k) over all integer k (finite for bounded support).

    Only the k with |f - fs*k| <= f_max reach the support, and they lie
    within ceil(f_max/fs + 1/2) + 1 of round(f/fs), so the sum runs over
    that window in ascending k: as many terms at any f, and every term it
    leaves out is an exact zero.  SpectrumError past the translate cap."""
    fs, f = _check_fs(fs), _as_finite(f, "f")
    half = _translate_count(_pw_from_density(S), fs, fs / 2.0)
    center = f / fs
    if not math.isfinite(center):
        raise SpectrumError(f"f = {f:g} is too far out for fs = {fs:g}")
    k0 = round(center)
    return sum((S.evaluate(f - fs * k) for k in range(k0 - half, k0 + half + 1)), 0.0)


def _segment_values(S: SpectralDensity, f: np.ndarray) -> np.ndarray:
    """S.evaluate at every f >= 0 at once: the value of the first segment with
    lo <= f < hi, or 0.  The segments are sorted by lo, so the first whose hi
    exceeds f is the first at which the running maximum of hi does, and it
    holds f if its lo does not exceed f; an empty segment at infinity closes
    the list and reads 0."""
    lo, hi, v = np.array([(iv.lo, iv.hi, val) for iv, val in S.segments]
                         + [(math.inf, math.inf, 0.0)]).T
    i = np.searchsorted(np.maximum.accumulate(hi), f, side="right")
    return np.where(lo[i] <= f, v[i], 0.0)


def snr_ratio(Sx: SpectralDensity, Sn: SpectralDensity) -> SpectralDensity:
    """Pointwise Sx^2 / (Sx + Sn) on a common refinement; 0/0 taken as 0."""
    pts = np.array(sorted(set(Sx.breakpoints()) | set(Sn.breakpoints())), dtype=float)
    mid = 0.5 * (pts[:-1] + pts[1:])
    cells = zip(pts[:-1].tolist(), pts[1:].tolist(), _segment_values(Sx, mid).tolist(),
                _segment_values(Sn, mid).tolist())
    # in Python floats, rounded as numpy rounds them, an overflow is an inf
    # that SpectralDensity names, not a warning; x > 0 makes x + n > 0
    return SpectralDensity([(lo, hi, x * x / (x + n)) for lo, hi, x, n in cells if x > 0])


def superlevel_set_of_measure(
    S: SpectralDensity, m: float
) -> tuple[FrequencySet, float]:
    """Best symmetric set of measure <= m for the integral of S.

    Segments are taken by descending value; the segment that overshoots the
    budget is trimmed symmetrically about the origin (keeping the low-|f| end
    of it and its mirror) so the output stays even; a trim narrower than the
    float spacing at the segment's low edge takes no piece and adds nothing to
    the integral.  Equal values are broken toward smaller |f|.
    """
    if not (m := _as_real(m, "measure budget")) >= 0:  # NaN fails too
        raise SpectrumError(f"measure budget must be >= 0, got {m}")
    return _superlevel_sets(S)(m)


def _superlevel_sets(S: SpectralDensity):
    """superlevel_set_of_measure on S as a function of m, S ranked once."""
    ranked = sorted(S.segments, key=lambda s: (-s[1], s[0].lo))

    def of_measure(m: float) -> tuple[FrequencySet, float]:
        chosen = []
        integral = 0.0
        budget = m
        for iv, v in ranked:
            pair = 2.0 * iv.width  # segment plus its mirror
            if pair <= budget + BP_TOL:
                chosen.append(iv)
                integral += pair * v
                budget -= pair
            elif budget > BP_TOL:
                half = budget / 2.0
                if iv.lo + half > iv.lo:
                    chosen.append(FrequencyInterval(iv.lo, iv.lo + half))
                    integral += budget * v
                budget = 0.0
            else:
                break
        return FrequencySet(chosen).mirrored(), integral
    return of_measure


class ComplexGainProfile:
    """Piecewise-constant complex frequency response with bounded support.

    Unlike SpectralDensity this lives on the whole line: individual filter
    branches are allowed to be one-sided.  The ``conjugate_symmetric``
    constructor mirrors f >= 0 data with conjugation, which is the profile of
    a filter with a real impulse response.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Iterable[tuple]):
        norm = []
        for seg in _entries(segments, "segments"):
            lo, hi, g = _segment(seg, "a gain segment")
            lo, hi = (_as_real(x, "a gain segment edge") for x in (lo, hi))
            g = _as_complex(g, "a gain")
            if not all(map(math.isfinite, (lo, hi, g.real, g.imag))):
                raise SpectrumError(f"gain segment ({lo},{hi})={g} is not finite")
            if hi - lo <= 0:
                raise SpectrumError(f"empty gain segment ({lo},{hi})")
            if g != 0:
                norm.append((lo, hi, g))
        norm.sort(key=lambda s: s[0])
        for (l0, h0, _), (l1, _, _) in zip(norm, norm[1:]):
            if l1 < h0 - BP_TOL:
                raise SpectrumError("overlapping gain segments")
        object.__setattr__(self, "segments", tuple(norm))

    def __setattr__(self, *a):
        raise AttributeError("ComplexGainProfile is immutable")

    @classmethod
    def conjugate_symmetric(cls, half_segments: Iterable[tuple]) -> "ComplexGainProfile":
        full = []
        for seg in _entries(half_segments, "segments"):
            lo, hi, g = _segment(seg, "a gain segment")
            lo, hi = (_as_real(x, "a gain segment edge") for x in (lo, hi))
            if lo < 0:
                raise SpectrumError("conjugate_symmetric takes f >= 0 segments")
            g = _as_complex(g, "a gain")
            full.append((lo, hi, g))
            full.append((-hi, -lo, g.conjugate()))
        return cls(full)

    @classmethod
    def indicator(cls, F: FrequencySet) -> "ComplexGainProfile":
        return cls((iv.lo, iv.hi, 1.0) for iv in _intervals(F))

    def support(self) -> FrequencySet:
        return FrequencySet((lo, hi) for lo, hi, _ in self.segments)

    def evaluate(self, f: float) -> complex:
        for lo, hi, g in self.segments:
            if lo <= f < hi:
                return g
        return 0.0

    def breakpoints(self) -> list[float]:
        pts = set()
        for lo, hi, _ in self.segments:
            pts.add(lo)
            pts.add(hi)
        return sorted(pts)


# ---------------------------------------------------------------------------
# Internal piecewise machinery shared with the sampling and oracle modules.
# A _Pw is a plain full-line piecewise-constant function: breakpoint vector of
# length n+1 and a value vector of length n (leading axes stack functions on
# one grid), zero outside the covered range.  The zero function has no
# breakpoints at all, so that merging its grid into another adds no cut.

@dataclass(frozen=True)
class _Pw:
    bp: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if len(self.bp) != self.vals.shape[-1] + 1 and (len(self.bp) or self.vals.size):
            raise SpectrumError("breakpoint/value length mismatch")


def _pw_empty() -> _Pw:
    return _Pw(np.array([]), np.array([]))


def _dedup(points: np.ndarray) -> np.ndarray:
    pts = np.sort(np.asarray(points, dtype=float))
    if pts.size == 0:
        return pts
    keep = np.concatenate(([True], np.diff(pts) > BP_TOL))
    return pts[keep]


def _pw_eval(pw: _Pw, x: np.ndarray) -> np.ndarray:
    """pw at x, pw's leading axes first: values padded with a zero at each end
    (x outside or NaN reads 0), taken C-ordered so each row sums as alone."""
    padded = np.zeros(pw.vals.shape[:-1] + (pw.vals.shape[-1] + 2,), dtype=pw.vals.dtype)
    padded[..., 1:-1] = pw.vals
    idx = np.searchsorted(pw.bp, np.asarray(x, dtype=float), side="right")
    return np.take(padded, idx, axis=-1)


def _pw_from_segments(lo: np.ndarray, hi: np.ndarray, vals: np.ndarray) -> _Pw:
    """Disjoint segments [lo[i], hi[i]) = vals[i], sorted by lo; 0 between them."""
    bp = _dedup(np.concatenate([lo, hi]))
    mids = 0.5 * (bp[:-1] + bp[1:])
    i = np.maximum(np.searchsorted(lo, mids, side="right") - 1, 0)
    return _Pw(bp, np.where((mids >= lo[i]) & (mids < hi[i]), vals[i], 0))


def _pw_from_density(S: SpectralDensity) -> _Pw:
    if not S.segments:
        return _pw_empty()
    lo, hi, vals = map(np.array, zip(*((iv.lo, iv.hi, v) for iv, v in S.segments)))
    return _pw_from_segments(np.concatenate([-hi[::-1], lo]), np.concatenate([-lo[::-1], hi]),
                             np.concatenate([vals[::-1], vals]))


def _pw_from_gain(H: ComplexGainProfile) -> _Pw:
    if not H.segments:
        return _pw_empty()
    return _pw_from_segments(*map(np.array, zip(*H.segments)))


def _pw_support_radius(pw: _Pw) -> float:
    nz = np.nonzero(pw.vals)[0]
    if nz.size == 0:
        return 0.0
    return float(max(abs(pw.bp[nz[0]]), abs(pw.bp[nz[-1] + 1])))


# Most translates per side of any translate sum.  Past it the (translates x
# cells) arrays and the polyphase bound's (offsets x translates) phases grow
# too large for memory.
_MAX_TRANSLATES = 1000

# Most entries, rows x translates x cells, of the stack that a sweep builds
# for one block of consecutive fs.  A sweep builds one block at a time, so
# its memory does not grow with the length of its fs list.
_MAX_BLOCK_ENTRIES = 16_384


def _translate_count(pw: _Pw, step: float, cell_edge: float, what: str = "") -> int:
    """kmax: pw(f - step*k) is 0 for every |f| <= cell_edge and |k| > kmax.
    Past _MAX_TRANSLATES, SpectrumError names what needs them, fs by default."""
    span = (_pw_support_radius(pw) + cell_edge) / step
    count = math.ceil(span) + 1 if math.isfinite(span) else math.inf
    if count > _MAX_TRANSLATES:
        raise SpectrumError(f"{what or f'fs = {step:g}'} needs {count:.4g} translates per "
                            f"side, more than the cap of {_MAX_TRANSLATES}")
    return count


def _translate_counts(pw: _Pw, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kmax, ok): _translate_count of each step's period (-step/2, step/2), as
    floats, and whether the step passes _check_fs and the cap."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kmax = np.ceil((_pw_support_radius(pw) + steps / 2.0) / steps) + 1
    return kmax, (steps > 0) & (steps < math.inf) & (kmax <= _MAX_TRANSLATES)


def _translates(pw: _Pw, step, pts: np.ndarray, kmax: int) -> np.ndarray:
    """pw(pts - step*k) for k = -kmax..kmax, one row per k: the one place
    translates are evaluated.  pts may carry leading axes, with one step per
    row of them, and k is always the last axis but one; a stacked pw's axes
    come first.  _ordered_sum over that axis adds rows in ascending k."""
    k = np.arange(-kmax, kmax + 1)
    with np.errstate(over="ignore"):  # a shift past the float range reads 0
        x = pts[..., None, :] - np.asarray(step)[..., None, None] * k[:, None]
    return _pw_eval(pw, x)


def _ordered_sum(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """x summed along axis entry after entry, in order (an empty axis sums to
    0): zero entries move no bit, as x + 0 = x, so a row of a padded block sums
    to the bits of the row alone, where np.sum's pairwise order would not."""
    if not x.shape[axis]:
        return x.sum(axis=axis)
    return np.add.accumulate(x, axis=axis).take(-1, axis=axis)


_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])[:, None]
_NONE = np.finfo(float).max


def _alias_grids(pw: _Pw, steps: np.ndarray, kmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(grid, cells): per row, the one cut of (-step/2, step/2) that every
    spectral path reads, at pw's breakpoints shifted by step*k, |k| <= kmax,
    merged as _dedup merges, padded to the widest row (one cell at least) with
    zero-width cells at its top edge, and its cell count.  A breakpoint b lands
    inside only at the k nearest -b/step, so k and its neighbours give every point."""
    rows, half = len(steps), steps[:, None] / 2.0
    k = np.rint(-pw.bp / steps[:, None])[:, None, :] + _NEIGHBOURS
    pts = pw.bp + steps[:, None, None] * k
    inside = (np.abs(pts) < half[:, :, None]) & (np.abs(k) <= kmax[:, None, None])
    # _NONE stands past a row's points: finite, so their gaps are too
    pts = np.concatenate((-half, half, np.full((rows, 1), _NONE),
                          np.where(inside, pts, _NONE).reshape(rows, -1)), axis=1)
    pts.sort(axis=1)
    keep = pts < _NONE
    keep[:, 1:] &= np.diff(pts, axis=1) > BP_TOL
    n = keep.sum(axis=1)
    pts = np.where(keep, pts, _NONE)
    pts.sort(axis=1)
    pts = pts[:, :max(2, n.max())]
    # past a row's points, its last one repeats
    return np.maximum.accumulate(np.where(pts < _NONE, pts, -np.inf), axis=1), n - 1
