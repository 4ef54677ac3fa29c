"""Piecewise-constant spectral densities and frequency-interval sets.

All spectra handled by this package are even, nonnegative, piecewise-constant
functions of frequency with bounded support.  Restricting to this class keeps
every integral, aliased sum and waterfilling step exact: there is no quadrature
anywhere, only interval arithmetic.  Densities store their f >= 0 half only and
mirror it, so evenness holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Breakpoints closer than this are considered equal when grids produced by
# translate lattices are merged.  Well above float rounding at the frequency
# scales involved, well below any meaningful segment width.
BP_TOL = 1e-9


class SpectrumError(ValueError):
    """Invalid spectral data or arguments."""


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
        for seg in segments:
            if len(seg) == 2 and isinstance(seg[0], FrequencyInterval):
                lo, hi, val = seg[0].lo, seg[0].hi, seg[1]
            else:
                lo, hi, val = seg
            lo, hi, val = float(lo), float(hi), float(val)
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
        f = abs(f)
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


def _density_pieces(S: SpectralDensity, F: FrequencySet | None = None):
    """(width, value) pieces of S, optionally restricted to F (mirror included)."""
    widths, vals = [], []
    for iv, v in S.segments:
        for half in ((iv.lo, iv.hi), (-iv.hi, -iv.lo)):
            if F is None:
                widths.append(half[1] - half[0])
                vals.append(v)
                continue
            for g in F.intervals:
                lo, hi = max(half[0], g.lo), min(half[1], g.hi)
                if hi > lo:
                    widths.append(hi - lo)
                    vals.append(v)
    if not widths:
        return np.array([1.0]), np.array([0.0])
    return np.array(widths), np.array(vals)


def integrate(S: SpectralDensity, F: FrequencySet | None = None) -> float:
    """Integral of S over F; over the whole line when F is omitted."""
    w, v = _density_pieces(S, F)
    return float(np.sum(w * v))


def aliased_sum(S: SpectralDensity, fs: float, f: float) -> float:
    """Sum of S(f - fs*k) over all integer k (finite for bounded support)."""
    if fs <= 0:
        raise SpectrumError(f"fs must be positive, got {fs}")
    kmax = math.ceil((S.f_max + abs(f)) / fs) + 1
    return sum(S.evaluate(f - fs * k) for k in range(-kmax, kmax + 1))


def snr_ratio(Sx: SpectralDensity, Sn: SpectralDensity) -> SpectralDensity:
    """Pointwise Sx^2 / (Sx + Sn) on a common refinement; 0/0 taken as 0."""
    pts = sorted(set(Sx.breakpoints()) | set(Sn.breakpoints()))
    segs = []
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        x = Sx.evaluate(mid)
        d = x + Sn.evaluate(mid)
        if x > 0 and d > 0:
            segs.append((lo, hi, x * x / d))
    return SpectralDensity(segs)


def superlevel_set_of_measure(
    S: SpectralDensity, m: float
) -> tuple[FrequencySet, float]:
    """Best symmetric set of measure <= m for the integral of S.

    Segments are taken by descending value; the segment that overshoots the
    budget is trimmed symmetrically about the origin (keeping the low-|f| end
    of it and its mirror) so the output stays even.  Equal values are broken
    toward smaller |f|.
    """
    if m < 0:
        raise SpectrumError(f"measure budget must be >= 0, got {m}")
    ranked = sorted(S.segments, key=lambda s: (-s[1], s[0].lo))
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
            chosen.append(FrequencyInterval(iv.lo, iv.lo + half))
            integral += budget * v
            budget = 0.0
        else:
            break
    return FrequencySet(chosen).mirrored(), integral


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
        for lo, hi, g in segments:
            lo, hi, g = float(lo), float(hi), complex(g)
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
        for lo, hi, g in half_segments:
            if lo < 0:
                raise SpectrumError("conjugate_symmetric takes f >= 0 segments")
            g = complex(g)
            full.append((lo, hi, g))
            full.append((-hi, -lo, g.conjugate()))
        return cls(full)

    @classmethod
    def indicator(cls, F: FrequencySet) -> "ComplexGainProfile":
        return cls((iv.lo, iv.hi, 1.0) for iv in F.intervals)

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
# length n+1 and a value vector of length n, zero outside the covered range.
# The zero function has no breakpoints at all, so that merging its grid into
# another adds no cut.

@dataclass(frozen=True)
class _Pw:
    bp: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if len(self.bp) != len(self.vals) + 1 and (len(self.bp) or len(self.vals)):
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
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(pw.bp, x, side="right") - 1
    inside = (idx >= 0) & (idx < len(pw.vals))
    out = np.zeros(x.shape, dtype=pw.vals.dtype)
    out[inside] = pw.vals[idx[inside]]
    return out


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


def _translate_count(pw: _Pw, step: float, cell_edge: float) -> int:
    """kmax: pw(f - step*k) is 0 for every |f| <= cell_edge and |k| > kmax."""
    span = (_pw_support_radius(pw) + cell_edge) / step
    count = math.ceil(span) + 1 if math.isfinite(span) else math.inf
    if count > _MAX_TRANSLATES:
        raise SpectrumError(f"fs = {step:g} needs {count:.4g} translates per side, "
                            f"more than the cap of {_MAX_TRANSLATES}")
    return count


def _translates(pw: _Pw, step: float, pts: np.ndarray, kmax: int) -> np.ndarray:
    """pw(pts - step*k) for k = -kmax..kmax, one row per k: the one place
    translates are evaluated.  A sum over axis 0 adds rows in ascending k."""
    k = np.arange(-kmax, kmax + 1)
    return _pw_eval(pw, pts[None, :] - step * k[:, None])


def _alias_grid(pw: _Pw, step: float, lo: float, hi: float) -> np.ndarray:
    """Breakpoints of sum/sup over translates of pw by step*Z, clipped to [lo, hi]."""
    kmax = _translate_count(pw, step, max(abs(lo), abs(hi)))
    shifted = (pw.bp[None, :] + step * np.arange(-kmax, kmax + 1)[:, None]).ravel()
    return _dedup(np.concatenate(([lo, hi], shifted[(shifted > lo) & (shifted < hi)])))


def _pw_aliased(pw: _Pw, step: float, lo: float, hi: float, op: str = "sum") -> _Pw:
    """Restrict sum_k pw(f - step*k) (op='sum') or sup_k (op='sup') to [lo, hi].

    Both are step-periodic, so they are read once on the cells of the period
    [-step/2, step/2] and repeated over [lo, hi]: memory grows with the
    translate count, not with its square, however wide [lo, hi] is.
    """
    if op not in ("sum", "sup"):
        raise SpectrumError(f"unknown alias op {op!r}")
    half = step / 2.0
    bp = _alias_grid(pw, step, -half, half)
    t = _translates(pw, step, 0.5 * (bp[:-1] + bp[1:]), _translate_count(pw, step, half))
    vals = t.sum(axis=0) if op == "sum" else t.max(axis=0)
    j = np.arange(math.floor(lo / step + 0.5), math.ceil(hi / step - 0.5) + 1)
    tiled = _Pw(np.append((bp[:-1] + step * j[:, None]).ravel(), bp[-1] + step * j[-1]),
                np.tile(vals, len(j)))
    grid = _dedup(np.concatenate(([lo, hi], tiled.bp[(tiled.bp > lo) & (tiled.bp < hi)])))
    return _Pw(grid, _pw_eval(tiled, 0.5 * (grid[:-1] + grid[1:])))
