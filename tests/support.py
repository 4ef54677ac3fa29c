"""Shared fixtures-in-spirit: named test spectra and closed-form references."""

import cmath
import math

import numpy as np

from subnyq.spectra import BP_TOL, ComplexGainProfile, FrequencySet, SpectralDensity
from subnyq.waterfill import rate_of_theta

SIGMA2 = 1.0


def rect_density(value=1.0, W=0.5):
    return SpectralDensity(((0.0, W, value),))


def rect_noise(gamma=5.0, W=0.5):
    return SpectralDensity(((0.0, W, 1.0 / gamma),))


def bandpass_density():
    # total power 1, support +-(1,2)
    return SpectralDensity(((1.0, 2.0, 0.5),))


def triangular_density(steps=8):
    # stepwise discretization of 1-|f| on (-1,1)
    return SpectralDensity(
        tuple((i / steps, (i + 1) / steps, 1.0 - (i + 0.5) / steps) for i in range(steps))
    )


def zero_density():
    return SpectralDensity(())


def lowpass_filter(cutoff):
    return ComplexGainProfile([(-cutoff, cutoff, 1.0)])


def rect_drf_closed(fs, R, gamma=math.inf, W=0.5):
    """Flat low-pass source through flat noise at SNR gamma, sampled at fs.

    Sub-Nyquist branch continuity-corrected: the distortion floor is the
    sampling MMSE 1 - (fs/2W) * gamma/(1+gamma), which meets the
    super-Nyquist branch at fs = 2W and restores D(R=0) = sigma^2.
    """
    g = 1.0 if gamma == math.inf else gamma / (1.0 + gamma)
    if fs < 2 * W:
        return 1.0 - (fs / (2 * W)) * g * (1.0 - 2.0 ** (-2.0 * R / fs))
    return 1.0 - g * (1.0 - 2.0 ** (-R / W))


def bandpass_drf_closed(fs, R):
    """Unit-power band-pass source on +-(1,2), noiseless, sampled at fs."""
    if fs >= 4:
        return 2.0 ** (-R)
    if fs >= 3:
        return 1.0 - (fs - 2) / 2 * (1 - 2.0 ** (-2 * R / (fs - 2)))
    if fs >= 2:
        return 1.0 - (4 - fs) / 2 * (1 - 2.0 ** (-2 * R / (4 - fs)))
    if fs >= 1.5:
        return 1.0 - (fs - 1) * (1 - 2.0 ** (-R / (fs - 1)))
    if fs >= 4.0 / 3.0:
        return 1.0 - (2 - fs) * (1 - 2.0 ** (-R / (2 - fs)))
    return 1.0 - fs / 2 * (1 - 2.0 ** (-2 * R / fs))


def random_density(rng, max_segments=5, f_hi=2.0, v_hi=2.0):
    """Random nonnegative piecewise-constant density on f >= 0."""
    n = rng.integers(1, max_segments + 1)
    edges = sorted(rng.uniform(0.0, f_hi, size=n + 1))
    segs = []
    for lo, hi in zip(edges, edges[1:]):
        if hi - lo < 1e-3:
            continue
        v = rng.uniform(0.0, v_hi)
        if v > 1e-3:
            segs.append((lo, hi, v))
    if not segs:
        segs = [(0.25, 1.0, 1.0)]
    return SpectralDensity(tuple(segs))


def bisection_tolerance(R):
    """Rate residual at which bisect_theta_for_rate stops."""
    return max(1e-10, 1e-9 * R)


def bisect_theta_for_rate(w, v, R):
    """Loop reference for solve_theta_for_rate: water level by bisection.

    Halves theta down from the curve maximum until the rate reaches R, then
    bisects until the rate is within bisection_tolerance(R) of R.  Needs a
    piece with w > 0 and v > 0.
    """
    curve = (np.asarray(w, dtype=float), np.asarray(v, dtype=float))
    vmax = float(np.max(curve[1][curve[0] > 0]))
    if R == 0:
        return vmax
    tol = bisection_tolerance(R)
    lo = vmax
    for _ in range(4096):
        lo *= 0.5
        if rate_of_theta(curve, lo) >= R:
            break
    else:
        raise RuntimeError("could not bracket the requested rate from below")
    hi = 2.0 * lo if lo < vmax / 2 else vmax
    hi = min(max(hi, lo), vmax)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rate_of_theta(curve, mid)
        if abs(r - R) <= tol:
            return mid
        if r > R:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not reach rate {R} within 200 iterations")


# Loop references for the translate kernel: the per-k forms the library used
# before every translate sum was read off one (translates x cells) array.
# They use only the public evaluate methods, so they share no code with it.

def _translate_range(fs, f, *densities):
    """k = -kmax..kmax covering every translate f - fs*k inside the supports."""
    radius = max(S.f_max for S in densities)
    kmax = math.ceil((radius + abs(f)) / fs) + 1
    return range(-kmax, kmax + 1)


def alias_cells_loop(points, step, lo, hi, ks):
    """Cells of [lo, hi] cut at every point + step*k inside it, k in ks;
    cuts closer than BP_TOL are merged, as the library merges them."""
    pts = sorted({lo, hi} | {p + k * step for p in points for k in ks
                             if lo < p + k * step < hi})
    return [pts[0]] + [q for p, q in zip(pts, pts[1:]) if q - p > BP_TOL]


def _gain(H, f):
    return 1.0 if H is None else H.evaluate(f)


def s_tilde_loop(Sx, Sn, H, fs, f):
    """s_tilde_single at f: sum_k Sx^2|H|^2 over sum_k (Sx+Sn)|H|^2."""
    num = den = 0.0
    for k in _translate_range(fs, f, Sx, Sn):
        g = f - fs * k
        x, w = Sx.evaluate(g), abs(_gain(H, g)) ** 2
        num += x * x * w
        den += (x + Sn.evaluate(g)) * w
    return num / den if den > 0 else 0.0


def branch_matrices_loop(Sx, Sn, branches, fs, f):
    """S_Y(f) and K(f): fs-aliased sums of (Sx+Sn) and Sx^2 times conj(H_i) H_j."""
    P = len(branches)
    sy = np.zeros((P, P), dtype=complex)
    kk = np.zeros((P, P), dtype=complex)
    for k in _translate_range(fs, f, Sx, Sn):
        g = f - fs * k
        x = Sx.evaluate(g)
        h = np.array([_gain(b, g) for b in branches], dtype=complex)
        outer = np.outer(np.conj(h), h)
        sy += (x + Sn.evaluate(g)) * outer
        kk += x * x * outer
    return sy, kk


def polyphase_loop(Sx, Sn, H, fs, delta, phi):
    """Offset-delta polyphase spectrum at normalized frequency phi."""
    f = phi * fs
    numer, denom = 0j, 0.0
    for k in _translate_range(fs, f, Sx, Sn):
        g = f - fs * k
        x, h = Sx.evaluate(g), _gain(H, g)
        numer += x * h.conjugate() * cmath.exp(2j * math.pi * k * delta)
        denom += (x + Sn.evaluate(g)) * abs(h) ** 2
    return fs * abs(numer) ** 2 / denom if denom > 0 else 0.0


def maximal_af_sets_loop(ratio, fs, P):
    """maximal_af_sets by its per-cell ranking loop.

    The cell [0, d/2), d = fs/P, is cut at every translate of the ratio's
    breakpoints; in each cell the translates by d are sorted by
    (-value, |f|, side, k) and the p-th best goes to set p, mirrored.
    """
    d = fs / P
    ks = _translate_range(d, d / 2.0, ratio)
    grid = alias_cells_loop([s for b in ratio.breakpoints() for s in (b, -b)],
                            d, 0.0, d / 2.0, ks)
    buckets = [[] for _ in range(P)]
    for a, b in zip(grid, grid[1:]):
        m = 0.5 * (a + b)
        cands = sorted((-ratio.evaluate(m + k * d), abs(m + k * d), m + k * d >= 0, k)
                       for k in ks if ratio.evaluate(m + k * d) > 0)
        for p, (_, _, _, k) in enumerate(cands[:P]):
            buckets[p] += [(a + k * d, b + k * d), (-(b + k * d), -(a + k * d))]
    return [FrequencySet(bucket) for bucket in buckets]
