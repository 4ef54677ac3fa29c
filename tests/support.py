"""Shared fixtures-in-spirit: named test spectra and closed-form references."""

import cmath
import math
from fractions import Fraction

import numpy as np

from subnyq import oracle, sampling, spectra, waterfill
from subnyq.cli import BIMODAL_SEGMENTS
from subnyq.linalg import (
    LinalgError,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    hermitian,
    inv_sqrt_psd,
)
from subnyq.sampling import (
    EigenCurves,
    SamplerSpec,
    eigen_curves_multi,
    maximal_af_sets,
    mmse_multi,
    mmse_optimal,
    mmse_single,
    s_tilde_single,
)
from subnyq.spectra import BP_TOL, ComplexGainProfile, FrequencySet, SpectralDensity
from subnyq.spectra import _dedup, _pw_eval, _pw_support_radius, _Pw
from subnyq.spectra import SpectrumError, _translate_count, _translates, snr_ratio
from subnyq.waterfill import (
    UnattainableRateError,
    WaterfillError,
    WaterfillSolution,
    _rate_per_sample,
    _WaterfillStack,
    d_dagger,
    d_star_lower_bound,
    drf_sampled_multi,
    drf_sampled_optimal,
    drf_sampled_single,
    idrf_stationary,
    polyphase_lower_bound,
    rate_of_theta,
)

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


def cov_loop(segs, tau):
    """Loop reference for oracle._cov_from_segments: the closed form
    sum over (lo, hi, v) of v (sin 2 pi hi t - sin 2 pi lo t) / (pi t),
    2 v (hi - lo) at |t| < 1e-12, evaluated for one lag t at a time."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape)
    for idx, t in np.ndenumerate(tau):
        c = 0.0
        for lo, hi, v in segs:
            if abs(t) < 1e-12:
                c += 2.0 * v * (hi - lo)
            else:
                c += v * (np.sin(2 * np.pi * hi * t) - np.sin(2 * np.pi * lo * t)) / (np.pi * t)
        out[idx] = c
    return out


def aliased_sum_loop(S, fs, f):
    """Loop reference for spectra.aliased_sum: S(f - fs*k) added in ascending
    k over every k with |f - fs*k| <= f_max + |f| + fs, the earlier form."""
    kmax = math.ceil((S.f_max + abs(f)) / fs) + 1
    return sum(S.evaluate(f - fs * k) for k in range(-kmax, kmax + 1))


def density_pieces_loop(S, F=None):
    """Loop reference for spectra._density_pieces: each segment of S, its
    f >= 0 half before its mirror, cut by every interval of F in turn; one
    piece of width 1 and value 0 if there are none."""
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


def is_padded_row(w, v, pieces):
    """Whether a row (w, v) of spectra._set_pieces holds the loop's pieces in
    order and then zero pieces only (all zero for the loop's empty piece)."""
    want_w, want_v = pieces
    n = len(want_w) if want_v.any() else 0
    return (np.array_equal(w[:n], want_w[:n]) and np.array_equal(v[:n], want_v[:n])
            and not w[n:].any() and not v[n:].any())


def snr_ratio_loop(Sx, Sn):
    """Loop reference for spectra.snr_ratio: each merged cell read off the
    public evaluate at its midpoint, one cell at a time (quadratic)."""
    pts = sorted(set(Sx.breakpoints()) | set(Sn.breakpoints()))
    segs = []
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        x = Sx.evaluate(mid)
        d = x + Sn.evaluate(mid)
        if x > 0 and d > 0:
            segs.append((lo, hi, x * x / d))
    return SpectralDensity(segs)


def window_oracle_loop(pieces, sigma2, fs, K, n_phases):
    """Loop reference for oracle._window_oracle: (mmse_average, waterfill) with
    C_Y and C_YU from cov_loop on the full lag matrices (n_a - n_b)/fs and
    (n_b + j/n_phases - n_a)/fs, the latter's numerator an exact fraction per
    entry rounded once, then the oracle's own Cholesky solve, windowed
    average and block waterfill."""
    xz, zz = map(oracle._even_segments, pieces)
    n = np.arange(-K, K + 1)
    c_y = cov_loop(zz, (n[:, None] - n[None, :]) / fs)
    lag = [np.array([[float(Fraction(int(b)) + Fraction(j, n_phases) - int(a)) for b in n]
                     for a in n]) / fs for j in range(n_phases)]
    c_yu = np.hstack([cov_loop(xz, t) for t in lag])
    chol, regularized = oracle._chol_with_ridge(c_y)
    b = np.linalg.solve(chol, c_yu)
    average = oracle._mmse_average(sigma2, np.ascontiguousarray(b[:, K::len(n)].T), regularized)
    eig = np.clip(np.linalg.eigvalsh(b @ b.T), 0.0, None)
    n_u = len(n) * n_phases
    return average, _WaterfillStack.of_pieces((np.ones_like(eig), eig),
                                              sigma2 - float(eig.sum()) / n_u, 1.0 / n_u)


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


def alias_grid(pw, step, lo, hi):
    """The reference cut: [lo, hi] cut at every translate of pw's breakpoints
    by step*k for every k up to the translate count, merged within BP_TOL."""
    kmax = _translate_count(pw, step, max(abs(lo), abs(hi)))
    shifted = (pw.bp[None, :] + step * np.arange(-kmax, kmax + 1)[:, None]).ravel()
    return _dedup(np.concatenate(([lo, hi], shifted[(shifted > lo) & (shifted < hi)])))


def period_cut_union(pws, fs):
    """(grid, kmax) of (-fs/2, fs/2) by the rule one cut per (source, fs)
    replaced: the union of every piece's own aliased grid, and the largest
    translate count."""
    lo, hi = -fs / 2.0, fs / 2.0
    grid = _dedup(np.concatenate([alias_grid(pw, fs, lo, hi) for pw in pws]))
    return grid, max(_translate_count(pw, fs, hi) for pw in pws)


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


def _symmetrised(a):
    """(a + a^H) / 2, after checking a is Hermitian within 1e-12 of its largest entry."""
    scale = float(np.max(np.abs(a))) or 1.0
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return (a + a.conj().T) / 2.0


def _inv_sqrt_psd_one(m, rank_tol=1e-12):
    """Pseudo inverse square root of one PSD matrix: eigenvalues below
    rank_tol times the largest are cut to 0."""
    w, v = np.linalg.eigh(_symmetrised(m))
    lam_max = float(w[-1])
    if lam_max <= 0:
        if w[0] < -rank_tol:
            raise NotPositiveSemidefiniteError(f"eigenvalue {w[0]} < 0")
        return np.zeros_like(m)
    cut = rank_tol * lam_max
    if w[0] < -cut:
        raise NotPositiveSemidefiniteError(f"eigenvalue {w[0]} below {-cut}")
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    return _symmetrised((v * inv) @ v.conj().T)


def whitened_eigenvalues_loop(sy, kk):
    """Loop reference for the stacked eigen-solve of eigen_curves_multi: for
    each cell's S_Y and K, the ascending eigenvalues of S_Y^-1/2 K S_Y^-1/2,
    one matrix at a time, clipped at 0.  Raises the error of the first cell
    that fails a Hermitian or PSD check."""
    lam = np.empty(sy.shape[:2])
    for c in range(len(sy)):
        t = _inv_sqrt_psd_one(sy[c])
        lam[c] = np.linalg.eigh(_symmetrised(t @ kk[c] @ t))[0]
    return np.maximum(lam, 0.0)


def _own_period(src, fs):
    """(grid, mids, kmax) of the period of fs on its own cells: the one row of
    a block of one fs."""
    per = src.periods([fs])
    return per.grid[0], per.mids[0], int(per.kmax[0])


def eigen_curves_loop(src, fs):
    """Loop reference for sampling._BankCurves at one fs, as the per-fs path
    solved it before a block was one stack: (curves, integral), the curves on
    the period's own cells and their pieces' integral summed in order.  S_Y
    and K add their translates one after another in ascending k; then the
    public linalg routines on the period's cells, a check for an eigenvalue
    below 0, and the trace check on that integral, each raising its error."""
    grid, mids, kmax = _own_period(src, fs)
    translates = _translates(src.pairs, fs, mids, kmax)  # (pieces, translates, cells)
    sums = translates[:, 0]
    for k in range(1, 2 * kmax + 1):
        sums = sums + translates[:, k]
    P = len(src.branches)
    i, j = np.triu_indices(P)
    sy, kk = np.empty((2, len(mids), P, P), dtype=complex)
    for m, entries in ((sy, sums[:len(i)]), (kk, sums[len(i):])):
        m[:, j, i] = np.conj(entries.T)
        m[:, i, j] = entries.T
    t = inv_sqrt_psd(sy)
    lam = np.linalg.eigh(hermitian(t @ kk @ t))[0]
    if float(lam.min()) < -1e-10 * max(1.0, float(lam.max(initial=0.0))):
        raise SpectrumError(f"negative eigenvalue {lam.min()} in conditional spectrum")
    curves = EigenCurves(grid, np.maximum(lam, 0.0))
    w, v = curves.pieces()
    integral = float(np.cumsum(w * v)[-1])
    if integral > src.sigma2 + 1e-9 * max(1.0, src.sigma2):
        raise SpectrumError("estimator power exceeds source power")
    return curves, integral


def polyphase_bound_loop(src, fs, mmse, N_delta=64):
    """Loop reference for waterfill._PolyphaseBound at one fs, as the
    per-fs path built it: the n = max(N_delta, 2*kmax + 1) offset spectra of
    the period alone, those not all 0 as one stack of their own, and at R
    bits per time the offsets' lossy integrals added in order over n, plus
    mmse; a bound above the distortion d raises.  Returns at_rate(R, d)."""
    grid, mids, kmax = _own_period(src, fs)
    translates, n, cap = 2 * kmax + 1, max(N_delta, 2 * kmax + 1), waterfill._MAX_OFFSET_ENTRIES
    if n * max(translates, len(mids)) > cap:
        raise WaterfillError(f"{n} offsets by {translates} translates and {len(mids)} "
                             f"cells exceed the cap of {cap} entries")
    _, den, sxz = src.pws
    k = np.arange(-kmax, kmax + 1)
    phases = np.exp(1j * np.outer(np.arange(n) / n, 2.0 * np.pi * k))
    aliased = _translates(den, fs, mids, kmax)
    den_sum = aliased[0]
    for row in aliased[1:]:
        den_sum = den_sum + row
    num = np.abs(phases @ _translates(sxz, fs, mids, kmax)) ** 2
    v = fs * np.where(den_sum > 0, num / np.where(den_sum > 0, den_sum, 1.0), 0.0)
    offsets = _WaterfillStack(np.diff(grid / fs), v[v.max(axis=1) > 0])

    def at_rate(R, d):
        _, lossy, attained = offsets.level(_rate_per_sample(R, fs))
        assert attained.all()
        bound = mmse + sum(lossy.tolist()) / n
        if not bound <= d + 1e-10 * max(1.0, src.sigma2):
            raise SpectrumError(f"polyphase bound {bound} exceeds the distortion {d}")
        return bound
    return at_rate


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


def optimal_pieces_loop(ratio, fs, P):
    """(widths, values) of the ratio on its P maximal aliasing-free sets, by
    the set route: each segment of the ratio and its mirror image cut by
    each maximal_af_sets interval.  Uses only .segments and .intervals."""
    widths, vals = [], []
    for F in maximal_af_sets(ratio, fs, P):
        for iv, v in ratio.segments:
            for lo, hi in ((iv.lo, iv.hi), (-iv.hi, -iv.lo)):
                for g in F.intervals:
                    if min(hi, g.hi) > max(lo, g.lo):
                        widths.append(min(hi, g.hi) - max(lo, g.lo))
                        vals.append(v)
    return np.array(widths, dtype=float), np.array(vals, dtype=float)


def figure_rows_loop(name):
    """(header, rows) of a built-in figure by its own loops over the public
    one-rate functions, one call per row value, rows in figure order."""
    rect = SpectralDensity(((0.0, 0.5, 1.0),))
    rect_noise_5 = SpectralDensity(((0.0, 0.5, 0.2),))
    bandpass = SpectralDensity(((1.0, 2.0, 0.5),))
    bimodal = SpectralDensity(BIMODAL_SEGMENTS)
    noiseless = SpectralDensity(())
    rows = []
    if name == "rect":
        for gamma, noise in (("inf", noiseless), ("5", rect_noise_5)):
            for i in range(2, 41):
                fs = i * 0.05
                sol = drf_sampled_single(rect, noise, None, fs, 1.0)
                rows.append([fs, 1.0, gamma, sol.distortion])
        return ["fs", "rate_bits_per_time", "gamma", "distortion"], rows
    if name == "nonmonotone":
        for R in (1.0, 2.0):
            for i in range(5, 46):
                fs = i * 0.1
                sol = drf_sampled_single(bandpass, noiseless, None, fs, R)
                rows.append([fs, R, sol.distortion])
        return ["fs", "rate_bits_per_time", "distortion"], rows
    if name == "mmse-opt":
        for i in range(1, 41):
            fs = i * 0.08
            rows.append([fs, mmse_single(bimodal, noiseless, None, fs),
                         mmse_optimal(bimodal, noiseless, fs, 1)[0]])
        return ["fs", "mmse_allpass", "mmse_optimal"], rows
    if name == "opsf":
        for R in (0.5, 1.0):
            for i in range(1, 41):
                fs = i * 0.08
                rows.append([fs, R, drf_sampled_single(bimodal, noiseless, None, fs, R).distortion,
                             drf_sampled_optimal(bimodal, noiseless, fs, 1, R).distortion])
        return ["fs", "rate_bits_per_time", "drf_allpass", "drf_optimal"], rows
    if name == "multi-branch":
        for i in range(1, 41):
            fs = i * 0.08
            for p in (1, 2, 3):
                rows.append([fs, p, 1.0,
                             drf_sampled_optimal(bimodal, noiseless, fs, p, 1.0).distortion])
            rows.append([fs, "inf", 1.0, d_dagger(bimodal, noiseless, fs, 1.0).distortion])
        return ["fs", "P", "rate_bits_per_time", "distortion"], rows
    if name == "af-sets":
        for fs in (0.96, 1.92):
            for P in (1, 2, 3):
                for p, F in enumerate(maximal_af_sets(bimodal, fs, P), start=1):
                    rows += [[fs, P, p, iv.lo, iv.hi] for iv in F.intervals]
        return ["fs", "P", "branch", "lo", "hi"], rows
    raise ValueError(f"unknown figure {name!r}")


def pw_aliased_loop(pw, step, lo, hi):
    """sum_k pw(f - step*k) on [lo, hi]: read once on the cells of the period
    [-step/2, step/2], cut by every shift, and tiled over [lo, hi]."""
    half = step / 2.0
    bp = alias_grid(pw, step, -half, half)
    vals = _translates(pw, step, 0.5 * (bp[:-1] + bp[1:]),
                       _translate_count(pw, step, half)).sum(axis=0)
    j = np.arange(math.floor(lo / step + 0.5), math.ceil(hi / step - 0.5) + 1)
    tiled = _Pw(np.append((bp[:-1] + step * j[:, None]).ravel(), bp[-1] + step * j[-1]),
                np.tile(vals, len(j)))
    grid = _dedup(np.concatenate(([lo, hi], tiled.bp[(tiled.bp > lo) & (tiled.bp < hi)])))
    return _Pw(grid, _pw_eval(tiled, 0.5 * (grid[:-1] + grid[1:])))


def unfolded_mmse_loop(src, fs):
    """Loop reference for sampling._unfolded_mmse at one fs: the integral of
    Sx - Sx^2|H|^2 / (the aliased (Sx+Sn)|H|^2) over the whole line, on one
    grid cut at the breakpoints of Sx, of the numerator and of the aliased
    denominator tiled over (-r, r), r the larger support radius."""
    num, den, _ = src.pws
    radius = max(_pw_support_radius(src.px), _pw_support_radius(den))
    if radius == 0:
        return 0.0
    den_per = pw_aliased_loop(den, fs, -radius, radius)
    bp = _dedup(np.concatenate([src.px.bp, num.bp, den_per.bp]))
    mids = 0.5 * (bp[:-1] + bp[1:])
    x = _pw_eval(src.px, mids)
    d = _pw_eval(den_per, mids)
    frac = np.where(d > 0, _pw_eval(num, mids) / np.where(d > 0, d, 1.0), 0.0)
    return float(np.sum(np.diff(bp) * x) - np.sum(np.diff(bp) * frac))


def source_waterfill(sigma2, w, v):
    """A one-row waterfill over the pieces (w, v) whose mmse is sigma2 less
    their integral, summed in order as a sweep's stacks sum it (_mmse)."""
    w, v = (np.asarray(x, dtype=float) for x in (w, v))
    return _WaterfillStack.of_pieces((w, v), float(sampling._mmse(sigma2,
                                                                  spectra._ordered_sum(w * v))))


def row_solve_loop(w, v, mmse, R):
    """Loop reference for one row's waterfill at R bits per time, solved on
    its own as the per-row path solved it: the row's pieces sorted once, the
    water level read off their cumulative sums, and the lossy integral summed
    over the row alone, piece after piece."""
    w, v = np.asarray(w, dtype=float), np.asarray(v, dtype=float)
    if not w.size:  # one piece of zero width stands for none
        w, v = np.zeros(1), np.zeros(1)
    key = np.where((w > 0) & (v > 0), -v, np.inf)
    order = key.argsort(kind="stable")
    kept, top = key[order] < np.inf, -key[order]
    ws = w[order]
    log_v = np.log2(np.where(kept, top, 1.0))
    W, S = ws.cumsum(), (ws * log_v).cumsum()
    if R == 0:
        theta = float(top[0]) if kept[0] else 0.0
    elif not kept[0]:
        raise UnattainableRateError("no positive rate")
    else:
        k = int(np.count_nonzero(np.where(kept[1:], 0.5 * (S[:-1] - W[:-1] * log_v[1:]), np.inf)
                                 < R))
        theta = float(np.exp2((S[k] - 2.0 * R) / W[k]))
    lossy = float(np.cumsum(w * np.minimum(v, theta))[-1])
    return WaterfillSolution(theta, R, mmse + lossy, mmse, lossy)


def sweep_rows_loop(mode, Sx, Sn, fs_list, rates, P=1, filters=None):
    """Loop reference for the rows of cli._sweep in every mode but
    oracle-check: the public one-fs functions, one call per value, in the
    order the sweep reads them, fs by fs, each fs's own checks (those of the
    curves or periods a mode reads) before those of its rates (RateSpecs).
    Returns the rows in sweep order, or (fs, R, error type, message) of the
    first failure, R None for one at fs alone.  The polyphase bound's cap on
    its offsets is read at (fs, R) here; these sweeps do not reach it."""
    branches = filters if isinstance(filters, list) else [None] * P
    H, spec = branches[0], lambda fs: SamplerSpec(fs, branches)
    rows = []
    for fs in fs_list:
        R = None
        try:
            if mode == "mmse":
                rows.append([fs, P, mmse_optimal(Sx, Sn, fs, P)[0] if filters == "optimal" else
                             mmse_single(Sx, Sn, H, fs) if P == 1 else
                             mmse_multi(Sx, Sn, spec(fs))])
                continue
            if mode == "af-sets":
                rows += [[fs, P, p, iv.lo, iv.hi]
                         for p, F in enumerate(maximal_af_sets(snr_ratio(Sx, Sn), fs, P), start=1)
                         for iv in F.intervals]
                continue
            if mode == "bounds":  # the MMSE's checks, then the cut of D*'s periods
                mmse = mmse_single(Sx, Sn, H, fs)
                mmse_optimal(Sx, Sn, fs, 1)
            elif mode == "drf-optimal":
                mmse_optimal(Sx, Sn, fs, P)
            elif mode == "drf" and P == 1:
                s_tilde_single(Sx, Sn, H, fs)
            elif mode == "drf":
                eigen_curves_multi(Sx, Sn, spec(fs))
            for R in rates:
                if mode == "bounds":
                    r = R.per_time(fs)
                    d = drf_sampled_single(Sx, Sn, H, fs, R).distortion
                    rows.append([fs, r, d, idrf_stationary(Sx, Sn, H, r).distortion, mmse,
                                 d_star_lower_bound(Sx, Sn, fs, R),
                                 polyphase_lower_bound(Sx, Sn, H, fs, R),
                                 d_dagger(Sx, Sn, fs, R).distortion])
                    continue
                s = (d_dagger(Sx, Sn, fs, R) if mode == "d-dagger" else
                     drf_sampled_optimal(Sx, Sn, fs, P, R) if mode == "drf-optimal" else
                     drf_sampled_single(Sx, Sn, H, fs, R) if P == 1 else
                     drf_sampled_multi(Sx, Sn, spec(fs), R))
                rows.append([fs, "inf" if mode == "d-dagger" else P, s.rate, s.theta,
                             s.distortion, s.mmse_part, s.lossy_part])
        except (WaterfillError, SpectrumError, LinalgError) as e:
            return fs, R, type(e), str(e)
    return rows
