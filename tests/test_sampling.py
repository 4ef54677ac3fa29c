import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnyq import oracle, sampling, spectra, waterfill
from subnyq.cli import BIMODAL_SEGMENTS as BIMODAL
from subnyq.linalg import LinalgError, _raise_first, hermitian, inv_sqrt_psd
from subnyq.waterfill import (
    BITS_PER_SAMPLE,
    RateSpec,
    UnattainableRateError,
    WaterfillError,
    _WaterfillStack,
    d_dagger,
    drf_sampled_optimal,
)
from subnyq.sampling import (
    EigenCurves,
    SamplerSpec,
    _branch_matrices,
    _Source,
    build_branch_matrices,
    eigen_curves_multi,
    landau_mmse_bound,
    maximal_af_sets,
    mmse_multi,
    mmse_optimal,
    mmse_single,
    polyphase_conditional_psd,
    s_tilde_single,
)
from subnyq.spectra import (
    ComplexGainProfile,
    FrequencySet,
    SpectralDensity,
    SpectrumError,
    aliased_sum,
    integrate,
    _Pw,
    _pw_from_density,
    _translate_count,
    _translates,
    snr_ratio,
    superlevel_set_of_measure,
)
from support import (
    alias_cells_loop,
    bandpass_density,
    branch_matrices_loop,
    eigen_curves_loop,
    maximal_af_sets_loop,
    optimal_pieces_loop,
    period_cut_union,
    polyphase_bound_loop,
    polyphase_loop,
    s_tilde_loop,
    rect_density,
    rect_noise,
    row_solve_loop,
    source_waterfill,
    triangular_density,
    unfolded_mmse_loop,
    whitened_eigenvalues_loop,
    zero_density,
)

RNG = np.random.default_rng(71)

# the benchmark's P = 3 bank: one-sided complex branches, full rank where
# three translates meet
BANK = [ComplexGainProfile([(-1.6, 1.6, 1.0)]),
        ComplexGainProfile([(-1.6, 0.0, 1.0), (0.0, 1.6, 1j)]),
        ComplexGainProfile([(-1.6, -0.8, 0.5 + 0.5j), (-0.8, 0.8, 1.0 - 1.0j), (0.8, 1.6, 2j)])]


def bandpass_branches():
    return (
        ComplexGainProfile([(-2.0, -1.0, 1.0)]),
        ComplexGainProfile([(1.0, 2.0, 1.0)]),
    )


class TestSTildeSingle:
    def test_flat_aliased_is_one(self):
        curve = s_tilde_single(rect_density(), zero_density(), None, 0.5)
        assert curve.bp[0] == pytest.approx(-0.25)
        assert curve.bp[-1] == pytest.approx(0.25)
        assert np.allclose(curve.vals, 1.0)

    def test_noisy_flat_value(self):
        curve = s_tilde_single(rect_density(), rect_noise(5.0), None, 1.0)
        assert np.allclose(curve.vals, 5.0 / 6.0)

    def test_zero_filter_gives_zero_curve(self):
        h = ComplexGainProfile([(0.0, 1.0, 1e-30)])  # effectively off-band only
        curve = s_tilde_single(bandpass_density(), zero_density(), h, 1.0)
        assert curve.max_value() == pytest.approx(0.0, abs=1e-12)

    def test_phase_of_filter_is_irrelevant(self):
        hr = ComplexGainProfile.conjugate_symmetric([(1.0, 2.0, 1.0)])
        hc = ComplexGainProfile.conjugate_symmetric([(1.0, 2.0, 0.6 + 0.8j)])
        c1 = s_tilde_single(bandpass_density(), zero_density(), hr, 1.7)
        c2 = s_tilde_single(bandpass_density(), zero_density(), hc, 1.7)
        assert np.allclose(c1.bp, c2.bp)
        assert np.allclose(c1.vals, c2.vals)

    def test_invalid_fs(self):
        with pytest.raises(SpectrumError):
            s_tilde_single(rect_density(), zero_density(), None, -1.0)

    def test_pointwise_translate_bound(self):
        # random indicator filters never push the curve above the best translate
        S = triangular_density()
        ratio = snr_ratio(S, rect_noise(3.0, 1.0))
        fs = 0.9
        for _ in range(20):
            cut = RNG.uniform(0.1, 1.0)
            h = ComplexGainProfile([(-cut, cut, 1.0)])
            curve = s_tilde_single(S, rect_noise(3.0, 1.0), h, fs)
            mids = 0.5 * (curve.bp[:-1] + curve.bp[1:])
            for m, v in zip(mids, curve.vals):
                sup = max(
                    ratio.evaluate(m - fs * k) for k in range(-4, 5)
                )
                assert v <= sup + 1e-9


class TestMmseSingle:
    def test_sub_nyquist_flat(self):
        assert mmse_single(rect_density(), zero_density(), None, 0.5) == pytest.approx(0.5)

    def test_super_nyquist_perfect(self):
        assert mmse_single(rect_density(), zero_density(), None, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_floor(self):
        val = mmse_single(rect_density(), rect_noise(5.0), None, 1.0)
        assert val == pytest.approx(1.0 / 6.0)

    def test_lowpass_filter_below_cutoff_matches_allpass(self):
        h = ComplexGainProfile([(-0.5, 0.5, 2.0)])
        a = mmse_single(rect_density(), rect_noise(5.0), h, 0.7)
        b = mmse_single(rect_density(), rect_noise(5.0), None, 0.7)
        assert a == pytest.approx(b, abs=1e-12)

    def test_random_filters_never_beat_optimal(self):
        S = triangular_density()
        Sn = rect_noise(4.0, 1.0)
        fs = 0.8
        best, _ = mmse_optimal(S, Sn, fs, 1)
        for _ in range(15):
            edges = np.sort(RNG.uniform(0.0, 1.2, size=4))
            h = ComplexGainProfile.conjugate_symmetric(
                [(edges[0], edges[1], 1.0), (edges[2], edges[3], RNG.normal())]
            ) if edges[1] - edges[0] > 1e-3 and edges[3] - edges[2] > 1e-3 else None
            val = mmse_single(S, Sn, h, fs)
            assert val >= best - 1e-9


class TestBranchMatrices:
    def test_p1_reduces_to_scalar_aliased_sums(self):
        spec = SamplerSpec(0.7, (None,))
        Sx, Sn = rect_density(), rect_noise(5.0)
        sy, kk = build_branch_matrices(Sx, Sn, spec, 0.1)
        z = SpectralDensity(((0.0, 0.5, 1.2),))
        x2 = SpectralDensity(((0.0, 0.5, 1.0),))
        assert sy[0, 0].real == pytest.approx(aliased_sum(z, 0.7, 0.1))
        assert kk[0, 0].real == pytest.approx(aliased_sum(x2, 0.7, 0.1))

    def test_disjoint_branches_give_diagonal(self):
        spec = SamplerSpec(2.0, bandpass_branches())
        sy, kk = build_branch_matrices(bandpass_density(), zero_density(), spec, 0.3)
        assert abs(sy[0, 1]) <= 1e-14
        assert abs(kk[0, 1]) <= 1e-14

    def test_identical_branches_rank_one(self):
        h = ComplexGainProfile([(-0.5, 0.5, 1.0)])
        spec = SamplerSpec(0.8, (h, h))
        sy, _ = build_branch_matrices(rect_density(), zero_density(), spec, 0.1)
        w = np.linalg.eigvalsh(sy)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] > 0


class TestEigenCurves:
    def test_p1_matches_scalar_curve(self):
        spec = SamplerSpec(0.7, (None,))
        curves = eigen_curves_multi(rect_density(), zero_density(), spec)
        scalar = s_tilde_single(rect_density(), zero_density(), None, 0.7)
        mids = 0.5 * (curves.bp[:-1] + curves.bp[1:])
        for i, m in enumerate(mids):
            assert curves.lam[i, 0] == pytest.approx(scalar.evaluate(m), abs=1e-9)

    def test_disjoint_indicators_select_translates(self):
        spec = SamplerSpec(2.0, bandpass_branches())
        curves = eigen_curves_multi(bandpass_density(), zero_density(), spec)
        # on every cell one branch sees the band (value 0.5), the other nothing
        assert np.allclose(curves.lam[:, 1], 0.5)
        assert np.allclose(curves.lam[:, 0], 0.0, atol=1e-12)

    def test_offband_filters_give_zero(self):
        h = ComplexGainProfile([(5.0, 6.0, 1.0)])
        spec = SamplerSpec(1.0, (h,))
        curves = eigen_curves_multi(rect_density(), zero_density(), spec)
        assert np.allclose(curves.lam, 0.0)

    @pytest.mark.parametrize("case", ["P1", "P2", "P3-complex-one-sided"])
    def test_eigenvalues_constant_on_each_cell(self, case):
        bimodal = SpectralDensity(((0.0, 0.4, 1.0), (0.4, 0.8, 0.2),
                                   (0.8, 1.2, 0.8), (1.2, 1.6, 0.1)))
        Sx, Sn, spec = {
            "P1": (triangular_density(), rect_noise(2.0, 1.0), SamplerSpec(0.7, (None,))),
            "P2": (triangular_density(), rect_noise(2.0, 1.0),
                   SamplerSpec(0.9, (None, ComplexGainProfile([(-0.3, 0.7, 1.0)])))),
            "P3-complex-one-sided": (bimodal, rect_noise(0.05, 1.6), SamplerSpec(0.48, (
                ComplexGainProfile([(-1.6, 1.6, 1.0)]),
                ComplexGainProfile([(-1.6, 0.0, 1.0), (0.0, 1.6, 1j)]),
                ComplexGainProfile([(-1.6, -0.8, 0.5 + 0.5j), (-0.8, 0.8, 1.0 - 1.0j),
                                    (0.8, 1.6, 2j)]),
            ))),
        }[case]
        curves = eigen_curves_multi(Sx, Sn, spec)
        assert curves.lam.shape == (len(curves.bp) - 1, spec.P)
        for (a, b), lam in zip(zip(curves.bp[:-1], curves.bp[1:]), curves.lam):
            for f in (a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0):
                sy, kk = build_branch_matrices(Sx, Sn, spec, f)
                t = inv_sqrt_psd(sy)
                w = np.linalg.eigh(hermitian(t @ kk @ t))[0]
                np.testing.assert_allclose(np.maximum(w, 0.0), lam, rtol=0, atol=1e-12)

    def test_power_conservation(self):
        spec = SamplerSpec(0.9, (None, None))
        curves = eigen_curves_multi(triangular_density(), rect_noise(2.0, 1.0), spec)
        sigma2 = triangular_density().total_power()
        assert curves.trace_integral() <= sigma2 + 1e-9


class TestMmseMulti:
    def test_p1_matches_single(self):
        spec = SamplerSpec(0.6, (None,))
        a = mmse_multi(rect_density(), rect_noise(5.0), spec)
        b = mmse_single(rect_density(), rect_noise(5.0), None, 0.6)
        assert a == pytest.approx(b, abs=1e-9)

    def test_bandpass_alias_free_capture(self):
        spec = SamplerSpec(2.0, bandpass_branches())
        assert mmse_multi(bandpass_density(), zero_density(), spec) == pytest.approx(0.0, abs=1e-9)

    def test_offband_filters_keep_full_variance(self):
        h = ComplexGainProfile([(5.0, 6.0, 1.0)])
        spec = SamplerSpec(1.0, (h,))
        assert mmse_multi(rect_density(), zero_density(), spec) == pytest.approx(1.0)


class TestMaximalAfSets:
    def test_unimodal_p1_is_lowpass_band(self):
        ratio = snr_ratio(triangular_density(), zero_density())
        sets = maximal_af_sets(ratio, 0.5, 1)
        assert sets[0] == FrequencySet([(-0.25, 0.25)])

    def test_bandpass_translates_beat_zero(self):
        ratio = snr_ratio(bandpass_density(), zero_density())
        sets = maximal_af_sets(ratio, 2.0, 1)
        assert sets[0] == FrequencySet([(-2.0, -1.0), (1.0, 2.0)])

    def test_flat_tie_break_returns_center_cell(self):
        ratio = snr_ratio(rect_density(1.0, 1.0), zero_density())
        sets = maximal_af_sets(ratio, 1.0, 1)
        assert sets[0] == FrequencySet([(-0.5, 0.5)])

    def test_invalid_arguments(self):
        ratio = snr_ratio(rect_density(), zero_density())
        with pytest.raises(SpectrumError):
            maximal_af_sets(ratio, 0.0, 1)
        with pytest.raises(SpectrumError):
            maximal_af_sets(ratio, 1.0, 0)

    def test_measure_and_disjointness(self):
        ratio = snr_ratio(triangular_density(), rect_noise(3.0, 1.0))
        for fs in (0.35, 0.8, 1.3):
            for P in (1, 2, 3):
                sets = maximal_af_sets(ratio, fs, P)
                for F in sets:
                    assert F.measure() <= fs / P + 1e-9
                for i in range(len(sets)):
                    for j in range(i + 1, len(sets)):
                        assert sets[i].intersect(sets[j]).measure() <= 1e-9

    def test_aliasing_free_modulo_step(self):
        # images of the intervals under reduction mod fs/P must not overlap
        ratio = snr_ratio(triangular_density(), zero_density())
        fs, P = 0.9, 2
        d = fs / P
        for F in maximal_af_sets(ratio, fs, P):
            marks = np.zeros(2048)
            for iv in F.intervals:
                n = max(int((iv.hi - iv.lo) / d * 2048) - 2, 0)
                xs = np.linspace(iv.lo + 1e-9, iv.hi - 1e-9, max(n, 2))
                idx = np.floor(((xs / d) % 1.0) * 2048).astype(int)
                assert not np.any(marks[idx]), "translate collision"
                marks[idx] = 1


class TestMmseOptimalAndLandau:
    def test_rect_sub_nyquist(self):
        val, sets = mmse_optimal(rect_density(), zero_density(), 0.5, 1)
        assert val == pytest.approx(0.5)
        assert sets[0] == FrequencySet([(-0.25, 0.25)])

    def test_bandpass_two_branches_cover(self):
        val, _ = mmse_optimal(bandpass_density(), zero_density(), 2.0, 2)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_nyquist_zero(self):
        val, _ = mmse_optimal(triangular_density(), zero_density(), 2.5, 1)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_fs_unimodal(self):
        prev = np.inf
        for fs in np.arange(0.2, 2.2, 0.2):
            val, _ = mmse_optimal(triangular_density(), zero_density(), fs, 1)
            assert val <= prev + 1e-12
            prev = val

    def test_landau_examples(self):
        assert landau_mmse_bound(bandpass_density(), zero_density(), 2.0) == pytest.approx(0.0, abs=1e-12)
        assert landau_mmse_bound(bandpass_density(), zero_density(), 1.0) == pytest.approx(0.5)

    def test_landau_trim_below_float_spacing(self):
        # half the budget, 7.5e-10, rounds away at 1e7: the trim takes no
        # piece and adds nothing, as D-dagger's pieces give
        S = SpectralDensity(((1e7, 1e7 + 1, 1.0),))
        F, captured = superlevel_set_of_measure(S, 1.5e-9)
        assert F.measure() == 0.0 and captured == 0.0
        assert landau_mmse_bound(S, zero_density(), 1.5e-9) == 2.0
        w, _ = spectra._set_pieces(S, [F])
        assert not w.any()

    def test_landau_below_optimal_and_gap_shrinks(self):
        S = SpectralDensity(((0.0, 0.4, 1.0), (0.4, 0.8, 0.2), (0.8, 1.2, 0.8), (1.2, 1.6, 0.1)))
        fs = 0.96
        bound = landau_mmse_bound(S, zero_density(), fs)
        prev_gap = np.inf
        for P in (1, 2, 3, 6):
            val, _ = mmse_optimal(S, zero_density(), fs, P)
            gap = val - bound
            assert gap >= -1e-9
            assert gap <= prev_gap + 1e-9
            prev_gap = gap


class TestPolyphase:
    def test_super_nyquist_delta0(self):
        fs = 1.5
        curve = polyphase_conditional_psd(rect_density(), zero_density(), None, fs, 0.0)
        # fs * Sx(fs*phi): support |phi| < 0.5/fs, value fs
        assert curve.evaluate(0.1) == pytest.approx(fs)
        assert curve.evaluate(0.45) == pytest.approx(0.0)

    def test_zero_filter(self):
        h = ComplexGainProfile([(5.0, 6.0, 1.0)])
        curve = polyphase_conditional_psd(rect_density(), zero_density(), h, 1.0, 0.3)
        assert curve.max_value() == pytest.approx(0.0, abs=1e-12)

    def test_delta_average_recovers_scalar_curve(self):
        fs = 0.7
        n = 64
        scalar = s_tilde_single(triangular_density(), rect_noise(4.0, 1.0), None, fs)
        curves = [
            polyphase_conditional_psd(triangular_density(), rect_noise(4.0, 1.0), None, fs, j / n)
            for j in range(n)
        ]
        grid = np.unique(np.concatenate([c.bp for c in curves] + [scalar.bp / fs]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        avg = sum(np.array([c.evaluate(m) for m in mids]) for c in curves) / n
        target = np.array([fs * scalar.evaluate(fs * m) for m in mids])
        scale = max(1.0, float(np.max(target)))
        assert np.max(np.abs(avg - target)) <= 0.01 * scale


# Segment edges lie on a 1/64 grid, so no two breakpoints fall within BP_TOL
# of each other, where the library treats them as one.  Levels and gain parts
# are 0 or at least 1e-6 in size: products of four subnormal-range factors
# lose bits in the loop references themselves.
LEVELS = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))
GAIN_PARTS = st.one_of(LEVELS, st.floats(-2.0, -1e-6))


def grid_edges(lo, hi, max_size):
    return st.lists(st.integers(64 * lo, 64 * hi), min_size=2, max_size=max_size,
                    unique=True).map(lambda ks: [k / 64 for k in sorted(ks)])


# Levels that repeat often, so that values tie across segments and translates.
TIED_LEVELS = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), LEVELS)


@st.composite
def densities(draw, max_segments=3, levels=LEVELS, hi=2):
    """Up to max_segments segments on [0, hi]."""
    edges = draw(grid_edges(0, hi, max_segments + 1))
    return SpectralDensity([(lo, hi, draw(levels)) for lo, hi in zip(edges, edges[1:])])


@st.composite
def gains(draw):
    """None (all-pass) or one or two complex-gain segments on (-3, 3)."""
    if draw(st.booleans()):
        return None
    edges = draw(grid_edges(-3, 3, 3))
    return ComplexGainProfile([(lo, hi, complex(draw(GAIN_PARTS), draw(GAIN_PARTS)))
                               for lo, hi in zip(edges, edges[1:])])


def assert_close(got, want):
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (got, want)


class TestTranslateKernel:
    """Every translate sum matches its per-k loop reference in tests/support."""

    @given(densities(), densities(), gains(), st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_s_tilde_matches_loop(self, Sx, Sn, H, fs):
        curve = s_tilde_single(Sx, Sn, H, fs)
        mids = 0.5 * (curve.bp[:-1] + curve.bp[1:])
        assert_close(curve.vals, [s_tilde_loop(Sx, Sn, H, fs, m) for m in mids])

    @given(densities(), densities(), st.lists(gains(), min_size=1, max_size=3),
           st.floats(0.05, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_branch_matrices_match_loop(self, Sx, Sn, branches, fs):
        spec = SamplerSpec(fs, branches)
        # cut at every translate of every breakpoint: each entry is constant
        # on each cell, so its midpoint is no translate's breakpoint
        points = [s for S in (Sx, Sn) for b in S.breakpoints() for s in (b, -b)]
        points += [b for H in branches if H is not None for b in H.breakpoints()]
        ks = range(-math.ceil(5.0 / fs), math.ceil(5.0 / fs) + 1)
        bp = alias_cells_loop(points, fs, -fs / 2.0, fs / 2.0, ks)
        for m in (0.5 * (a + b) for a, b in list(zip(bp, bp[1:]))[:6]):
            sy, kk = build_branch_matrices(Sx, Sn, spec, m)
            ref_sy, ref_kk = branch_matrices_loop(Sx, Sn, branches, fs, m)
            assert_close(sy, ref_sy)
            assert_close(kk, ref_kk)

    @given(densities(), densities(), gains(), st.floats(0.05, 3.0))
    # two overlapping translates see gains of different phase
    @example(rect_density(1.0, 1.0), zero_density(),
             ComplexGainProfile([(-1.0, 0.0, 1.0), (0.0, 1.0, 1j)]), 0.75)
    @settings(max_examples=60, deadline=None)
    def test_polyphase_matches_loop(self, Sx, Sn, H, fs):
        # offsets where exp(2 pi i k delta) and its conjugate differ
        for delta in (0.15, 0.3, 0.8):
            curve = polyphase_conditional_psd(Sx, Sn, H, fs, delta)
            mids = 0.5 * (curve.bp[:-1] + curve.bp[1:])
            assert_close(curve.vals, [polyphase_loop(Sx, Sn, H, fs, delta, m) for m in mids])

    @given(densities(4), densities(), st.floats(0.05, 3.0), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_af_sets_match_loop(self, Sx, Sn, fs, P):
        ratio = snr_ratio(Sx, Sn)
        assert maximal_af_sets(ratio, fs, P) == maximal_af_sets_loop(ratio, fs, P)

    @given(densities(4, TIED_LEVELS), densities(levels=TIED_LEVELS), st.floats(0.08, 3.0),
           st.integers(1, 6), st.sampled_from([0.0, 0.5, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_optimal_filters_match_set_route(self, Sx, Sn, fs, P, R):
        # the top-P translates give what a waterfill over the ratio cut by the
        # maximal aliasing-free sets gives, or raise the same error class
        sigma2 = Sx.total_power()

        def outcome(call):
            try:
                return call()
            except (SpectrumError, WaterfillError) as e:
                return type(e)

        pieces = outcome(lambda: optimal_pieces_loop(snr_ratio(Sx, Sn), fs, P))
        got = [outcome(lambda: drf_sampled_optimal(Sx, Sn, fs, P, R).distortion),
               outcome(lambda: mmse_optimal(Sx, Sn, fs, P)[0])]
        if isinstance(pieces, type):
            assert got == [pieces, pieces]
            return
        w, v = pieces
        want = [outcome(lambda: source_waterfill(sigma2, w, v).solution(R).distortion),
                sigma2 - float(np.sum(w * v))]
        for a, b in zip(got, want):
            if isinstance(b, type):
                assert a is b
            else:
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * sigma2), (a, b)


class TestPeriod:
    """One cut per (source, fs) serves every piece of the source."""

    # noise on [0, 3] can reach past a source on [0, 2]; gains span (-3, 3)
    @given(densities(), st.one_of(densities(), densities(hi=3)),
           st.lists(gains(), min_size=1, max_size=3), st.floats(0.05, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_one_cut_is_the_union_of_piece_cuts(self, Sx, Sn, branches, fs):
        src = _Source(Sx, Sn, branches)
        per = src.periods([fs])
        cuts = [[_Pw(src.pairs.bp, vals) for vals in src.pairs.vals]]
        if len(branches) == 1:  # the single-branch forms' pieces
            num, den, sxz = src.pws
            cuts += [[num, den], [sxz, den]]
            assert np.array_equal(per.den[0], _translates(den, fs, per.mids[0],
                                                          per.kmax[0]).sum(axis=0))
        for pws in cuts:
            grid, kmax = period_cut_union(pws, fs)
            assert np.array_equal(per.grid[0], grid) and per.kmax[0] == kmax


def test_mmse_optimal_cuts_one_period(monkeypatch):
    # the value and the sets read one period of the SNR ratio at fs/P
    built, real = [], sampling._Period.__init__
    monkeypatch.setattr(sampling._Period, "__init__",
                        lambda self, *a, **k: built.append(self) or real(self, *a, **k))
    cuts, real_cut = [], sampling._alias_grids
    monkeypatch.setattr(sampling, "_alias_grids", lambda *a: cuts.append(a) or real_cut(*a))
    Sx, Sn = SpectralDensity(BIMODAL), SpectralDensity(((0.0, 1.6, 0.05),))
    _, sets = mmse_optimal(Sx, Sn, 0.96, 3)
    assert len(built) == len(cuts) == 1
    assert sets == maximal_af_sets(snr_ratio(Sx, Sn), 0.96, 3)


class TestStackedEigenSolve:
    """eigen_curves_multi solves all cells as one stack, bit for bit as the
    per-cell loop in tests/support, errors included."""

    @given(densities(), densities(), st.lists(gains(), min_size=1, max_size=3),
           st.booleans(), st.floats(0.05, 3.0))
    # a repeated all-pass branch: S_Y has rank 1 on every cell
    @example(rect_density(), rect_noise(), [None], True, 0.7)
    # an ill-conditioned S_Y: S_Y^-1/2 K S_Y^-1/2 fails the Hermitian check
    @example(SpectralDensity(((0.0, 1.0, 1.0), (1.0, 2.0, 1e-5))), zero_density(),
             [ComplexGainProfile([(-1.4, 0.8, -1.8 - 1.9j)]),
              ComplexGainProfile([(-3.0, 3.0, 1.0)])], False, 2.0)
    # the loop's trace integral exceeds sigma^2 by 3.9e-7 relative: the
    # library's trace check fails it
    @example(SpectralDensity(((0.03125, 0.546875, 0.38075929772),)), zero_density(),
             [None, ComplexGainProfile([(-2.765625, 0.296875, 1e-05j)])], True, 1.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_cell_loop(self, Sx, Sn, branches, repeat, fs):
        if repeat:
            branches = branches[:2] + branches[:1]
        spec = SamplerSpec(fs, branches)
        src = _Source(Sx, Sn, spec.branches)
        per = src.periods([fs])
        grid, mids, kmax = per.grid[0], per.mids[0], int(per.kmax[0])
        sy, kk = _branch_matrices(src, fs, mids, kmax)
        try:
            want = whitened_eigenvalues_loop(sy, kk)
        except LinalgError as e:
            want = type(e)
        else:  # the bank's own checks, with their tolerances
            top, sigma2 = float(want.max(initial=0.0)), src.sigma2
            w, v = EigenCurves(grid, np.maximum(want, 0.0)).pieces()
            if want.size and float(want.min()) < -1e-10 * max(1.0, top):
                want = SpectrumError
            elif np.cumsum(w * v)[-1] > sigma2 + 1e-9 * max(1.0, sigma2):
                want = SpectrumError
        # the pair pieces split across translate calls: 1 puts each in a call
        # of its own, and the last budget two in each
        entries = (2 * kmax + 1) * len(mids)
        for budget in (sampling._MAX_BLOCK_ENTRIES, 1, 2 * entries):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
                calls, real = [], sampling._translates
                mp.setattr(sampling, "_translates",
                           lambda pw, *a: calls.append(len(pw.vals)) or real(pw, *a))
                assert np.array_equal(_branch_matrices(src, fs, mids, kmax), [sy, kk])
                assert sum(calls) == len(src.pairs.vals)
                assert max(calls) <= max(1, budget // entries)
                if isinstance(want, type):
                    with pytest.raises((LinalgError, SpectrumError)) as got:
                        eigen_curves_multi(Sx, Sn, spec)
                    assert got.type is want
                else:
                    assert np.array_equal(eigen_curves_multi(Sx, Sn, spec).lam, want)


class TestEmptyPieces:
    """An empty density or gain adds no breakpoint to a merged grid."""

    # the edges at +-1e-9 lie within BP_TOL of 0
    NEAR_ZERO = ((1e-9, 0.5, 1.0),)

    @pytest.mark.parametrize("case", ["empty-source", "empty-noise", "empty-gain"])
    def test_branch_matrices_match_loop(self, case):
        Sx = Sn = SpectralDensity(self.NEAR_ZERO)
        branches = [None]
        if case == "empty-source":
            Sx = zero_density()
        elif case == "empty-noise":
            Sn = zero_density()
        else:
            branches = [ComplexGainProfile([]), None]
        sy, kk = build_branch_matrices(Sx, Sn, SamplerSpec(1.0, branches), 0.0)
        ref_sy, ref_kk = branch_matrices_loop(Sx, Sn, branches, 1.0, 0.0)
        assert_close(sy, ref_sy)
        assert_close(kk, ref_kk)


class TestTranslateCap:
    @pytest.mark.parametrize("fs", [1e-300, 5e-324, 1e-4])
    def test_tiny_fs_named_error(self, fs):
        # the count alone is computed: no translate array is built
        with pytest.raises(SpectrumError, match=r"fs = .* translates per side"):
            _translate_count(_pw_from_density(rect_density()), fs, fs / 2.0)

    @pytest.mark.parametrize("f", [1e12, -1e12])
    def test_far_f_is_named(self, f):
        # fs = 0.5 alone needs 3 translates a side; the error blamed fs
        with pytest.raises(SpectrumError, match="^" + re.escape(f"f = {f:g} at fs = 0.5 needs")):
            build_branch_matrices(rect_density(), rect_noise(), SamplerSpec(0.5, [None, None]), f)

    def test_tiny_fs_at_far_f_names_fs(self):
        with pytest.raises(SpectrumError, match=r"^fs = 1e-05 needs"):
            build_branch_matrices(rect_density(), rect_noise(), SamplerSpec(1e-5, [None, None]),
                                  1e12)


class TestNonFinite:
    def test_mmse_cross_check_fails_on_nan_residual(self, monkeypatch):
        # a NaN curve makes the folded MMSE, and so the residual, NaN (an
        # overflowing Sx^2 did that until _Source.grid refused it)
        real = sampling._folded

        def nan_curve(per):
            curves = real(per)
            return sampling._Curves(per, curves.values * np.nan, curves.over)
        monkeypatch.setattr(sampling, "_folded", nan_curve)
        with pytest.raises(SpectrumError, match="cross-check"):
            mmse_single(rect_density(), zero_density(), None, 0.5)

    # no errstate here: a numpy overflow warning fails the test
    @pytest.mark.parametrize("call, cause", [
        pytest.param(lambda: mmse_single(rect_density(1e160), zero_density(), None, 0.5),
                     "source level 1e+160", id="level-mmse"),
        pytest.param(lambda: mmse_optimal(rect_density(1e160), zero_density(), 0.5, 2),
                     "source level 1e+160", id="level-optimal"),
        pytest.param(lambda: mmse_single(rect_density(), rect_noise(1e-300), ComplexGainProfile(
            [(-0.5, 0.5, 1e5)]), 0.5), "filter gain 100000+0j", id="gain-times-noise"),
        pytest.param(lambda: s_tilde_single(rect_density(), zero_density(),
                                            ComplexGainProfile([(-0.5, 0.5, 1e160j)]), 0.5),
                     "filter gain 0+1e+160j", id="gain"),
        pytest.param(lambda: eigen_curves_multi(rect_density(1e100), zero_density(), SamplerSpec(
            0.5, [None, ComplexGainProfile([(-0.5, 0.5, 1e60)])])),
                     "filter gain 1e+60+0j", id="gain-times-level"),
    ])
    def test_overflowing_products_are_named(self, call, cause):
        with pytest.raises(SpectrumError, match=f"^{re.escape(cause)} overflows"):
            call()


class TestFsCheck:
    """Each function that takes fs refuses one outside (0, inf) by name; NaN
    and inf fs used to give silent wrong answers or a bare error."""

    @pytest.mark.parametrize("fs", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda fs: SamplerSpec(fs, [None]), id="sampler-spec"),
        pytest.param(lambda fs: s_tilde_single(rect_density(), rect_noise(), None, fs),
                     id="period-cells"),
        pytest.param(lambda fs: maximal_af_sets(snr_ratio(rect_density(), rect_noise()), fs),
                     id="maximal-af-sets"),
        pytest.param(lambda fs: landau_mmse_bound(rect_density(), rect_noise(), fs),
                     id="landau"),
        pytest.param(lambda fs: d_dagger(rect_density(), rect_noise(), fs, 0.0), id="d-dagger"),
        pytest.param(lambda fs: aliased_sum(rect_density(), fs, 0.1), id="aliased-sum"),
    ])
    def test_named_error(self, call, fs):
        with pytest.raises(SpectrumError, match="fs must be positive and finite"):
            call(fs)

    # every public function that takes fs, with the other arguments valid
    FS_CALLS = {
        "sampler-spec": lambda fs: SamplerSpec(fs, [None]),
        "s-tilde": lambda fs: s_tilde_single(rect_density(), rect_noise(), None, fs),
        "mmse-single": lambda fs: mmse_single(rect_density(), rect_noise(), None, fs),
        "maximal-af-sets": lambda fs: maximal_af_sets(rect_density(), fs),
        "mmse-optimal": lambda fs: mmse_optimal(rect_density(), rect_noise(), fs, 2),
        "landau": lambda fs: landau_mmse_bound(rect_density(), rect_noise(), fs),
        "polyphase-psd": lambda fs: polyphase_conditional_psd(
            rect_density(), rect_noise(), None, fs, 0.25),
        "drf-single": lambda fs: waterfill.drf_sampled_single(
            rect_density(), rect_noise(), None, fs, 1.0),
        "drf-optimal": lambda fs: drf_sampled_optimal(rect_density(), rect_noise(), fs, 2, 1.0),
        "d-dagger": lambda fs: d_dagger(rect_density(), rect_noise(), fs, 1.0),
        "d-star": lambda fs: waterfill.d_star_lower_bound(rect_density(), rect_noise(), fs, 1.0),
        "polyphase-bound": lambda fs: waterfill.polyphase_lower_bound(
            rect_density(), rect_noise(), None, fs, 1.0),
        "drf-of-estimator": lambda fs: waterfill.drf_of_estimator(
            rect_density(), rect_noise(), None, fs, 1.0),
        "aliased-sum": lambda fs: aliased_sum(rect_density(), fs, 0.1),
        "window-mmse": lambda fs: oracle.finite_window_mmse(
            rect_density(), rect_noise(), None, fs, 0.0, 4),
        "window-average": lambda fs: oracle.finite_window_mmse_average(
            rect_density(), rect_noise(), None, fs, 4, 2),
        "window-oracle": lambda fs: oracle.window_oracle(
            rect_density(), rect_noise(), None, fs, 4, 2),
        "block-oracle": lambda fs: oracle.block_idrf_oracle(
            rect_density(), rect_noise(), None, fs, 1.0, 4, 2),
    }

    @pytest.mark.parametrize("fs", [None, "1", 1 + 0j, True, False],
                             ids=["none", "str", "complex", "true", "false"])
    @pytest.mark.parametrize("name", list(FS_CALLS))
    def test_non_real_fs_named_error(self, name, fs):
        # None, "1" and 1+0j gave a bare TypeError, and True was read as 1
        with pytest.raises(SpectrumError, match="^fs must be a real number"):
            self.FS_CALLS[name](fs)

    @pytest.mark.parametrize("name", list(FS_CALLS))
    def test_integer_fs_reads_as_float(self, name):
        self.FS_CALLS[name](1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, "a", None, True, 1j])
    def test_polyphase_delta_named_error(self, delta):
        # NaN gave an all-NaN curve and "a" numpy's UFuncTypeError
        with pytest.raises(SpectrumError, match="^delta must be"):
            polyphase_conditional_psd(rect_density(), rect_noise(), None, 0.5, delta)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, "0.1", None])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda f: aliased_sum(rect_density(), 0.5, f), id="aliased-sum"),
        pytest.param(lambda f: build_branch_matrices(rect_density(), rect_noise(), SamplerSpec(
            0.5, [None, None]), f), id="branch-matrices"),
    ])
    def test_frequency_named_error(self, call, f):
        # NaN gave a bare ValueError or all-zero matrices, and inf an
        # OverflowError or an error that blamed fs
        with pytest.raises(SpectrumError, match="^f must be"):
            call(f)

    def test_superlevel_set_refuses_nan_measure(self):
        with pytest.raises(SpectrumError, match="measure budget must be >= 0"):
            superlevel_set_of_measure(rect_density(), math.nan)


# fs lists that repeat and descend, from a pool and at random
FS_LISTS = st.lists(st.one_of(st.sampled_from([0.08, 0.32, 0.5, 1.92]), st.floats(0.05, 3.0)),
                    min_size=1, max_size=8)
# None keeps the module's budget; 60 entries put nearly every fs in a block
# of its own, and 400 make blocks of a few fs
BUDGETS = st.sampled_from([None, 60, 400])


def blocks_of(src, fs_list, budget, P=None):
    """The periods of the blocks that src.bounds cuts fs_list into."""
    fs = np.array(fs_list, dtype=float)
    with pytest.MonkeyPatch.context() as mp:
        if budget:
            mp.setattr(sampling, "_MAX_BLOCK_ENTRIES", budget)
        return [src.periods(fs[start:stop], P) for start, stop in src.bounds(fs, P)]


def per_time(R, fs):
    """R, a RateSpec or a number of bits per time, at each fs of an array."""
    return (R if isinstance(R, RateSpec) else RateSpec(R))._per_time(fs)[0]


# rates in bits per time, and in bits per sample, which give each row its own
RATES = [0.0, 0.4, 3.0, RateSpec(0.0, BITS_PER_SAMPLE), RateSpec(0.7, BITS_PER_SAMPLE),
         RateSpec(1.5)]


def own(curves, i, P=1):
    """(w, v): row i's own widths (cells,) and curves (curves, cells) of a
    _Curves stack of one curve, or of the top P translates, as a block of its
    own holds them: its cells, and its last min(P, translates) curves.  A row
    may have no cells."""
    per = curves.per
    c, n = per.cells[i], min(P, 2 * per.kmax[i] + 1)
    return curves.w[i, :c], curves.values[i, curves.values.shape[1] - n:, :c]


def own_pieces(curves, i, P=1):
    """Row i's own pieces of a _Curves stack, flat, curve by curve."""
    w, v = own(curves, i, P)
    return np.tile(w, len(v)), v.ravel()


def assert_rows_solve_as_loop(rows, sigma2):
    """Each (stack, i, fs, w, v) of rows: row i of stack at every rate of
    RATES is the per-row loop's solution for its own pieces w and v, whose
    mmse is sigma2 less their integral, summed in order, floored at 0."""
    for R in RATES:
        for stack, i, fs, w, v in rows:
            r = R.per_time(fs) if isinstance(R, RateSpec) else R
            mmse = max(sigma2 - float(np.cumsum(np.append(0.0, w * v))[-1]), 0.0)
            try:
                want = row_solve_loop(w, v, mmse, r)
            except UnattainableRateError:
                with pytest.raises(UnattainableRateError):
                    stack.solution(R, fs, i)
                continue
            assert stack.solution(R, fs, i) == want


class TestBlocks:
    """A sweep's per-fs work is one stack per block of consecutive fs; every
    row of a block is, to the bit, what the one-fs functions build alone."""

    @given(densities(), st.one_of(densities(), densities(hi=3)),
           st.lists(gains(), min_size=1, max_size=3), FS_LISTS, BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_one_row_case(self, Sx, Sn, branches, fs_list, budget):
        src = _Source(Sx, Sn, branches)
        blocks = blocks_of(src, fs_list, budget)
        rows = [(per, i) for per in blocks for i in range(len(per))]
        assert [per.steps[i] for per, i in rows] == fs_list
        for per in blocks:  # within the budget, or a block of one fs
            cap = budget or sampling._MAX_BLOCK_ENTRIES
            assert len(per) == 1 or (len(per) * (2 * per.kmax.max() + 1)
                                     * per.mids.shape[1] <= cap)
        one_branch = len(branches) == 1
        folded = {id(per): sampling._folded(per) for per in blocks if one_branch}
        drfs = {k: _WaterfillStack.of_curves(src.sigma2, c) for k, c in folded.items()}
        for (per, i), fs in zip(rows, fs_list):
            alone = src.periods([fs])
            c = per.cells[i]
            assert alone.cells.tolist() == [c]
            assert np.array_equal(per.grid[i, :c + 1], alone.grid[0])
            assert np.array_equal(per.mids[i, :c], alone.mids[0])
            assert per.kmax[i] == alone.kmax[0] == _translate_count(src.period_pw, fs, fs / 2.0)
            assert np.array_equal(per.den[i, :c], alone.den[0])
            if not one_branch:
                continue
            got, want = folded[id(per)], sampling._folded(alone)
            assert got.over[i] == want.over[0]
            if want.over[0]:
                continue
            assert np.array_equal(got.curve(i).bp, want.curve(0).bp)
            assert np.array_equal(got.curve(i).vals, want.curve(0).vals)
            drf = functools.partial(drfs[id(per)].solution, i=i)
            drf_alone = _WaterfillStack.of_curves(src.sigma2, want).solution
            for R in (0.0, 0.3, 5.0):
                try:
                    sol = drf_alone(R)
                except WaterfillError as e:
                    with pytest.raises(type(e)):
                        drf(R)
                    continue
                assert drf(R) == sol

    @given(densities(), st.one_of(densities(), densities(hi=3)),
           st.lists(gains(), min_size=1, max_size=3), st.booleans(), FS_LISTS, BUDGETS)
    @example(SpectralDensity(BIMODAL), SpectralDensity(((0.0, 1.6, 0.05),)), BANK, False,
             [0.08, 0.48, 1.92, 0.5, 4.0, 0.08], None)
    # an all-pass bank: S_Y has rank 1 on every cell
    @example(rect_density(), rect_noise(), [None], True, [0.3, 1.2, 0.7], None)
    # an ill-conditioned S_Y at fs = 2, between two fs that pass, fails the
    # Hermitian check
    @example(SpectralDensity(((0.0, 1.0, 1.0), (1.0, 2.0, 1e-5))), zero_density(),
             [ComplexGainProfile([(-1.4, 0.8, -1.8 - 1.9j)]),
              ComplexGainProfile([(-3.0, 3.0, 1.0)])], False, [4.0, 2.0, 3.5], None)
    @settings(max_examples=80, deadline=None)
    def test_bank_rows_are_the_one_row_case(self, Sx, Sn, branches, repeat, fs_list, budget):
        # one stacked solve per block; each row is, to the bit, its per-fs
        # loop reference and its block of one, failures included, and its
        # waterfills' mmse part is the bank's MMSE
        if repeat or len(branches) == 1:  # a repeated branch: S_Y is rank-deficient
            branches = branches[:2] + branches[:1]
        src = _Source(Sx, Sn, branches)
        rows = []  # (stack, i, fs, own widths, own values)
        for per in blocks_of(src, fs_list, budget):
            bank = sampling._BankCurves(per)
            drf = _WaterfillStack.of_curves(src.sigma2, bank)
            for i, fs in enumerate(per.fs.tolist()):
                got = [(bank, i), (sampling._BankCurves(src.periods([fs])), 0)]
                try:
                    want, integral = eigen_curves_loop(src, fs)
                except (LinalgError, SpectrumError) as e:
                    for curves, j in got:
                        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
                            _raise_first(curves.checks, j)
                        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
                            _raise_first(sampling._mmse_multi(curves)[1], j)
                    continue
                c = per.cells[i]
                for curves, j in got:
                    _raise_first(curves.checks, j)
                    assert np.array_equal(curves.per.grid[j, :c + 1], want.bp)
                    assert np.array_equal(curves.lam[j, :c], want.lam)
                    assert not curves.lam[j, c:].any()
                    assert curves.integral[j] == integral
                    assert sampling._mmse_multi(curves)[0][j] == drf.solution(0.0, i=i).mmse_part
                rows.append((drf, i, fs, *want.pieces()))
        assert_rows_solve_as_loop(rows, src.sigma2)

    @given(densities(), st.one_of(densities(), densities(hi=3)), gains(), FS_LISTS, BUDGETS,
           st.sampled_from([8, 64]), st.sampled_from([None, 3000]))
    @settings(max_examples=80, deadline=None)
    def test_polyphase_rows_are_the_one_row_case(self, Sx, Sn, H, fs_list, budget, N_delta,
                                                 cap):
        # one offset stack per block, solved once per rate for all rows; each
        # row's bound is, to the bit, its per-fs loop reference and its block
        # of one.  A cap of 3000 entries fails some rows and not others: a
        # failing row raises when read, and the rest of its block is built.
        src = _Source(Sx, Sn, [H])
        with pytest.MonkeyPatch.context() as mp:
            if cap:
                mp.setattr(waterfill, "_MAX_OFFSET_ENTRIES", cap)
            for per in blocks_of(src, fs_list, budget):
                mmse, checks = sampling._mmse_single(sampling._folded(per))
                bound = waterfill._PolyphaseBound(per, N_delta)
                for i, fs in enumerate(per.fs.tolist()):
                    try:
                        _raise_first(checks, i)
                    except SpectrumError:  # no bound is read past a failed MMSE
                        continue
                    alone = waterfill._PolyphaseBound(src.periods([fs]), N_delta)
                    # (bound, its row, the mmse of each row of its block)
                    got = [(bound, i, mmse), (alone, 0, mmse[i:i + 1])]
                    try:
                        want = polyphase_bound_loop(src, fs, mmse[i], N_delta)
                    except WaterfillError as e:
                        for b, j, _ in got:
                            with pytest.raises(WaterfillError, match=f"^{re.escape(str(e))}$"):
                                _raise_first([b.check], j)
                        continue
                    for b, j, m in got:
                        _raise_first([b.check], j)
                        for R in RATES:
                            value, checks_at = b(m, np.full(len(m), math.inf),
                                                 per_time(R, b.per.fs))
                            _raise_first(checks_at, j)
                            assert value[j] == want(R, math.inf)

    @given(densities(4, TIED_LEVELS), densities(levels=TIED_LEVELS), FS_LISTS, BUDGETS,
           st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_top_translates_and_d_dagger_rows(self, Sx, Sn, fs_list, budget, P):
        # ties among translates, rows with fewer translates than P, D* at P = 1
        src = _Source(Sx, Sn)
        blocks = blocks_of(src, fs_list, budget, P)
        rows = [(per, i) for per in blocks for i in range(len(per))]
        assert [per.steps[i] for per, i in rows] == (np.array(fs_list) / P).tolist()
        tops = {id(per): sampling._top_translates(per, P) for per in blocks}
        stacks = {k: _WaterfillStack.of_curves(src.sigma2, t) for k, t in tops.items()}
        daggers = waterfill._d_dagger(src, np.array(fs_list))
        for n, ((per, i), fs) in enumerate(zip(rows, fs_list)):
            want = sampling._top_translates(src.periods([fs], P), P)
            for got, ref in zip(own(tops[id(per)], i, P), own(want, 0, P)):
                assert np.array_equal(got, ref)
            assert tops[id(per)].integral[i] == want.integral[0]
            one = _WaterfillStack.of_curves(src.sigma2, want).solution
            dagger = waterfill._d_dagger(src, np.array([fs])).solution
            for R in (0.0, 0.4, 3.0):
                for a, b in ((functools.partial(stacks[id(per)].solution, i=i), one),
                             (functools.partial(daggers.solution, i=n), dagger)):
                    try:
                        sol = b(R)
                    except WaterfillError as e:
                        with pytest.raises(type(e)):
                            a(R)
                        continue
                    assert a(R) == sol

    @given(densities(), st.one_of(densities(), densities(hi=3)), gains(), FS_LISTS, BUDGETS)
    @settings(max_examples=80, deadline=None)
    def test_unfolded_mmse_is_the_row_loop(self, Sx, Sn, H, fs_list, budget):
        # one block kernel for the cross-check of a block's rows, against the
        # unfolded check made one fs at a time
        src = _Source(Sx, Sn, [H])
        for per in blocks_of(src, fs_list, budget):
            for fs, alt in zip(per.steps.tolist(), sampling._unfolded_mmse(src, per.steps)):
                assert abs(alt - unfolded_mmse_loop(src, fs)) <= 1e-12 * max(1.0, src.sigma2)

    @given(densities(4, TIED_LEVELS), densities(levels=TIED_LEVELS), gains(), FS_LISTS, BUDGETS,
           st.integers(1, 4), st.sampled_from(["folded", "top", "dagger"]))
    @settings(max_examples=120, deadline=None)
    def test_per_rate_solve_is_the_row_loop(self, Sx, Sn, H, fs_list, budget, P, kind):
        # a block solves each rate once for all of its rows; each row reads the
        # solution that the per-row path gives for its own pieces, bit for bit
        src = _Source(Sx, Sn, [H] if kind == "folded" else [None])
        rows = []  # (stack, i, fs, own widths, own values)
        if kind == "dagger":
            stack = waterfill._d_dagger(src, np.array(fs_list))
            w, v = spectra._set_pieces(src.ratio, [superlevel_set_of_measure(src.ratio, fs)[0]
                                                   for fs in fs_list])
            rows = [(stack, i, fs, w[i][w[i] > 0], v[i][w[i] > 0])
                    for i, fs in enumerate(fs_list)]
        for per in blocks_of(src, fs_list, budget, P if kind == "top" else None):
            if kind == "dagger":
                break
            curves = (sampling._folded(per) if kind == "folded"
                      else sampling._top_translates(per, P))
            stack = _WaterfillStack.of_curves(src.sigma2, curves)
            for i, fs in enumerate(per.fs.tolist()):
                if curves.over is None or not curves.over[i]:
                    rows.append((stack, i, fs, *own_pieces(curves, i, P if kind == "top" else 1)))
        assert_rows_solve_as_loop(rows, src.sigma2)

    @pytest.mark.parametrize("P", [8, 10, 12])
    def test_rows_with_fewer_translates_than_p(self, P):
        # fs = 3 and 4 above the Nyquist rate 1 of a source on [0, 0.5]: those
        # rows have fewer translates of fs/P than P, the fs = 0.2 row more
        Sx = SpectralDensity(((0.0, 0.25, 1.0), (0.25, 0.5, 0.3)))
        src = _Source(Sx, rect_noise())
        fs_list = [3.0, 0.2, 4.0]
        (per,) = blocks_of(src, fs_list, None, P)
        assert [2 * k + 1 < P for k in per.kmax] == [True, False, True]
        tops = sampling._top_translates(per, P)
        drf = _WaterfillStack.of_curves(src.sigma2, tops)
        assert_rows_solve_as_loop([(drf, i, fs, *own_pieces(tops, i, P))
                                   for i, fs in enumerate(fs_list)], src.sigma2)
        for i, fs in enumerate(fs_list):
            want = sampling._top_translates(src.periods([fs], P), P)
            assert [x.tolist() for x in own(tops, i, P)] == [x.tolist() for x in own(want, 0, P)]
            assert tops.mmse[i] == mmse_optimal(Sx, rect_noise(), fs, P)[0]
            assert drf.solution(0.8, i=i) == drf_sampled_optimal(Sx, rect_noise(), fs, P, 0.8)

    def test_one_cell_row_sums_translates_in_ascending_k(self):
        # every breakpoint of the band lands on the edges of the period of
        # fs = 0.5, so its row is one cell, and its aliased sums add the
        # translates at the cell's mid, 0, one after another in ascending k
        levels = np.random.default_rng(0).uniform(0.1, 1.0, 12)
        Sx = SpectralDensity([(0.25 + 0.5 * m, 0.75 + 0.5 * m, v) for m, v in enumerate(levels)])
        src = _Source(Sx, SpectralDensity(((0.25, 6.25, 0.03),)))
        per = src.periods([0.5])
        assert per.grid.tolist() == [[-0.25, 0.25]] and per.mids.tolist() == [[0.0]]
        num, den, _ = src.pws
        want_num = want_den = 0.0
        for k in range(-per.kmax[0], per.kmax[0] + 1):
            f = np.array([-0.5 * k])
            want_num += spectra._pw_eval(num, f)[0]
            want_den += spectra._pw_eval(den, f)[0]
        assert per.den.tolist() == [[want_den]]
        assert sampling._folded(per).curve(0).vals.tolist() == [want_num / want_den]

    def test_long_fs_range_stays_bounded(self):
        # 100,000 steps: no block passes the budget, and the bounds are found
        # without building any block
        src = _Source(SpectralDensity(BIMODAL), SpectralDensity(((0.0, 1.6, 0.05),)))
        steps = 0.01 + 0.0001 * np.arange(100_000)
        pw = src.period_pw
        kmax, ok = spectra._translate_counts(pw, steps)
        entries = (2 * kmax + 1) * (len(pw.bp) + 1)
        bounds = list(sampling._block_bounds(pw, kmax, ok))
        assert bounds[0][0] == 0 and bounds[-1][1] == len(steps)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert all(stop - start == 1 or (stop - start) * entries[start:stop].max()
                   <= sampling._MAX_BLOCK_ENTRIES for start, stop in bounds)
        start, stop = next(src.bounds(steps))
        per = src.periods(steps[start:stop])
        assert len(per) * (2 * per.kmax.max() + 1) * per.mids.shape[1] <= (
            sampling._MAX_BLOCK_ENTRIES)

    def test_failing_fs_is_a_block_of_its_own(self):
        # a row over the translate cap, or not positive, fails only when read
        src = _Source(rect_density(), rect_noise())
        fs = np.array([0.3, 0.5, 1e-6, 0.7, 0.7])
        assert list(src.bounds(fs)) == [(0, 2), (2, 3), (3, 5)]
        with pytest.raises(SpectrumError, match=r"^fs = 1e-06 needs 5e\+05 translates"):
            src.periods(fs[2:3])
        assert list(src.bounds(fs[3:])) == [(0, 2)]
