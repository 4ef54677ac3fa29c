import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnyq.linalg import HermitianMatrix, hermitian_eig, inv_sqrt_psd
from subnyq.sampling import (
    SamplerSpec,
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
    _pw_from_density,
    _translate_count,
    snr_ratio,
)
from support import (
    alias_cells_loop,
    bandpass_density,
    branch_matrices_loop,
    maximal_af_sets_loop,
    polyphase_loop,
    s_tilde_loop,
    rect_density,
    rect_noise,
    triangular_density,
    zero_density,
)

RNG = np.random.default_rng(71)


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
        assert sy.entries[0, 0].real == pytest.approx(aliased_sum(z, 0.7, 0.1))
        assert kk.entries[0, 0].real == pytest.approx(aliased_sum(x2, 0.7, 0.1))

    def test_disjoint_branches_give_diagonal(self):
        spec = SamplerSpec(2.0, bandpass_branches())
        sy, kk = build_branch_matrices(bandpass_density(), zero_density(), spec, 0.3)
        assert abs(sy.entries[0, 1]) <= 1e-14
        assert abs(kk.entries[0, 1]) <= 1e-14

    def test_identical_branches_rank_one(self):
        h = ComplexGainProfile([(-0.5, 0.5, 1.0)])
        spec = SamplerSpec(0.8, (h, h))
        sy, _ = build_branch_matrices(rect_density(), zero_density(), spec, 0.1)
        w = np.linalg.eigvalsh(sy.entries)
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
                t = inv_sqrt_psd(sy).entries
                w = hermitian_eig(HermitianMatrix(t @ kk.entries @ t)).eigenvalues
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


@st.composite
def densities(draw, max_segments=3):
    """Up to max_segments segments on [0, 2]."""
    edges = draw(grid_edges(0, 2, max_segments + 1))
    return SpectralDensity([(lo, hi, draw(LEVELS)) for lo, hi in zip(edges, edges[1:])])


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
            assert_close(sy.entries, ref_sy)
            assert_close(kk.entries, ref_kk)

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


class TestTranslateCap:
    @pytest.mark.parametrize("fs", [1e-300, 5e-324, 1e-4])
    def test_tiny_fs_named_error(self, fs):
        # the count alone is computed: no translate array is built
        with pytest.raises(SpectrumError, match=r"fs = .* translates per side"):
            _translate_count(_pw_from_density(rect_density()), fs, fs / 2.0)


class TestNonFinite:
    def test_mmse_cross_check_fails_on_nan_residual(self):
        # Sx^2 overflows: folded and unfolded MMSE are both -inf, and their
        # difference is NaN
        Sx = SpectralDensity(((0.0, 0.5, 1e160),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpectrumError, match="cross-check"):
                mmse_single(Sx, zero_density(), None, 0.5)
