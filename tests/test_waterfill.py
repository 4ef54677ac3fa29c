import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnyq import waterfill
from subnyq.cli import BIMODAL_SEGMENTS
from subnyq.oracle import iid_drf
from subnyq.sampling import SamplerSpec, mmse_single, s_tilde_single
from subnyq.spectra import ComplexGainProfile, SpectralDensity, SpectrumError
from subnyq.waterfill import (
    BITS_PER_SAMPLE,
    RateSpec,
    UnattainableRateError,
    WaterfillError,
    WaterfillSolution,
    d_dagger,
    d_star_lower_bound,
    distortion_of_theta,
    drf_of_estimator,
    drf_sampled_multi,
    drf_sampled_optimal,
    drf_sampled_single,
    idrf_stationary,
    idrf_vector,
    polyphase_lower_bound,
    rate_of_theta,
    solve_theta_for_rate,
)
from support import (
    bandpass_density,
    bandpass_drf_closed,
    bisect_theta_for_rate,
    bisection_tolerance,
    random_density,
    rect_density,
    rect_drf_closed,
    rect_noise,
    triangular_density,
    zero_density,
)

RNG = np.random.default_rng(1123)

FLAT = (np.array([1.0]), np.array([1.0]))
TWO = (np.array([1.0, 1.0]), np.array([1.0, 4.0]))


class TestParametricCore:
    def test_flat_rate(self):
        assert rate_of_theta(FLAT, 0.25) == pytest.approx(1.0)

    def test_rate_zero_above_max(self):
        assert rate_of_theta(FLAT, 1.5) == 0.0

    def test_two_curve_rate(self):
        assert rate_of_theta(TWO, 1.0) == pytest.approx(1.0)

    def test_rate_rejects_nonpositive_theta(self):
        with pytest.raises(WaterfillError):
            rate_of_theta(FLAT, 0.0)

    def test_distortion_at_zero_theta(self):
        sol = distortion_of_theta(1.0, FLAT, 0.0)
        assert sol.distortion == pytest.approx(sol.mmse_part)

    def test_rate_at_subnormal_theta(self):
        # v / theta would overflow; the rate is 1/2 * 0.5 * log2(1 / 2**-1040)
        sol = distortion_of_theta(1.0, ([0.5], [1.0]), 2.0 ** -1040)
        assert sol.rate == 260.0

    def test_distortion_saturates(self):
        sol = distortion_of_theta(1.0, FLAT, 2.0)
        assert sol.distortion == pytest.approx(1.0)

    def test_flat_quarter(self):
        sol = distortion_of_theta(1.0, FLAT, 0.25)
        assert sol.distortion == pytest.approx(0.25)
        assert sol.lossy_part == pytest.approx(0.25)
        assert sol.mmse_part == pytest.approx(0.0)

    def test_solve_flat(self):
        assert solve_theta_for_rate(FLAT, 1.0) == pytest.approx(0.25, rel=1e-8)

    def test_solve_rate_zero_returns_max(self):
        assert solve_theta_for_rate(FLAT, 0.0) == 1.0

    def test_solve_two_curves(self):
        assert solve_theta_for_rate(TWO, 1.0) == pytest.approx(1.0, rel=1e-6)

    def test_zero_curve_unattainable(self):
        with pytest.raises(UnattainableRateError):
            solve_theta_for_rate((np.array([1.0]), np.array([0.0])), 1.0)

    def test_solution_reproduces_rate(self):
        for R in (0.1, 1.0, 7.5):
            theta = solve_theta_for_rate(TWO, R)
            assert rate_of_theta(TWO, theta) == pytest.approx(R, abs=max(1e-10, 1e-9 * R))

    def test_closed_form_matches_bisection_reference(self):
        rng = np.random.default_rng(1405)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            pool = np.append(rng.uniform(0.0, 4.0, size=3), 0.0)
            v = np.where(rng.random(n) < 0.5, rng.choice(pool, size=n),
                         rng.uniform(0.0, 4.0, size=n))
            v *= 10.0 ** rng.uniform(-3.0, 3.0)
            w = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.05, 1.0, size=n))
            if not np.any((w > 0) & (v > 0)):
                continue
            R = rng.uniform(0.0, 6.0)
            theta = solve_theta_for_rate((w, v), R)
            assert abs(rate_of_theta((w, v), theta) - R) <= 1e-12 * max(1.0, R)
            ref = bisect_theta_for_rate(w, v, R)
            w_active = np.sum(w[v > max(theta, ref)])
            bound = 2 * math.log(2) * bisection_tolerance(R) / w_active
            assert abs(math.log(ref / theta)) <= bound + 1e-12

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, R):
        with pytest.raises(WaterfillError, match=f"got {R}"):
            RateSpec(R)
        with pytest.raises(WaterfillError, match=f"got {R}"):
            solve_theta_for_rate(FLAT, R)

    # values from a small pool tie; zero widths and zero values are skipped;
    # rates up to 60 bits reach past the smallest value's breakpoint
    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                              st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                        st.floats(1e-6, 1e6))),
                    min_size=1, max_size=8),
           st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)), min_size=1, max_size=6))
    @example([(1.0, 1.0), (0.0, 4.0), (0.5, 1.0), (1.0, 0.0)], [0.0, 0.3, 1.0, 60.0])
    @example([(1.0, 0.0), (0.0, 2.0)], [0.0, 1.0])
    @settings(max_examples=200, deadline=None)
    def test_one_waterfill_matches_fresh_solves(self, pieces, rates):
        w, v = (np.array(x) for x in zip(*pieces))
        wf = waterfill._Waterfill((w, v), 0.3, 0.5)
        for R in rates:
            if R > 0 and not np.any((w > 0) & (v > 0)):
                for solve in (wf.solve, lambda R: solve_theta_for_rate((w, v), R)):
                    with pytest.raises(UnattainableRateError):
                        solve(R)
                continue
            assert wf.solve(R) == idrf_vector((w, v), 2, R, 0.3)
            assert wf.solve(R).theta == solve_theta_for_rate((w, v), R)

    def test_decomposition_invariant_enforced(self):
        with pytest.raises(WaterfillError):
            WaterfillSolution(0.1, 1.0, 1.0, 0.3, 0.3)

    def test_rate_spec_conversion(self):
        r = RateSpec(2.0, BITS_PER_SAMPLE)
        assert r.per_time(0.5) == pytest.approx(1.0)
        sol_a = drf_sampled_single(rect_density(), zero_density(), None, 0.5, r)
        sol_b = drf_sampled_single(rect_density(), zero_density(), None, 0.5, 1.0)
        assert sol_a.distortion == pytest.approx(sol_b.distortion, abs=1e-12)


class TestIdrfStationary:
    def test_flat_skp(self):
        sol = idrf_stationary(rect_density(), zero_density(), None, 1.0)
        assert sol.distortion == pytest.approx(0.25, rel=1e-8)

    def test_flat_noisy(self):
        sol = idrf_stationary(rect_density(), rect_noise(5.0), None, 1.0)
        assert sol.distortion == pytest.approx(0.375, rel=1e-8)

    def test_rate_zero(self):
        sol = idrf_stationary(rect_density(), zero_density(), None, 0.0)
        assert sol.distortion == pytest.approx(1.0)

    def test_filter_support_restriction(self):
        h = ComplexGainProfile([(-0.25, 0.25, 1.0)])
        sol = idrf_stationary(rect_density(), zero_density(), h, 40.0)
        # half the band is thrown away by the filter
        assert sol.distortion == pytest.approx(0.5, abs=1e-6)


class TestIdrfVector:
    def test_m1_reduces_to_scalar(self):
        curve = (np.array([1.0]), np.array([0.8]))
        a = idrf_vector(curve, 1, 1.0, 0.2)
        theta = solve_theta_for_rate(curve, 1.0)
        b = distortion_of_theta(1.0, curve, theta)
        assert a.distortion == pytest.approx(b.distortion, abs=1e-10)

    def test_iid_closed_form_match(self):
        # scalar gaussian pair as a constant-eigenvalue vector problem
        c_u, c_v, c_uv = 1.0, 1.5, 0.9
        est = c_uv**2 / c_v
        for R in (0.25, 1.0, 3.0):
            sol = idrf_vector((np.array([1.0]), np.array([est])), 1, R, c_u - est)
            assert sol.distortion == pytest.approx(iid_drf(c_u, c_v, c_uv, R), rel=1e-7)

    def test_rank_one_trace(self):
        lam = np.array([0.0, 0.0, 1.3])
        sol = idrf_vector((np.ones(3), lam), 3, 0.0, 0.5)
        assert sol.distortion == pytest.approx(0.5 + lam.sum() / 3)

    def test_average_distortion_bound(self):
        # joint description of 2 coordinates at R bits is no better than
        # describing each coordinate separately with the same R bits
        for _ in range(40):
            c1, c2, cxi = RNG.uniform(0.2, 2.0, size=3)
            a1, a2 = RNG.uniform(-1.5, 1.5, size=2)
            c_v = a1 * a1 * c1 + a2 * a2 * c2 + cxi
            cross = np.array([a1 * c1, a2 * c2])
            c_hat = np.outer(cross, cross) / c_v
            lam = np.sort(np.linalg.eigvalsh(c_hat))
            mmse = (c1 + c2 - lam.sum()) / 2
            R = RNG.uniform(0.0, 3.0)
            vec = idrf_vector((np.ones(2), np.clip(lam, 0, None)), 2, R, mmse)
            avg = 0.5 * (iid_drf(c1, c_v, cross[0], R) + iid_drf(c2, c_v, cross[1], R))
            assert vec.distortion >= avg - 1e-9


class TestDrfSampledSingle:
    def test_example_rect(self):
        sol = drf_sampled_single(rect_density(), zero_density(), None, 0.5, 1.0)
        assert sol.distortion == pytest.approx(0.53125, rel=1e-8)

    def test_example_bandpass(self):
        sol = drf_sampled_single(bandpass_density(), zero_density(), None, 2.0, 1.0)
        assert sol.distortion == pytest.approx(0.5, rel=1e-8)

    def test_rate_zero(self):
        sol = drf_sampled_single(rect_density(), rect_noise(5.0), None, 0.7, 0.0)
        assert sol.distortion == pytest.approx(1.0)

    @pytest.mark.parametrize("R", [260.0, 1000.0])
    def test_huge_rate_gives_mmse_part(self, R):
        # theta = 2^(-4R): subnormal at R = 260, underflowed to 0.0 at R = 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = drf_sampled_single(rect_density(), zero_density(), None, 0.5, R)
        mmse = mmse_single(rect_density(), zero_density(), None, 0.5)
        assert sol.distortion == pytest.approx(mmse, abs=1e-12)
        assert sol.lossy_part >= 0.0
        assert sol.rate == R

    def test_super_nyquist_equals_stationary(self):
        for R in (0.5, 2.0):
            a = drf_sampled_single(rect_density(), rect_noise(5.0), None, 1.3, R)
            b = idrf_stationary(rect_density(), rect_noise(5.0), None, R)
            assert a.distortion == pytest.approx(b.distortion, abs=1e-9)

    def test_dominates_mmse_and_stationary(self):
        for fs in (0.3, 0.7, 1.1):
            for R in (0.5, 2.0):
                d = drf_sampled_single(triangular_density(), rect_noise(4.0, 1.0), None, fs, R)
                assert d.distortion >= mmse_single(triangular_density(), rect_noise(4.0, 1.0), None, fs) - 1e-10
                assert d.distortion >= idrf_stationary(triangular_density(), rect_noise(4.0, 1.0), None, R).distortion - 1e-10


class TestDrfSampledMulti:
    def test_p1_consistency(self):
        spec = SamplerSpec(0.5, (None,))
        a = drf_sampled_multi(rect_density(), zero_density(), spec, 1.0)
        b = drf_sampled_single(rect_density(), zero_density(), None, 0.5, 1.0)
        assert a.distortion == pytest.approx(b.distortion, rel=1e-6)

    def test_bandpass_two_branch_capture(self):
        spec = SamplerSpec(2.0, (
            ComplexGainProfile([(-2.0, -1.0, 1.0)]),
            ComplexGainProfile([(1.0, 2.0, 1.0)]),
        ))
        sol = drf_sampled_multi(bandpass_density(), zero_density(), spec, 1.0)
        assert sol.distortion == pytest.approx(0.5, rel=1e-6)

    def test_high_rate_reaches_mmse(self):
        spec = SamplerSpec(0.8, (None, None))
        sol = drf_sampled_multi(triangular_density(), rect_noise(2.0, 1.0), spec, 60.0)
        assert sol.lossy_part <= 1e-6


class TestDrfSampledOptimal:
    def test_unimodal_matches_lowpass_waterfill(self):
        # optimal single filter for a flat spectrum is the lowpass of width fs
        fs, R = 0.5, 1.0
        sol = drf_sampled_optimal(rect_density(), zero_density(), fs, 1, R)
        theta = 2.0 ** (-2 * R / fs)
        assert sol.distortion == pytest.approx(1 - fs + fs * theta, rel=1e-8)

    def test_bandpass_value(self):
        sol = drf_sampled_optimal(bandpass_density(), zero_density(), 2.0, 1, 1.0)
        assert sol.distortion == pytest.approx(0.5, rel=1e-8)

    def test_rate_zero(self):
        sol = drf_sampled_optimal(triangular_density(), rect_noise(3.0, 1.0), 0.7, 2, 0.0)
        assert sol.distortion == pytest.approx(triangular_density().total_power())

    def test_never_worse_than_user_filter(self):
        Sx, Sn = triangular_density(), rect_noise(4.0, 1.0)
        fs, R = 0.8, 1.0
        opt = drf_sampled_optimal(Sx, Sn, fs, 1, R).distortion
        for cut in (0.2, 0.5, 0.9, 1.2):
            h = ComplexGainProfile([(-cut, cut, 1.0)])
            assert drf_sampled_single(Sx, Sn, h, fs, R).distortion >= opt - 1e-9


class TestDDagger:
    def test_bandpass_landau_sufficiency(self):
        sol = d_dagger(bandpass_density(), zero_density(), 2.0, 1.0)
        assert sol.distortion == pytest.approx(0.5, rel=1e-8)

    def test_full_occupancy_equals_source_drf(self):
        for R in (0.5, 1.0, 2.0):
            a = d_dagger(triangular_density(), zero_density(), 3.0, R)
            b = idrf_stationary(triangular_density(), zero_density(), None, R)
            assert a.distortion == pytest.approx(b.distortion, abs=1e-9)

    def test_rate_zero(self):
        sol = d_dagger(triangular_density(), zero_density(), 0.5, 0.0)
        assert sol.distortion == pytest.approx(triangular_density().total_power())

    def test_monotone_in_fs_and_rate(self):
        Sx, Sn = triangular_density(), rect_noise(3.0, 1.0)
        prev = np.inf
        for fs in (0.3, 0.6, 1.0, 1.5, 2.2):
            d = d_dagger(Sx, Sn, fs, 1.0).distortion
            assert d <= prev + 1e-10
            prev = d
        prev = np.inf
        for R in (0.2, 0.7, 1.5, 4.0):
            d = d_dagger(Sx, Sn, 0.8, R).distortion
            assert d <= prev + 1e-10
            prev = d

    def test_below_every_finite_p(self):
        Sx, Sn = triangular_density(), rect_noise(3.0, 1.0)
        for fs in (0.4, 0.9):
            dd = d_dagger(Sx, Sn, fs, 1.0).distortion
            for P in (1, 2, 3, 4):
                ds = drf_sampled_optimal(Sx, Sn, fs, P, 1.0).distortion
                assert ds >= dd - 1e-9


class TestDStarAndPolyphaseBounds:
    def test_d_star_equals_optimal_p1_unimodal(self):
        Sx = triangular_density()
        for fs in (0.4, 0.8):
            a = d_star_lower_bound(Sx, zero_density(), fs, 1.0)
            b = drf_sampled_optimal(Sx, zero_density(), fs, 1, 1.0).distortion
            assert a == pytest.approx(b, abs=1e-9)

    def test_d_star_rect_closed_form(self):
        for fs in (0.3, 0.5, 0.9):
            a = d_star_lower_bound(rect_density(), zero_density(), fs, 1.0)
            assert a == pytest.approx(rect_drf_closed(fs, 1.0), rel=1e-8)

    def test_d_star_rate_zero(self):
        assert d_star_lower_bound(rect_density(), zero_density(), 0.5, 0.0) == pytest.approx(1.0)

    def test_d_star_below_any_filter(self):
        Sx, Sn = triangular_density(), rect_noise(4.0, 1.0)
        fs, R = 0.7, 1.5
        bound = d_star_lower_bound(Sx, Sn, fs, R)
        for cut in (0.3, 0.6, 1.0):
            h = ComplexGainProfile([(-cut, cut, 1.0)])
            assert drf_sampled_single(Sx, Sn, h, fs, R).distortion >= bound - 1e-9

    def test_polyphase_super_nyquist_equality(self):
        b = polyphase_lower_bound(rect_density(), zero_density(), None, 1.2, 1.0)
        d = drf_sampled_single(rect_density(), zero_density(), None, 1.2, 1.0).distortion
        assert b == pytest.approx(d, abs=1e-9)

    def test_polyphase_rate_zero(self):
        b = polyphase_lower_bound(rect_density(), rect_noise(5.0), None, 0.6, 0.0)
        assert b == pytest.approx(1.0)

    def test_polyphase_high_rate_reaches_mmse(self):
        b = polyphase_lower_bound(rect_density(), zero_density(), None, 0.6, 50.0)
        assert b == pytest.approx(mmse_single(rect_density(), zero_density(), None, 0.6), abs=1e-6)

    def test_polyphase_below_drf(self):
        for fs in (0.4, 0.8, 1.3):
            for R in (0.5, 1.5):
                b = polyphase_lower_bound(triangular_density(), rect_noise(4.0, 1.0), None, fs, R)
                d = drf_sampled_single(triangular_density(), rect_noise(4.0, 1.0), None, fs, R).distortion
                assert b <= d + 1e-6

    def test_polyphase_rejects_tiny_grid(self):
        with pytest.raises(WaterfillError):
            polyphase_lower_bound(rect_density(), zero_density(), None, 0.5, 1.0, N_delta=4)

    @pytest.mark.parametrize("fs", [0.01, 0.02, 0.03, 0.04])
    def test_polyphase_below_drf_far_below_nyquist(self, fs):
        # far below the Nyquist rate 2*k_max + 1 exceeds N_delta = 64; with
        # only 64 offsets the cross terms of the phased sums do not cancel
        Sx = SpectralDensity(BIMODAL_SEGMENTS)
        Sn = SpectralDensity(((0.0, 1.6, 0.05),))
        b = polyphase_lower_bound(Sx, Sn, None, fs, 0.05)
        d = drf_sampled_single(Sx, Sn, None, fs, 0.05).distortion
        assert b <= d + 1e-10 * max(1.0, Sx.total_power())

    def test_polyphase_above_drf_raises(self, monkeypatch):
        # above the Nyquist rate the bound equals D, so a raised MMSE term
        # puts it above D
        real = waterfill._mmse_and_curve

        def raised(*args):
            mmse, curve = real(*args)
            return mmse + 1e-6, curve

        monkeypatch.setattr(waterfill, "_mmse_and_curve", raised)
        with pytest.raises(SpectrumError, match="polyphase bound"):
            polyphase_lower_bound(rect_density(), zero_density(), None, 1.2, 1.0)


class TestDrfOfEstimator:
    def test_rate_zero_gives_estimator_power(self):
        curve = s_tilde_single(rect_density(), rect_noise(5.0), None, 0.7)
        sol = drf_of_estimator(rect_density(), rect_noise(5.0), None, 0.7, 0.0)
        assert sol.distortion == pytest.approx(curve.integral())

    def test_flat_quarter(self):
        sol = drf_of_estimator(rect_density(), zero_density(), None, 1.0, 1.0)
        assert sol.distortion == pytest.approx(0.25, rel=1e-8)

    def test_separation_identity(self):
        Sx, Sn = triangular_density(), rect_noise(4.0, 1.0)
        for fs in (0.4, 0.9, 1.6):
            for R in (0.5, 2.0):
                d = drf_sampled_single(Sx, Sn, None, fs, R).distortion
                m = mmse_single(Sx, Sn, None, fs)
                e = drf_of_estimator(Sx, Sn, None, fs, R).distortion
                assert d == pytest.approx(m + e, abs=1e-10)


class TestGlobalProperties:
    def test_monotone_in_rate_random_spectra(self):
        for _ in range(30):
            Sx = random_density(RNG)
            Sn = random_density(RNG) if RNG.random() < 0.5 else zero_density()
            fs = RNG.uniform(0.2, 2.5)
            rates = np.sort(RNG.uniform(0.0, 4.0, size=4))
            prev = np.inf
            for R in rates:
                d = drf_sampled_single(Sx, Sn, None, fs, R).distortion
                assert d <= prev + 1e-10
                prev = d

    def test_limits(self):
        for _ in range(10):
            Sx = random_density(RNG)
            sigma2 = Sx.total_power()
            fs = RNG.uniform(0.3, 2.0)
            assert drf_sampled_single(Sx, zero_density(), None, fs, 0.0).distortion == pytest.approx(sigma2)
            d_hi = drf_sampled_single(Sx, zero_density(), None, fs, 60.0).distortion
            m = mmse_single(Sx, zero_density(), None, fs)
            assert abs(d_hi - m) <= 1e-6 * sigma2

    def test_dominance_chain(self):
        Sx, Sn = triangular_density(), rect_noise(3.0, 1.0)
        for fs in (0.4, 0.8, 1.4):
            for R in (0.7, 2.0):
                d = drf_sampled_single(Sx, Sn, None, fs, R).distortion
                star = d_star_lower_bound(Sx, Sn, fs, R)
                opt1 = drf_sampled_optimal(Sx, Sn, fs, 1, R).distortion
                dag = d_dagger(Sx, Sn, fs, R).distortion
                assert d >= star - 1e-9
                assert star == pytest.approx(opt1, abs=1e-9)
                assert opt1 >= dag - 1e-9

    def test_pointwise_larger_curve_never_hurts(self):
        for _ in range(25):
            n = RNG.integers(2, 6)
            w = RNG.uniform(0.1, 1.0, size=n)
            v = RNG.uniform(0.0, 2.0, size=n)
            bump = RNG.uniform(0.0, 1.0, size=n)
            sigma2 = 10.0
            R = RNG.uniform(0.1, 3.0)
            t1 = solve_theta_for_rate((w, v + bump), R)
            d_big = distortion_of_theta(sigma2, (w, v + bump), t1).distortion
            if np.max(v) <= 0:
                continue
            t0 = solve_theta_for_rate((w, v), R)
            d_small = distortion_of_theta(sigma2, (w, v), t0).distortion
            assert d_big <= d_small + 1e-9

    def test_scaling_homogeneity(self):
        Sx, Sn = triangular_density(), rect_noise(3.0, 1.0)
        c = 3.7
        Sx_c = SpectralDensity(tuple((iv.lo, iv.hi, c * v) for iv, v in Sx.segments))
        Sn_c = SpectralDensity(tuple((iv.lo, iv.hi, c * v) for iv, v in Sn.segments))
        for fs, R in ((0.5, 1.0), (1.1, 2.5)):
            a = drf_sampled_single(Sx, Sn, None, fs, R).distortion
            b = drf_sampled_single(Sx_c, Sn_c, None, fs, R).distortion
            assert b == pytest.approx(c * a, rel=1e-9)
