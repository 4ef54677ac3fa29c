import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnyq import oracle
from subnyq.linalg import LinalgError
from subnyq.oracle import (
    CovarianceWindow,
    DiscreteSpectrum,
    best_single_observation,
    block_idrf_oracle,
    covariance_from_psd,
    discrete_j_m,
    discrete_j_m_curve,
    finite_window_mmse,
    finite_window_mmse_average,
    iid_drf,
    iid_rate_for_distortion,
    joint_mmse_two,
    sampled_discretization,
    window_oracle,
)
from subnyq.sampling import _Source, mmse_single, s_tilde_single
from subnyq.spectra import ComplexGainProfile, SpectralDensity, SpectrumError
from subnyq.waterfill import WaterfillError, drf_sampled_single, solve_theta_for_rate
from support import (
    bandpass_density,
    cov_loop,
    random_density,
    rect_density,
    rect_noise,
    triangular_density,
    window_oracle_loop,
    zero_density,
)

RNG = np.random.default_rng(907)


def l1_gap(Sx, Sn, H, fs, M):
    """L1 distance between the decimated conditional curve and the exact one."""
    sxz, sz = sampled_discretization(Sx, Sn, H, fs, M)
    jc = discrete_j_m_curve(sxz, sz, M)
    st = s_tilde_single(Sx, Sn, H, fs)
    bp = np.unique(np.concatenate([jc.bp * fs, st.bp]))
    bp = bp[(bp >= -fs / 2 - 1e-12) & (bp <= fs / 2 + 1e-12)]
    mids = 0.5 * (bp[:-1] + bp[1:])
    gap = np.abs(
        jc.evaluate(mids / fs) / fs - np.array([st.evaluate(m) for m in mids])
    )
    return float(np.sum(gap * np.diff(bp)))


class TestCovariance:
    def test_lag_zero_is_power(self):
        assert covariance_from_psd(rect_density(), 0.0) == pytest.approx(1.0)
        assert covariance_from_psd(bandpass_density(), 0.0) == pytest.approx(1.0)

    def test_flat_sinc(self):
        S = rect_density(1.0, 0.5)
        for tau in (0.3, 0.7, 1.4):
            assert covariance_from_psd(S, tau) == pytest.approx(
                math.sin(math.pi * tau) / (math.pi * tau)
            )

    def test_sinc_zeros(self):
        S = rect_density(1.0, 0.5)
        assert covariance_from_psd(S, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert covariance_from_psd(S, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_even_in_lag(self):
        S = triangular_density()
        taus = np.array([0.1, 0.45, 2.3])
        assert np.allclose(covariance_from_psd(S, taus), covariance_from_psd(S, -taus))

    def test_bandpass_modulated(self):
        # band-pass +-(1, 2): c(tau) = sinc-type envelope times cos(3 pi tau)
        S = bandpass_density()
        for tau in (0.21, 0.9):
            ref = (math.sin(4 * math.pi * tau) - math.sin(2 * math.pi * tau)) / (
                2 * math.pi * tau
            )
            assert covariance_from_psd(S, tau) == pytest.approx(ref, abs=1e-12)


# Lags with the |tau| < 1e-12 branch's edge cases, drawn with repeats: a
# Toeplitz window repeats every lag many times.
LAGS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1.0, -2.5]),
                          st.floats(-40.0, 40.0)), min_size=1, max_size=12)
SEGMENTS = st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 3.0))
                    .map(lambda t: (t[0], t[0] + t[1], t[2])), max_size=4)
# Contiguous segments, as in a staircase density: neighbours share an edge,
# whose sines the kernel evaluates once.  Each draw also repeats its first
# segment and ends in a zero-width segment on the last edge.
STAIRCASES = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5).flatmap(
    lambda vals: st.lists(st.floats(0.0, 2.0), min_size=len(vals) + 1,
                          max_size=len(vals) + 1).map(sorted).map(
        lambda e: [(a, b, v) for a, b, v in zip(e, e[1:], vals)]
        + [(e[0], e[1], vals[0]), (e[-1], e[-1], 1.5)]))


# Longer staircases: from 8 segments on, numpy adds up a lone column pairwise,
# not in segment order.
LONG_STAIRCASES = st.lists(st.floats(0.0, 3.0), min_size=9, max_size=40).map(sorted).flatmap(
    lambda e: st.lists(st.floats(0.01, 3.0), min_size=len(e) - 1, max_size=len(e) - 1).map(
        lambda vals: [(a, b, v) for a, b, v in zip(e, e[1:], vals)]))


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def check_matches_loop(segs, lags, data):
    """The kernel on draws of lags, with repeats, flat and as a grid, against
    the per-lag loop, bit for bit."""
    picks = data.draw(st.lists(st.integers(0, len(lags) - 1), min_size=1, max_size=24))
    tau = np.array([lags[i] for i in picks])
    assert np.array_equal(oracle._cov_from_segments(segs, tau), cov_loop(segs, tau))
    rows = data.draw(st.sampled_from([d for d in (1, 2, 3, 4) if len(tau) % d == 0]))
    grid = tau.reshape(rows, -1)
    assert np.array_equal(oracle._cov_from_segments(segs, grid), cov_loop(segs, grid))


class TestDistinctLags:
    """_cov_from_segments evaluates each distinct |lag| once, in chunks
    within _MAX_BLOCK_ENTRIES, and gathers the values back; they are those of
    the per-lag closed form, bit for bit, however the lags are chunked."""

    @given(st.one_of(SEGMENTS, STAIRCASES), LAGS, st.data())
    @settings(max_examples=160, deadline=None)
    def test_matches_loop_bitwise(self, segs, lags, data):
        check_matches_loop(segs, lags, data)

    # a budget of per_chunk lags a chunk splits every call of more distinct
    # |lag| values; a one-lag chunk is a lone column
    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    @given(st.one_of(SEGMENTS, STAIRCASES, LONG_STAIRCASES), LAGS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_bitwise_in_chunks(self, per_chunk, segs, lags, data):
        edges = np.unique(np.array(segs, dtype=float).reshape(-1, 3)[:, :2])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_MAX_BLOCK_ENTRIES", per_chunk * max(len(edges), len(segs), 1))
            check_matches_loop(segs, lags, data)

    @given(st.one_of(SEGMENTS, STAIRCASES, LONG_STAIRCASES),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    @settings(max_examples=160, deadline=None)
    def test_even_in_lag_bitwise(self, segs, lags):
        # fl(2 pi e (-t)) = -fl(2 pi e t), the sine is odd and every later
        # step is symmetric in the sign: the closed form at -t is that at t,
        # so the kernel may evaluate each |t| once
        tau = np.array(lags)
        assert same_bits(cov_loop(segs, -tau), cov_loop(segs, tau))
        assert same_bits(oracle._cov_from_segments(segs, -tau), oracle._cov_from_segments(segs, tau))

    def test_lone_lag_adds_in_segment_order(self):
        # numpy sums a one-column buffer pairwise; with 129 segments that
        # moved a scalar covariance off the per-lag closed form in its last bits
        rng = np.random.default_rng(11)
        edges = np.sort(rng.uniform(0.0, 3.0, 130))
        segs = list(zip(edges[:-1], edges[1:], rng.uniform(0.05, 2.0, 129)))
        S = SpectralDensity(segs)
        for tau in rng.uniform(-30.0, 30.0, 40):
            want = cov_loop(segs, np.array([tau]))
            assert same_bits(oracle._cov_from_segments(segs, np.array([tau])), want)
            assert same_bits(covariance_from_psd(S, float(tau)), want[0])

    def test_window_oracle_calls_the_kernel_twice_per_fs(self, monkeypatch):
        # C_Y, then all of C_YU: at K = 32 and 8 phases, C_YU's 8 x 129 lags
        # (j/8 - d)/fs hold 520 distinct |lag| values, and C_Y's 129 hold 65
        Sx = SpectralDensity([(i / 100, (i + 1) / 100, 1.0 - i / 128) for i in range(128)])
        src = _Source(Sx, SpectralDensity(((0.0, 1.28, 0.05),)), [None])
        pieces = oracle._observation_segments(src)
        calls, real = [], oracle._cov_from_segments

        def counted(segs, tau):
            calls.append((np.shape(tau), len(np.unique(np.abs(tau)))))
            return real(segs, tau)
        monkeypatch.setattr(oracle, "_cov_from_segments", counted)
        for fs in (0.32, 1.92):
            calls.clear()
            oracle._window_oracle(pieces, src.sigma2, fs, 32, 8)
            assert calls == [((129,), 65), ((8, 129), 520)]

    def test_chunks_bound_memory(self):
        # one (segments x lags) buffer for all 8,001 lags peaked at 49.6 MB
        S = SpectralDensity([(i / 100, (i + 1) / 100, 1.0 + i % 7) for i in range(256)])
        tau = np.linspace(-40.0, 40.0, 8001)
        tracemalloc.start()
        try:
            covariance_from_psd(S, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("H", [None, ComplexGainProfile([(-0.6, 0.6, 0.5)])])
    def test_window_and_block_match_loop(self, monkeypatch, H):
        Sx, Sn, fs, K = triangular_density(), rect_noise(4.0, 1.0), 0.7, 5
        c_y = CovarianceWindow.build(Sx, Sn, H, fs, K).C_Y
        d = block_idrf_oracle(Sx, Sn, H, fs, 0.8, K, 3)
        monkeypatch.setattr(oracle, "_cov_from_segments", cov_loop)
        assert np.array_equal(c_y, CovarianceWindow.build(Sx, Sn, H, fs, K).C_Y)
        assert d == block_idrf_oracle(Sx, Sn, H, fs, 0.8, K, 3)


@st.composite
def window_cases(draw, phases, bounded_below):
    """(Sx, Sn, H, fs, K, n_phases): a staircase source on edges k/8, noise
    and a real even low-pass filter that passes part of the source.  With
    bounded_below, the noise and the filter's pass band cover (0, fs/2) and
    the source, so the observation spectrum has a floor on every frequency
    and C_Y is well conditioned."""
    K, fs, n_phases = draw(st.integers(1, 12)), draw(st.floats(0.2, 3.0)), draw(phases)
    edges = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=6, unique=True)))
    Sx = SpectralDensity([(a / 8, b / 8, draw(st.floats(0.1, 3.0)))
                          for a, b in zip(edges, edges[1:])])
    cover = max(fs / 2, edges[-1] / 8)
    if bounded_below:
        Sn = SpectralDensity(((0.0, cover + 0.5, draw(st.floats(0.05, 1.0))),))
        cut = draw(st.one_of(st.none(), st.floats(cover, cover + 1.0)))
    else:
        Sn = draw(st.sampled_from([zero_density(), rect_noise(5.0, 0.3), rect_noise(0.5, 2.5)]))
        cut = draw(st.one_of(st.none(), st.floats(edges[0] / 8 + 0.05, 3.0)))
    H = None if cut is None else ComplexGainProfile([(-cut, cut, draw(st.floats(0.5, 2.0)))])
    return Sx, Sn, H, fs, K, n_phases


class TestToeplitzWindow:
    """_window_oracle reads C_Y and each phase block of C_YU off the 4K+1
    distinct lags of a Toeplitz window.  What it returns is what the full lag
    matrices (n_a - n_b)/fs and (n_b + delta - n_a)/fs give, the latter with
    each entry's exact fraction rounded once: bit for bit, as every lag is
    then the same float, whether delta = j/n_phases is dyadic or not."""

    RATES = (0.0, 0.5, 2.0)

    def oracle_and_loop(self, Sx, Sn, H, fs, K, n_phases):
        src = _Source(Sx, Sn, [H])
        pieces = oracle._observation_segments(src)
        orc = oracle._window_oracle(pieces, src.sigma2, fs, K, n_phases)
        average, wf = window_oracle_loop(pieces, src.sigma2, fs, K, n_phases)
        assert orc.mmse_average.regularized == average.regularized
        return ([orc.mmse_average.value] + [orc.distortion(R) for R in self.RATES],
                [average.value] + [wf.solution(R * (2 * K + 1) / fs).distortion
                                   for R in self.RATES])

    @given(window_cases(st.sampled_from([1, 2, 4, 8, 16]), bounded_below=False))
    @settings(max_examples=100, deadline=None)
    def test_dyadic_phases_bitwise(self, case):
        got, want = self.oracle_and_loop(*case)
        assert got == want

    @given(window_cases(st.sampled_from([3, 5, 7]), bounded_below=True))
    @settings(max_examples=100, deadline=None)
    def test_other_phases_within_rounding(self, case):
        # one rounding of a lag moves a distortion by about the window's
        # conditioning times 1e-16, so these windows have a noise floor
        got, want = self.oracle_and_loop(*case)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


class TestWindowOracle:
    """window_oracle does the rate-independent work of both window oracles
    once; what it returns, the ridge flag included, agrees with the oracles
    called on their own, and one object serves every rate unchanged."""

    @pytest.mark.parametrize("fs, K", [(0.6, 8), (2.0, 16)], ids=["plain", "ridged"])
    def test_matches_standalone_oracles(self, fs, K):
        Sx, Sn = rect_density(), zero_density() if fs == 2.0 else rect_noise(5.0)
        orc = window_oracle(Sx, Sn, None, fs, K, 4)
        avg = finite_window_mmse_average(Sx, Sn, None, fs, K, 4)
        assert orc.mmse_average.regularized == avg.regularized == (fs == 2.0)
        assert abs(orc.mmse_average.value - avg.value) <= 1e-12
        for R in (0.0, 0.7, 3.0):
            assert orc.distortion(R) == block_idrf_oracle(Sx, Sn, None, fs, R, K, 4)


class TestOracleInputs:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: finite_window_mmse_average(
            rect_density(), rect_noise(5.0), None, 0.6, 4, n_phases=0), id="average-0-phases"),
        pytest.param(lambda: block_idrf_oracle(
            rect_density(), rect_noise(5.0), None, 0.6, 1.0, 4, n_phases=0), id="block-0-phases"),
        pytest.param(lambda: CovarianceWindow.build(
            rect_density(), rect_noise(5.0), None, math.nan, 4), id="window-fs-nan"),
        pytest.param(lambda: CovarianceWindow.build(
            rect_density(), rect_noise(5.0), None, math.inf, 4), id="window-fs-inf"),
        pytest.param(lambda: finite_window_mmse(
            rect_density(), rect_noise(5.0), None, math.nan, 0.0, 4), id="window-mmse-fs-nan"),
        pytest.param(lambda: block_idrf_oracle(
            rect_density(), rect_noise(5.0), None, math.inf, 1.0, 4), id="block-fs-inf"),
        *(pytest.param(lambda t=t: covariance_from_psd(rect_density(), t), id=f"tau-{name}")
          for t, name in ((math.nan, "nan"), (math.inf, "inf"), ("a", "str"),
                          ([0.5, math.nan], "array-nan"), (1j, "complex"))),
        *(pytest.param(lambda d=d: finite_window_mmse(
            rect_density(), rect_noise(5.0), None, 0.6, d, 4), id=f"delta-{name}")
          for d, name in ((math.nan, "nan"), (math.inf, "inf"), ("x", "str"))),
        *(pytest.param(lambda p=p: discrete_j_m(*sampled_discretization(
            rect_density(), zero_density(), None, 1.0, 2), 2, p), id=f"phi-{name}")
          for p, name in ((math.nan, "nan"), (-math.inf, "-inf"), ("0.1", "str"))),
    ])
    def test_named_error(self, call):
        with pytest.raises(SpectrumError, match="n_phases must be >= 1|positive and finite"
                                                "|must be finite|must be a real number"):
            call()

    # R = -1 is TestBlockOracle.test_invalid_rate
    @pytest.mark.parametrize("R", ["1", True, math.nan, math.inf, 1 + 0j])
    def test_bad_rate_is_waterfill_error(self, R):
        with pytest.raises(WaterfillError, match="rate must be"):
            block_idrf_oracle(rect_density(), rect_noise(5.0), None, 0.6, R, 4)

    def test_window_oracle_refuses_complex_gain(self):
        H = ComplexGainProfile([(-0.4, 0.4, 1.0 + 0.5j)])
        with pytest.raises(SpectrumError, match="need real filter gains"):
            window_oracle(rect_density(), rect_noise(5.0), H, 0.3, 4, 2)

    def test_window_oracle_with_nothing_observed_raises_linalg_error(self):
        # the source lies outside the pass band and there is no noise: the
        # window covariance is 0, and so is its ridge; numpy's LinAlgError
        # escaped here
        H = ComplexGainProfile([(-0.5, 0.5, 1.0)])
        with pytest.raises(LinalgError, match="^window covariance is not positive definite"):
            window_oracle(SpectralDensity(((1.0, 2.0, 1.0),)), zero_density(), H, 0.5, 4)


def test_oracle_shares_no_translate_kernel():
    # the oracles check the spectral path, so they must not run its kernels
    kernels = {"_alias_grids", "_translates", "_branch_matrices", "_unfolded_mmse", "_Period",
               "_top_translates", "_folded"}
    assert not kernels & set(vars(oracle))


class TestDiscreteSpectrum:
    def test_periodic_evaluate(self):
        d = DiscreteSpectrum(np.array([-0.5, 0.0, 0.5]), np.array([1.0, 2.0]))
        assert d.evaluate(0.25) == 2.0
        assert d.evaluate(1.25) == 2.0
        assert d.evaluate(-0.25) == 1.0
        assert d.evaluate(0.75) == 1.0

    def test_power(self):
        d = DiscreteSpectrum(np.array([-0.5, 0.0, 0.5]), np.array([1.0, 2.0]))
        assert d.power() == pytest.approx(1.5)

    def test_rejects_out_of_period(self):
        with pytest.raises(SpectrumError):
            DiscreteSpectrum(np.array([-0.5, 0.7]), np.array([1.0]))


class TestSampledDiscretization:
    def test_lossless_flat(self):
        sxz, sz = sampled_discretization(rect_density(), zero_density(), None, 1.0, 2)
        # fine rate 2 > Nyquist 1: single translate, scaled by 2 on |phi| < 1/4
        assert sz.evaluate(0.1) == pytest.approx(2.0)
        assert sz.evaluate(0.4) == pytest.approx(0.0)
        assert sxz.power() == pytest.approx(1.0)
        assert sz.power() == pytest.approx(1.0)

    def test_power_conservation_random(self):
        for _ in range(10):
            Sx = random_density(RNG)
            Sn = random_density(RNG)
            fs = RNG.uniform(0.3, 2.0)
            M = int(RNG.integers(1, 5))
            _, sz = sampled_discretization(Sx, Sn, None, fs, M)
            assert sz.power() == pytest.approx(Sx.total_power() + Sn.total_power(), rel=1e-10)

    def test_noise_enters_observation_only(self):
        sxz, sz = sampled_discretization(rect_density(), rect_noise(1.0), None, 2.0, 2)
        assert sxz.evaluate(0.05) == pytest.approx(4.0)  # M*fs * S_X
        assert sz.evaluate(0.05) == pytest.approx(8.0)  # M*fs * (S_X + S_N)

    def test_invalid_args(self):
        with pytest.raises(SpectrumError):
            sampled_discretization(rect_density(), zero_density(), None, 1.0, 0)
        with pytest.raises(SpectrumError):
            sampled_discretization(rect_density(), zero_density(), None, 0.0, 2)


class TestDiscreteJm:
    def test_m1_noiseless_identity(self):
        sxz, sz = sampled_discretization(rect_density(), zero_density(), None, 1.5, 1)
        assert discrete_j_m(sxz, sz, 1, 0.1) == pytest.approx(1.5)
        assert discrete_j_m(sxz, sz, 1, 0.45) == pytest.approx(0.0)

    def test_matches_exact_curve_when_fine(self):
        # M*fs above the observation Nyquist rate: exact agreement
        for fs, M in ((0.7, 3), (1.5, 2)):
            st = s_tilde_single(rect_density(), rect_noise(5.0), None, fs)
            sxz, sz = sampled_discretization(rect_density(), rect_noise(5.0), None, fs, M)
            mids = 0.5 * (st.bp[:-1] + st.bp[1:])
            for m in mids:
                assert discrete_j_m(sxz, sz, M, m / fs) / fs == pytest.approx(
                    st.evaluate(m), abs=1e-10
                )

    def test_zero_denominator(self):
        sxz, sz = sampled_discretization(bandpass_density(), zero_density(), None, 8.0, 1)
        assert discrete_j_m(sxz, sz, 1, 0.01) == 0.0

    def test_recorded_gap_sequence(self):
        # band-pass source at fs = 1.5: fine rate M*fs must clear twice the
        # band edge (4.0), so M <= 2 still aliases and M >= 3 is exact
        gaps = [l1_gap(bandpass_density(), zero_density(), None, 1.5, M) for M in (1, 2, 3, 4)]
        assert gaps[0] == pytest.approx(0.5, abs=1e-9)
        assert gaps[1] == pytest.approx(0.5, abs=1e-9)
        for g in gaps[2:]:
            assert g <= 1e-9

    def test_gap_vanishes_once_fine(self):
        for _ in range(5):
            Sx = random_density(RNG)
            fs = RNG.uniform(0.3, 1.5)
            M = int(np.ceil(2 * Sx.f_max / fs)) + 1
            assert l1_gap(Sx, zero_density(), None, fs, M) <= 1e-9


class TestFiniteWindow:
    def test_on_sample_noiseless_is_zero(self):
        r = finite_window_mmse(rect_density(), zero_density(), None, 2.0, 0.0, 4)
        assert r.value == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_window(self):
        vals = [
            finite_window_mmse(rect_density(), rect_noise(5.0), None, 0.6, 0.5, K).value
            for K in (1, 2, 4, 8, 16)
        ]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_entries_match_covariance(self):
        Sz = SpectralDensity(((0.0, 0.5, 1.2),))  # source + noise combined
        win = CovarianceWindow.build(rect_density(), rect_noise(5.0), None, 0.7, 3)
        n = np.arange(-3, 4)
        for i in range(7):
            for j in range(7):
                ref = covariance_from_psd(Sz, (n[i] - n[j]) / 0.7)
                assert win.C_Y[i, j] == pytest.approx(ref, abs=1e-12)

    def test_average_converges_to_exact_mmse(self):
        for fs in (0.4, 0.8):
            exact = mmse_single(rect_density(), rect_noise(5.0), None, fs)
            approx = finite_window_mmse_average(
                rect_density(), rect_noise(5.0), None, fs, K=64, n_phases=16
            )
            assert approx.value == pytest.approx(exact, abs=0.01)
            assert approx.value >= exact - 1e-9

    def test_rejects_complex_filter(self):
        h = ComplexGainProfile([(-0.5, 0.5, 1.0j)])
        with pytest.raises(SpectrumError):
            finite_window_mmse(rect_density(), zero_density(), h, 1.0, 0.0, 2)

    def test_rejects_one_sided_filter(self):
        h = ComplexGainProfile([(0.1, 0.5, 1.0)])
        with pytest.raises(SpectrumError):
            finite_window_mmse(rect_density(), zero_density(), h, 1.0, 0.0, 2)

    def test_invalid_window(self):
        with pytest.raises(SpectrumError):
            finite_window_mmse(rect_density(), zero_density(), None, 1.0, 0.0, 0)


class TestBlockOracle:
    def test_rate_zero_gives_source_power(self):
        d = block_idrf_oracle(rect_density(), rect_noise(3.0), None, 0.6, 0.0, 8)
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_high_rate_approaches_mmse(self):
        d = block_idrf_oracle(rect_density(), zero_density(), None, 0.5, 60.0, 24)
        exact = mmse_single(rect_density(), zero_density(), None, 0.5)
        assert abs(d - exact) <= 0.02

    def test_matches_exact_drf(self):
        for fs, R in ((0.5, 1.0), (1.0, 1.0)):
            d = block_idrf_oracle(rect_density(), zero_density(), None, fs, R, 24)
            exact = drf_sampled_single(rect_density(), zero_density(), None, fs, R).distortion
            assert abs(d - exact) <= 0.02 * 1.0

    def test_invalid_rate(self):
        with pytest.raises(WaterfillError):
            block_idrf_oracle(rect_density(), zero_density(), None, 0.5, -1.0, 4)


class TestScalarClosedForms:
    def test_iid_drf_half(self):
        assert iid_drf(1.0, 1.0, 1.0, 0.5) == pytest.approx(0.5)

    def test_iid_drf_limits(self):
        assert iid_drf(1.0, 2.0, 1.0, 0.0) == pytest.approx(1.0)
        assert iid_drf(1.0, 2.0, 1.0, 50.0) == pytest.approx(0.5, abs=1e-9)

    def test_iid_rate_roundtrip(self):
        for R in (0.3, 1.0, 2.5):
            D = iid_drf(1.0, 1.5, 0.9, R)
            assert iid_rate_for_distortion(1.0, 1.5, 0.9, D) == pytest.approx(R, rel=1e-9)

    def test_iid_invalid_observation(self):
        with pytest.raises(SpectrumError):
            iid_drf(1.0, 0.0, 0.5, 1.0)
        assert iid_drf(1.0, 0.0, 0.0, 1.0) == 1.0

    def test_iid_rate_rejects_out_of_range(self):
        with pytest.raises(SpectrumError):
            iid_rate_for_distortion(1.0, 1.0, 1.0, 1.5)
        with pytest.raises(SpectrumError):
            iid_rate_for_distortion(1.0, 1.0, 1.0, 0.0)

    def test_iid_rate_zero_variance_observation(self):
        # as in iid_drf: only D = C_U, reached at every rate, is left, and
        # the half-open range (C_U, C_U] holds no distortion
        with pytest.raises(SpectrumError, match=r"outside \(1.0, 1.0\]"):
            iid_rate_for_distortion(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(SpectrumError, match="nonzero cross term"):
            iid_rate_for_distortion(1.0, 0.0, 0.5, 0.5)

    def test_joint_mmse_symmetric(self):
        # both unit sources observed noiselessly through the sum
        assert joint_mmse_two(1.0, 1.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_joint_mmse_one_branch(self):
        # only source 1 observed, noiselessly: its error is 0, source 2 full
        assert joint_mmse_two(1.0, 1.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(0.5)
        # noisy single branch at unit SNR
        assert joint_mmse_two(1.0, 1.0, 1.0, 0.0, 1.0, 0.0) == pytest.approx(0.75)

    def test_joint_mmse_no_observation(self):
        assert joint_mmse_two(1.0, 0.5, 0.0, 0.0, 0.0, 0.0) == pytest.approx(0.75)

    def test_selection_rule(self):
        assert best_single_observation(1.0, 0.5, 0.0, 0.0) == (1.0, 0.0)
        assert best_single_observation(1.0, 1.0, 1.0, 0.0) == (0.0, 1.0)


class TestEigenWaterfillInequality:
    def test_kept_power_bound(self):
        # sum min(lam, theta) >= 2^{-2R} sum lam when theta spends R bits
        for _ in range(100):
            n = int(RNG.integers(1, 7))
            lam = np.abs(RNG.normal(size=n)) + 1e-6
            R = float(RNG.uniform(0.01, 5.0))
            theta = solve_theta_for_rate((np.ones(n), lam), R)
            kept = float(np.minimum(lam, theta).sum())
            assert kept >= 2.0 ** (-2 * R) * lam.sum() - 1e-9

    def test_rank_one_equality(self):
        lam = np.array([0.0, 0.0, 1.7])
        for R in (0.5, 1.0, 3.0):
            theta = solve_theta_for_rate((np.ones(3), lam), R)
            kept = float(np.minimum(lam, theta).sum())
            assert kept == pytest.approx(2.0 ** (-2 * R) * lam.sum(), rel=1e-7)
