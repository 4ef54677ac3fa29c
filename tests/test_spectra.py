import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subnyq.spectra import (
    ComplexGainProfile,
    FrequencyInterval,
    FrequencySet,
    SpectralDensity,
    SpectrumError,
    aliased_sum,
    integrate,
    snr_ratio,
    superlevel_set_of_measure,
    _density_pieces,
    _ordered_sum,
    _pw_eval,
    _set_pieces,
    _Pw,
)
from subnyq.oracle import (
    block_idrf_oracle,
    finite_window_mmse,
    finite_window_mmse_average,
    sampled_discretization,
)
from subnyq.sampling import maximal_af_sets, mmse_optimal
from subnyq.waterfill import (
    BITS_PER_SAMPLE,
    BITS_PER_TIME,
    RateSpec,
    WaterfillError,
    idrf_vector,
    polyphase_lower_bound,
    solve_theta_for_rate,
)
from support import (
    aliased_sum_loop,
    bandpass_density,
    density_pieces_loop,
    is_padded_row,
    rect_density,
    rect_noise,
    snr_ratio_loop,
    zero_density,
)


def fset(*pairs):
    return FrequencySet(pairs)


@st.composite
def staircases(draw, max_steps=6):
    """A density on edges k/8 with some cells empty; a segment may run past
    its top edge by 4e-10, under BP_TOL, into the next one, where evaluate
    reads the first of the two."""
    edges = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=max_steps + 1,
                                 unique=True)))
    segs = [(a / 8, b / 8 + draw(st.sampled_from([0.0, 0.0, 4e-10])), draw(st.floats(0.0, 3.0)))
            for a, b in zip(edges, edges[1:]) if draw(st.booleans())]
    return SpectralDensity(segs)


def segment_tuples(S):
    return [(iv.lo, iv.hi, v) for iv, v in S.segments]


class TestEvaluate:
    def test_inside_segment(self):
        S = rect_density(1.0, 1.0)
        assert S.evaluate(0.5) == 1.0

    def test_outside_support(self):
        S = rect_density(1.0, 1.0)
        assert S.evaluate(2.0) == 0.0

    def test_mirrored_bandpass(self):
        assert bandpass_density().evaluate(-1.5) == 0.5

    def test_rejects_negative_value(self):
        with pytest.raises(SpectrumError):
            SpectralDensity(((0.0, 1.0, -0.5),))

    def test_rejects_negative_lo(self):
        with pytest.raises(SpectrumError):
            SpectralDensity(((-1.0, 1.0, 0.5),))

    @pytest.mark.parametrize("seg", [
        (0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (0.0, math.inf, 1.0),
        (math.nan, 1.0, 1.0),
    ])
    def test_rejects_non_finite(self, seg):
        with pytest.raises(SpectrumError, match="not finite"):
            SpectralDensity((seg,))


def pw_eval_loop(bp, vals, x):
    """vals[i] where bp[i] <= x < bp[i+1], else 0, one x at a time."""
    return next((v for lo, hi, v in zip(bp, bp[1:], vals) if lo <= x < hi), 0 * vals[:1].sum())


@st.composite
def stacked_pieces(draw):
    """(bp, vals, x): a stack of 1-3 functions on 0-5 sorted breakpoints
    (none for the empty _Pw), real or complex, and points below, on,
    between and above the breakpoints, and NaN."""
    bp = np.array(sorted(draw(st.sets(st.integers(-8, 8), max_size=6)))) / 4.0
    n, rows = max(len(bp) - 1, 0), draw(st.integers(1, 3))
    vals = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 2.0, -1.0]), min_size=n,
                                           max_size=n), min_size=rows, max_size=rows)))
    vals = vals.reshape(rows, n)
    if draw(st.booleans()):
        vals = vals + 1j * vals[::-1]
    x = draw(st.lists(st.one_of(st.sampled_from(bp.tolist() or [0.0]),
                                st.floats(-3.0, 3.0), st.just(math.nan)), max_size=8))
    return bp, vals, np.array(x, dtype=float)


class TestStackedEval:
    @given(stacked_pieces())
    @settings(max_examples=200, deadline=None)
    def test_stack_is_the_rows(self, case):
        # a stacked _Pw reads, bit for bit, what each of its rows reads alone
        bp, vals, x = case
        got = _pw_eval(_Pw(bp, vals), x)
        assert got.dtype == vals.dtype and got.shape == (len(vals), len(x))
        for row, want in zip(got, vals):
            assert np.array_equal(row, _pw_eval(_Pw(bp, want), x))
            assert np.array_equal(row, [pw_eval_loop(bp, want, p) for p in x])
        assert np.array_equal(_pw_eval(_Pw(bp, vals), x.reshape(-1, 1)), got[:, :, None])


@st.composite
def padded_rows(draw):
    """(w, v, pw, pv): a row's widths (cells,) and curves (curves, cells), and
    the row padded with zero-width cells anywhere, holding any value, and with
    zero curves first."""
    cells, curves = draw(st.integers(0, 12)), draw(st.integers(1, 3))
    level = st.floats(0.0, 10.0)
    w = np.array(draw(st.lists(level, min_size=cells, max_size=cells)))
    v = np.array(draw(st.lists(level, min_size=curves * cells, max_size=curves * cells)))
    v = v.reshape(curves, cells)
    at = draw(st.lists(st.integers(0, cells), max_size=6))
    pw = np.insert(w, at, 0.0)
    pv = np.insert(v, at, np.array(draw(st.lists(level, min_size=curves * len(at),
                                                  max_size=curves * len(at)))).reshape(
        curves, len(at)), axis=1)
    pv = np.concatenate((np.zeros((draw(st.integers(0, 3)), len(pw))), pv))
    return w, v, pw, pv


class TestOrderedSum:
    @given(padded_rows(), st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_padded_row_sums_to_the_row_alone(self, case, at):
        # a row's pieces, curve by curve, added one after another: zero cells
        # and leading zero curves, anywhere in a block's row, move no bit
        w, v, pw, pv = case
        alone = _ordered_sum((w * v).ravel())
        want = 0.0
        for x in (w * v).ravel():
            want += x
        assert alone == want
        padded = (pw * pv).ravel()
        block = np.insert(np.full((2, len(padded)), 0.7), at, padded, axis=0)
        assert _ordered_sum(block)[at] == alone
        assert _ordered_sum(block.T, axis=0)[at] == alone

    def test_empty_axis_sums_to_zero(self):
        assert _ordered_sum(np.zeros((3, 0))).tolist() == [0.0] * 3
        assert _ordered_sum(np.zeros((0, 2, 4)), axis=0).tolist() == [[0.0] * 4] * 2


class TestIntegrate:
    def test_total_power(self):
        assert integrate(rect_density(1.0, 1.0)) == 2.0

    def test_partial_interval(self):
        assert integrate(rect_density(1.0, 1.0), fset((0.0, 0.5))) == 0.5

    def test_bandpass_overlap(self):
        assert integrate(bandpass_density(), fset((1.5, 3.0))) == 0.25

    def test_mirror_side_counts(self):
        assert integrate(bandpass_density(), fset((-3.0, -1.5))) == 0.25

    @given(staircases(), st.lists(st.lists(st.tuples(st.integers(-48, 48), st.integers(1, 12)),
                                           max_size=4), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_pieces_match_loop(self, S, rows):
        # intervals on edges k/16 cut the k/8 staircase inside its segments
        # and at their edges, on both sides of 0: one set at a time and all
        # at once, bit for bit and dtype included
        sets = [None] + [FrequencySet((k / 16, (k + n) / 16) for k, n in row) for row in rows]
        w, v = _set_pieces(S, sets)
        for i, F in enumerate(sets):
            want = density_pieces_loop(S, F)
            got = _density_pieces(S, F)
            assert [x.dtype for x in got] == [x.dtype for x in want]
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert is_padded_row(w[i], v[i], want)
            assert integrate(S, F) == float(np.sum(want[0] * want[1]))


class TestAliasedSum:
    def test_two_translates_land(self):
        assert aliased_sum(rect_density(1.0, 1.0), 1.0, 0.25) == 2.0

    def test_no_aliasing_above_nyquist(self):
        assert aliased_sum(rect_density(1.0, 1.0), 3.0, 0.25) == 1.0

    def test_bandpass_single_translate(self):
        assert aliased_sum(bandpass_density(), 2.0, 0.5) == 0.5

    def test_invalid_fs(self):
        with pytest.raises(SpectrumError):
            aliased_sum(rect_density(), 0.0, 0.1)

    def test_periodicity(self):
        S = bandpass_density()
        for f in (-0.7, 0.0, 0.33, 1.9):
            assert aliased_sum(S, 1.3, f) == pytest.approx(
                aliased_sum(S, 1.3, f + 1.3), abs=1e-12
            )

    @given(staircases(), st.floats(0.05, 3.0), st.floats(-20.0, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sum_bitwise(self, S, fs, f):
        assert aliased_sum(S, fs, f) == aliased_sum_loop(S, fs, f)

    def test_far_frequency_evaluates_one_window(self, monkeypatch):
        # k ran over 2 ceil((f_max + |f|)/fs) + 3 translates, so f = 1e12
        # hung; at any f the window is 2 (ceil(f_max/fs + 1/2) + 1) + 1 = 7
        S, calls, real = rect_density(1.0, 1.0), [], SpectralDensity.evaluate

        def counted(self, f):
            calls.append(f)
            if len(calls) > 7:
                raise AssertionError("more than 7 translates evaluated")
            return real(self, f)
        monkeypatch.setattr(SpectralDensity, "evaluate", counted)
        for f in (1e12, -1e12, 0.0):
            calls.clear()
            assert aliased_sum(S, 1.0, f) == 1.0
            assert len(calls) == 7

    def test_tiny_fs_is_capped(self):
        with pytest.raises(SpectrumError, match=r"^fs = 0.0001 needs .* translates per side"):
            aliased_sum(rect_density(), 1e-4, 0.1)

    def test_f_over_fs_past_the_float_range(self):
        with pytest.raises(SpectrumError, match=r"^f = 1e\+10 is too far out for fs = 1e-300"):
            aliased_sum(zero_density(), 1e-300, 1e10)

    def test_power_conservation(self):
        S = bandpass_density()
        fs = 0.8
        # integrate the aliased sum over one period using a refined grid
        pts = np.linspace(-fs / 2, fs / 2, 4001)
        mids = 0.5 * (pts[:-1] + pts[1:])
        total = sum(aliased_sum(S, fs, m) for m in mids) * (fs / 4000)
        assert total == pytest.approx(S.total_power(), rel=1e-2)


class TestSnrRatio:
    def test_noiseless_identity(self):
        S = rect_density(1.0, 1.0)
        r = snr_ratio(S, zero_density())
        assert r.evaluate(0.5) == 1.0

    def test_flat_noise(self):
        r = snr_ratio(rect_density(), SpectralDensity(((0.0, 0.5, 0.2),)))
        assert r.evaluate(0.1) == pytest.approx(1 / 1.2)

    def test_zero_over_zero(self):
        r = snr_ratio(zero_density(), zero_density())
        assert r.evaluate(0.0) == 0.0

    def test_restricted_to_support_equals_source(self):
        S = bandpass_density()
        r = snr_ratio(S, zero_density())
        assert r.evaluate(1.5) == S.evaluate(1.5)
        assert r.total_power() == pytest.approx(S.total_power())

    @given(staircases(), staircases())
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_bitwise(self, Sx, Sn):
        assert segment_tuples(snr_ratio(Sx, Sn)) == segment_tuples(snr_ratio_loop(Sx, Sn))

    def test_overlap_reads_first_segment(self):
        Sx = SpectralDensity(((0.0, 1.0 + 5e-10, 1.0), (1.0, 2.0, 2.0)))
        r = snr_ratio(Sx, zero_density())
        assert segment_tuples(r) == segment_tuples(snr_ratio_loop(Sx, zero_density()))
        assert r.evaluate(1.0 + 2e-10) == 1.0

    def test_ten_thousand_segments(self, monkeypatch):
        # each cell was read with evaluate, a scan of every segment: 1.1 s at
        # 4,000 segments; now no cell calls it
        levels = np.random.default_rng(5).uniform(0.05, 1.0, 10_000).tolist()
        Sx = SpectralDensity([(i / 100, (i + 1) / 100, v) for i, v in enumerate(levels)])
        Sn = SpectralDensity(((0.0, 50.0, 0.1),))
        monkeypatch.setattr(SpectralDensity, "evaluate", lambda *a: pytest.fail("evaluate"))
        want = [(i / 100, (i + 1) / 100, x * x / (x + (0.1 if i < 5000 else 0.0)))
                for i, x in enumerate(levels)]
        assert segment_tuples(snr_ratio(Sx, Sn)) == want


class TestSuperlevelSet:
    def test_whole_support_fits(self):
        F, val = superlevel_set_of_measure(rect_density(1.0, 1.0), 2.0)
        assert F == fset((-1.0, 1.0))
        assert val == pytest.approx(2.0)

    def test_flat_partial(self):
        F, val = superlevel_set_of_measure(rect_density(1.0, 1.0), 1.0)
        assert F.measure() == pytest.approx(1.0)
        assert val == pytest.approx(1.0)

    def test_two_level(self):
        S = SpectralDensity(((0.0, 0.5, 3.0), (0.5, 1.0, 1.0)))
        F, val = superlevel_set_of_measure(S, 1.0)
        assert F == fset((-0.5, 0.5))
        assert val == pytest.approx(3.0)

    def test_symmetry_of_trimmed_set(self):
        S = SpectralDensity(((0.2, 1.0, 2.0),))
        F, _ = superlevel_set_of_measure(S, 0.6)
        lows = sorted(iv.lo for iv in F.intervals)
        assert lows == pytest.approx([-0.5, 0.2])

    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_budget(self, m1, m2):
        S = SpectralDensity(((0.0, 0.5, 3.0), (0.5, 1.0, 1.0), (1.5, 2.0, 2.0)))
        lo, hi = sorted((m1, m2))
        _, v1 = superlevel_set_of_measure(S, lo)
        _, v2 = superlevel_set_of_measure(S, hi)
        assert v1 <= v2 + 1e-12


class TestSetAlgebra:
    def test_measure_of_union(self):
        assert fset((-1.0, 0.0), (0.5, 1.0)).measure() == pytest.approx(1.5)

    def test_translate(self):
        assert fset((1.0, 2.0)).translate(-2.0) == fset((-1.0, 0.0))

    def test_intersect(self):
        assert fset((-1.0, 1.0)).intersect(fset((0.5, 2.0))) == fset((0.5, 1.0))

    def test_touching_intervals_merge(self):
        assert fset((0.0, 0.5), (0.5, 1.0)) == fset((0.0, 1.0))

    def test_complement_within(self):
        c = fset((0.2, 0.4)).complement_within(0.0, 1.0)
        assert c == fset((0.0, 0.2), (0.4, 1.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(SpectrumError):
            FrequencyInterval(1.0, 1.0)

    @given(
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.01, 1.5)),
            min_size=0, max_size=4,
        ),
        st.lists(
            st.tuples(st.floats(-3, 3), st.floats(0.01, 1.5)),
            min_size=0, max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_inclusion_exclusion(self, raw_a, raw_b):
        A = FrequencySet((lo, lo + w) for lo, w in raw_a)
        B = FrequencySet((lo, lo + w) for lo, w in raw_b)
        lhs = A.union(B).measure() + A.intersect(B).measure()
        rhs = A.measure() + B.measure()
        assert lhs == pytest.approx(rhs, abs=1e-7)


class TestGainProfile:
    def test_one_sided_branch(self):
        h = ComplexGainProfile([(1.0, 2.0, 1.0 + 1.0j)])
        assert h.evaluate(1.5) == 1.0 + 1.0j
        assert h.evaluate(-1.5) == 0.0

    def test_conjugate_symmetric(self):
        h = ComplexGainProfile.conjugate_symmetric([(0.5, 1.0, 1.0 - 2.0j)])
        assert h.evaluate(0.7) == 1.0 - 2.0j
        assert h.evaluate(-0.7) == 1.0 + 2.0j

    @pytest.mark.parametrize("g", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_rejects_non_finite_gain(self, g):
        with pytest.raises(SpectrumError, match="not finite"):
            ComplexGainProfile([(0.0, 1.0, g)])

    def test_indicator_support_roundtrip(self):
        F = fset((-2.0, -1.0), (1.0, 2.0))
        assert ComplexGainProfile.indicator(F).support() == F


class TestCountCheck:
    """Every count (branches, window half-length, offsets, decimation factor)
    must be an integer: a fractional one used to give a wrong number or a
    bare TypeError.  Each function keeps its own error class."""

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda Sx, Sn: finite_window_mmse(Sx, Sn, None, 0.6, 0.0, K=2.5),
                     SpectrumError, id="window-K"),
        pytest.param(lambda Sx, Sn: polyphase_lower_bound(Sx, Sn, None, 0.6, 1.0, N_delta=64.5),
                     WaterfillError, id="polyphase-N_delta"),
        pytest.param(lambda Sx, Sn: sampled_discretization(Sx, Sn, None, 0.6, M=1.5),
                     SpectrumError, id="discretization-M"),
        pytest.param(lambda Sx, Sn: idrf_vector(([1.0], [1.0]), 1.5, 1.0, 0.0),
                     WaterfillError, id="idrf-vector-M"),
        pytest.param(lambda Sx, Sn: mmse_optimal(Sx, Sn, 0.6, P=2.0),
                     SpectrumError, id="mmse-optimal-P"),
        pytest.param(lambda Sx, Sn: maximal_af_sets(snr_ratio(Sx, Sn), 0.6, P=1.5),
                     SpectrumError, id="af-sets-P"),
        pytest.param(lambda Sx, Sn: maximal_af_sets(snr_ratio(Sx, Sn), 0.6, P=True),
                     SpectrumError, id="af-sets-P-bool"),
        pytest.param(lambda Sx, Sn: block_idrf_oracle(Sx, Sn, None, 0.6, 1.0, K=2.5),
                     SpectrumError, id="block-K"),
        pytest.param(lambda Sx, Sn: finite_window_mmse_average(Sx, Sn, None, 0.6, 4, n_phases=2.5),
                     SpectrumError, id="average-n_phases"),
    ])
    def test_fractional_count_refused(self, call, error):
        with pytest.raises(error, match="and an integer, got") as got:
            call(rect_density(), rect_noise(5.0))
        assert got.type is error


# any value a caller might pass where a number belongs
ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**400, 10**400),
    st.booleans(), st.none(), st.text(max_size=3), st.complex_numbers(max_magnitude=1e3),
    st.just(np.float64(0.5)), st.just(np.int64(2)))
ANY_SEGMENT = st.one_of(st.lists(ANY_VALUE, max_size=4).map(tuple), ANY_VALUE)


class TestConstructorInput:
    """SpectralDensity, ComplexGainProfile and RateSpec, and the set path's
    functions, take a value of any type: a wrong-arity segment, a str, None,
    complex or bool where a real number belongs and a list where a
    FrequencySet belongs raise their module's named error, never a bare
    TypeError, ValueError or AttributeError."""

    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda: RateSpec("1"), WaterfillError, id="rate-str"),
        pytest.param(lambda: RateSpec(None), WaterfillError, id="rate-none"),
        pytest.param(lambda: RateSpec(1 + 0j), WaterfillError, id="rate-complex"),
        pytest.param(lambda: RateSpec(True), WaterfillError, id="rate-bool"),
        pytest.param(lambda: solve_theta_for_rate(([1.0], [1.0]), "1"), WaterfillError,
                     id="solve-rate-str"),
        pytest.param(lambda: SpectralDensity([(0.0, 1.0)]), SpectrumError, id="density-arity"),
        pytest.param(lambda: SpectralDensity(((0.0, "1", 1.0),)), SpectrumError,
                     id="density-str"),
        pytest.param(lambda: SpectralDensity(((0.0, 1.0, True),)), SpectrumError,
                     id="density-bool"),
        pytest.param(lambda: SpectralDensity(((0.0, 1.0, 1j),)), SpectrumError,
                     id="density-complex"),
        pytest.param(lambda: SpectralDensity(5), SpectrumError, id="density-not-a-list"),
        pytest.param(lambda: ComplexGainProfile([(0.0, 1.0)]), SpectrumError, id="gain-arity"),
        pytest.param(lambda: ComplexGainProfile([(0.0, 1.0, None)]), SpectrumError,
                     id="gain-none"),
        pytest.param(lambda: ComplexGainProfile([(0.0, 1.0, True)]), SpectrumError,
                     id="gain-bool"),
        pytest.param(lambda: ComplexGainProfile([(0.0, 1j, 1.0)]), SpectrumError,
                     id="gain-complex-edge"),
        pytest.param(lambda: ComplexGainProfile.conjugate_symmetric([(0.0, "1", 1.0)]),
                     SpectrumError, id="conjugate-symmetric-str-edge"),
        pytest.param(lambda: superlevel_set_of_measure(rect_density(), "1"), SpectrumError,
                     id="superlevel-str-measure"),
        pytest.param(lambda: integrate(rect_density(), [(0.0, 1.0)]), SpectrumError,
                     id="integrate-list-set"),
        pytest.param(lambda: ComplexGainProfile.indicator([(0.0, 1.0)]), SpectrumError,
                     id="indicator-list-set"),
        pytest.param(lambda: rect_density().evaluate("x"), SpectrumError, id="evaluate-str"),
    ])
    def test_bad_value_raises_named_error(self, call, error):
        with pytest.raises(error) as got:
            call()
        assert got.type is error

    @given(st.lists(ANY_SEGMENT, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_density_fuzz(self, segments):
        try:
            S = SpectralDensity(segments)
        except SpectrumError:
            return
        assert all(0 <= iv.lo < iv.hi < math.inf and 0 < v < math.inf for iv, v in S.segments)

    @given(st.lists(ANY_SEGMENT, max_size=3),
           st.sampled_from([ComplexGainProfile, ComplexGainProfile.conjugate_symmetric]))
    @settings(max_examples=200, deadline=None)
    def test_gain_fuzz(self, segments, make):
        try:
            H = make(segments)
        except SpectrumError:
            return
        assert all(lo < hi and type(g) is complex and cmath.isfinite(g)
                   for lo, hi, g in H.segments)

    @given(ANY_VALUE, st.one_of(st.sampled_from([BITS_PER_TIME, BITS_PER_SAMPLE]), ANY_VALUE))
    @example(8.98846567431158e+307, BITS_PER_SAMPLE)  # R * 2 overflows
    @settings(max_examples=200, deadline=None)
    def test_rate_fuzz(self, value, unit):
        try:
            r = RateSpec(value, unit)
        except WaterfillError:
            return
        try:
            assert 0 <= r.per_time(2.0) < math.inf
        except WaterfillError:  # named where R * fs overflows, and only there
            assert r.unit == BITS_PER_SAMPLE and r.value * 2.0 == math.inf
