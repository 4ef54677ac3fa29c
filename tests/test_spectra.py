import math

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from support import bandpass_density, rect_density, zero_density


def fset(*pairs):
    return FrequencySet(pairs)


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


class TestIntegrate:
    def test_total_power(self):
        assert integrate(rect_density(1.0, 1.0)) == 2.0

    def test_partial_interval(self):
        assert integrate(rect_density(1.0, 1.0), fset((0.0, 0.5))) == 0.5

    def test_bandpass_overlap(self):
        assert integrate(bandpass_density(), fset((1.5, 3.0))) == 0.25

    def test_mirror_side_counts(self):
        assert integrate(bandpass_density(), fset((-3.0, -1.5))) == 0.25


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
