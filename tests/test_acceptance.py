"""End-to-end acceptance battery.

Each test prints a one-line summary so a full run doubles as a report.
"""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from subnyq.linalg import hermitian
from subnyq.oracle import (
    block_idrf_oracle,
    finite_window_mmse_average,
    iid_drf,
)
from subnyq.sampling import (
    SamplerSpec,
    mmse_multi,
    mmse_single,
    mmse_optimal,
)
from subnyq.spectra import ComplexGainProfile, FrequencySet, SpectralDensity
from subnyq.waterfill import (
    d_dagger,
    drf_sampled_optimal,
    drf_sampled_single,
    idrf_stationary,
)
from support import (
    bandpass_density,
    bandpass_drf_closed,
    random_density,
    rect_density,
    rect_drf_closed,
    rect_noise,
    triangular_density,
    zero_density,
)
from test_oracle import l1_gap

BIMODAL = SpectralDensity(
    ((0.0, 0.4, 1.0), (0.4, 0.8, 0.2), (0.8, 1.2, 0.8), (1.2, 1.6, 0.1))
)
BIMODAL_POWER = BIMODAL.total_power()  # 1.68, band edge 1.6


def test_criterion_1_flat_source_closed_form():
    """Flat low-pass source, clean and noisy, against the closed form."""
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    for gamma in (np.inf, 5.0):
        noise = zero_density() if gamma == np.inf else rect_noise(gamma)
        for i in range(2, 41):
            fs = i * 0.05
            for R in (0.5, 1.0, 2.0, 4.0):
                got = drf_sampled_single(rect_density(), noise, None, fs, R).distortion
                ref = rect_drf_closed(fs, R, gamma)
                worst = max(worst, abs(got - ref) / ref)
                n += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"\n[acceptance 1] flat-source closed form: {n} points, "
          f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_bandpass_closed_form_and_nonmonotonicity():
    """Band-pass source closed form, plus distortion non-monotone in fs."""
    worst = 0.0
    vals = []
    fs_grid = [i * 0.1 for i in range(5, 46)]
    for fs in fs_grid:
        got = drf_sampled_single(bandpass_density(), zero_density(), None, fs, 1.0).distortion
        ref = bandpass_drf_closed(fs, 1.0)
        worst = max(worst, abs(got - ref) / ref)
        vals.append(got)
    diffs = np.diff(vals)
    assert worst <= 1e-6
    assert np.max(diffs) > 1e-6 and np.min(diffs) < -1e-6
    print(f"\n[acceptance 2] band-pass closed form: {len(fs_grid)} points, "
          f"worst rel err {worst:.2e}; distortion non-monotone in fs")


def test_criterion_3_decimation_oracle_converges():
    """Decimated discrete conditional spectrum converges to the exact curve."""
    gaps = [l1_gap(bandpass_density(), zero_density(), None, 1.5, M)
            for M in (1, 2, 3, 4)]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9
    assert gaps[3] <= 1e-9
    print(f"\n[acceptance 3] decimation gaps at M=1..4: "
          + ", ".join(f"{g:.2e}" for g in gaps))


def test_criterion_4_window_oracle_matches_mmse():
    """Time-domain window MMSE within 1% of the spectral value."""
    t0 = time.perf_counter()
    cases = [
        ("flat", rect_density(), rect_noise(5.0), 1.0),
        ("triangular", triangular_density(), zero_density(), 2.0),
        ("band-pass", bandpass_density(), zero_density(), 4.0),
    ]
    worst = 0.0
    for name, Sx, Sn, f_nyq in cases:
        sigma2 = Sx.total_power()
        for frac in (0.5, 0.75):
            fs = frac * f_nyq
            exact = mmse_single(Sx, Sn, None, fs)
            approx = finite_window_mmse_average(Sx, Sn, None, fs, K=256, n_phases=16)
            err = abs(approx.value - exact) / sigma2
            worst = max(worst, err)
            assert err <= 0.01, (name, fs, exact, approx.value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[acceptance 4] window oracle K=256: worst err {worst:.2e} "
          f"of source power, {elapsed:.1f}s")


def test_criterion_5_block_oracle_matches_drf():
    """Covariance-only block distortion-rate within 2% of the spectral value."""
    worst = 0.0
    for fs, R in ((0.5, 1.0), (1.0, 1.0)):
        exact = drf_sampled_single(rect_density(), zero_density(), None, fs, R).distortion
        d32 = block_idrf_oracle(rect_density(), zero_density(), None, fs, R, K=32)
        d128 = block_idrf_oracle(rect_density(), zero_density(), None, fs, R, K=128)
        assert abs(d32 - exact) <= 0.05
        assert abs(d128 - exact) <= 0.02
        worst = max(worst, abs(d128 - exact))
    print(f"\n[acceptance 5] block oracle K=128: worst abs err {worst:.2e}")


def test_criterion_6_branch_limit_reaches_d_dagger():
    """Optimal P-branch distortion decreases to the infinite-branch limit."""
    R = 1.0
    gaps = {}
    for fs in (0.96, 1.92, 2.88):
        dd = d_dagger(BIMODAL, zero_density(), fs, R).distortion
        prev = np.inf
        for P in (1, 2, 3, 6):
            dp = drf_sampled_optimal(BIMODAL, zero_density(), fs, P, R).distortion
            assert dp >= dd - 1e-9
            assert dp <= prev + 1e-9
            prev = dp
        gaps[fs] = prev - dd
        assert gaps[fs] <= 0.02 * BIMODAL_POWER
    print("\n[acceptance 6] P=6 vs infinite-branch gap: "
          + ", ".join(f"fs={fs}: {g:.2e}" for fs, g in gaps.items()))


def test_criterion_7_property_battery():
    """Structural invariants on random instances."""
    rng = np.random.default_rng(404)

    # (a) no 2-branch indicator bank beats the designed optimal bank
    fs, P = 0.96, 2
    opt, _ = mmse_optimal(BIMODAL, zero_density(), fs, P)
    for _ in range(50):
        branches = []
        for _ in range(P):
            lo = rng.uniform(-1.6, 1.3)
            hi = lo + rng.uniform(0.05, 0.6)
            branches.append(ComplexGainProfile.indicator(FrequencySet([(lo, hi)])))
        rand = mmse_multi(BIMODAL, zero_density(), SamplerSpec(fs, tuple(branches)))
        assert rand >= opt - 1e-9

    # (b) distortion = estimation error + lossy term, on random spectra
    for _ in range(25):
        Sx = random_density(rng)
        Sn = random_density(rng) if rng.random() < 0.5 else zero_density()
        fs = rng.uniform(0.3, 2.5)
        R = rng.uniform(0.1, 3.0)
        sol = drf_sampled_single(Sx, Sn, None, fs, R)
        m = mmse_single(Sx, Sn, None, fs)
        assert sol.distortion == pytest.approx(m + sol.lossy_part, abs=1e-9)
        assert sol.mmse_part == pytest.approx(m, abs=1e-9)

    # (c) eigensolver reconstruction residuals
    for p in (2, 3, 5):
        a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        m = hermitian(a @ a.conj().T)
        w, v = np.linalg.eigh(m)
        scale = max(1.0, float(np.linalg.norm(m)))
        assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * scale

    # (d) scalar distortion-rate stays between its two hard limits
    for _ in range(50):
        c_u, c_v, rho = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0), rng.uniform(-1, 1)
        c_uv = rho * np.sqrt(c_u * c_v)
        R = rng.uniform(0.0, 5.0)
        d = iid_drf(c_u, c_v, c_uv, R)
        assert c_u - c_uv**2 / c_v - 1e-12 <= d <= c_u + 1e-12

    # (e) above the spectral occupancy, sampling costs nothing
    for _ in range(15):
        Sx = random_density(rng)
        R = rng.uniform(0.2, 3.0)
        fs = 2 * Sx.f_max + rng.uniform(0.01, 1.0)
        a = drf_sampled_single(Sx, zero_density(), None, fs, R).distortion
        b = idrf_stationary(Sx, zero_density(), None, R).distortion
        assert abs(a - b) <= 1e-9
    print("\n[acceptance 7] property battery: optimal-bank dominance, "
          "separation identity, eigensolver residuals, scalar bounds, "
          "super-occupancy reduction")


def test_readme_example_runs_as_stated():
    """The README's library example runs, and each call gives the value its
    comment states (`# 0.5`, `# .distortion = 0.53125`), each name it uses
    imported as written there."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    ns = {}
    exec(block, ns)
    stated = re.findall(r"^(\w+\(.*\))\s+# (?:\.(\w+) = )?([-\d.e]+)$", block, re.M)
    assert len(stated) == 3
    for call, attr, value in stated:
        got = eval(call, ns)
        assert (getattr(got, attr) if attr else got) == pytest.approx(float(value), abs=1e-15)
    print(f"\n[acceptance] README example: {len(stated)} stated values hold")
