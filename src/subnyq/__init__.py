"""Minimal distortion of rate-limited descriptions of sampled Gaussian sources.

The package computes D(fs, R): the smallest mean squared error achievable
when a stationary Gaussian source, observed through LTI filtering and
additive Gaussian noise, is uniformly sampled at frequency fs (optionally by
a P-branch filter bank) and encoded with R bits per unit time.  It also
designs the optimal pre-sampling filters, evaluates the P -> infinity limit
and several lower bounds, and ships independent numerical oracles for
cross-checking the spectral pipeline.
"""

from .spectra import (
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
from .linalg import (
    LinalgError,
    NotPositiveSemidefiniteError,
    inv_sqrt_psd,
)
from .sampling import (
    EigenCurves,
    SamplerSpec,
    ScalarCurve,
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
from .waterfill import (
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
from .oracle import (
    CovarianceWindow,
    DiscreteSpectrum,
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

__version__ = "0.1.0"
