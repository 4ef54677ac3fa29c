"""Checked routines on stacks of small Hermitian matrices for the filter bank.

Every function takes a (..., P, P) stack, one P x P matrix per cell, with P
rarely above 6, and does the whole stack in one numpy call.  What matters is
strict validation of each matrix on its own (hermiticity, positive
semidefiniteness), so that spectral-matrix construction errors surface here
and not three layers up inside a waterfilling sweep.
"""

from __future__ import annotations

import numpy as np

DEFAULT_RANK_TOL = 1e-12


class LinalgError(ValueError):
    pass


class NotHermitianError(LinalgError):
    pass


class NotPositiveSemidefiniteError(LinalgError):
    pass


def hermitian(a) -> np.ndarray:
    """(a + a^H) / 2 for a stack of matrices, each checked to be Hermitian.

    A matrix passes if it is Hermitian within 1e-12 of its own largest entry,
    so downstream code never sees asymmetry at the round-off level, and a
    large matrix in the stack does not excuse a small one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"need square matrices, got shape {a.shape}")
    ah = np.swapaxes(a.conj(), -1, -2)
    scale = np.abs(a).max(axis=(-2, -1))
    scale = np.where(scale == 0, 1.0, scale)
    if np.any(np.abs(a - ah).max(axis=(-2, -1)) > 1e-12 * scale):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return (a + ah) / 2.0


def inv_sqrt_psd(a) -> np.ndarray:
    """Pseudo inverse square root of each PSD matrix in a stack.

    Eigenvalues below DEFAULT_RANK_TOL * lambda_max are treated as the null
    space and mapped to 0, which is what lets rank-deficient branch
    configurations (linearly dependent sampling branches) pass through
    without blowing up.  A matrix with no positive eigenvalue maps to 0.
    """
    w, v = np.linalg.eigh(hermitian(a))
    top = w[..., -1:]
    # the cut is absolute where no eigenvalue is positive
    cut = DEFAULT_RANK_TOL * np.where(top <= 0, 1.0, top)
    low = w[..., :1] < -cut
    if np.any(low):
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {w[..., :1][low][0]} below -{DEFAULT_RANK_TOL} * lambda_max"
        )
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    t = (v * inv[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return hermitian(np.where(top[..., None] <= 0, 0.0, t))
