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


def _raise_first(checks, at=...) -> None:
    """Raises the error of the first of checks, (fails, error) pairs, that fails
    on a matrix at the index at of a stack (by default, anywhere): fails masks
    the matrices that fail it, and error(at) names the first there."""
    for fails, error in checks:
        if fails[at].any():
            raise error(at)


def _hermitian(a) -> tuple[np.ndarray, list]:
    """hermitian on every matrix of a stack, whatever its check finds, and
    that check, as _raise_first takes it."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"need square matrices, got shape {a.shape}")
    ah = np.swapaxes(a.conj(), -1, -2)
    scale = np.abs(a).max(axis=(-2, -1))
    scale = np.where(scale == 0, 1.0, scale)
    fails = np.abs(a - ah).max(axis=(-2, -1)) > 1e-12 * scale
    return (a + ah) / 2.0, [(fails, lambda at: NotHermitianError(
        "matrix is not Hermitian within tolerance"))]


def hermitian(a) -> np.ndarray:
    """(a + a^H) / 2 for a stack of matrices, each checked to be Hermitian.

    A matrix passes if it is Hermitian within 1e-12 of its own largest entry,
    so downstream code never sees asymmetry at the round-off level, and a
    large matrix in the stack does not excuse a small one.
    """
    h, checks = _hermitian(a)
    _raise_first(checks)
    return h


def _inv_sqrt_psd(a) -> tuple[np.ndarray, list]:
    """inv_sqrt_psd on every matrix of a stack, whatever its checks find, and
    those checks in the order it makes them, as _raise_first takes them: the
    input Hermitian, then PSD, then the result Hermitian."""
    h, checks = _hermitian(a)
    w, v = np.linalg.eigh(h)
    top = w[..., -1:]
    # the cut is absolute where no eigenvalue is positive
    cut = DEFAULT_RANK_TOL * np.where(top <= 0, 1.0, top)
    low = w[..., 0] < -cut[..., 0]
    inv = np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    t = (v * inv[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    t, result_checks = _hermitian(np.where(top[..., None] <= 0, 0.0, t))
    return t, checks + [(low, lambda at: NotPositiveSemidefiniteError(
        f"eigenvalue {w[at][..., 0][low[at]][0]} below -{DEFAULT_RANK_TOL} * lambda_max"))
    ] + result_checks


def inv_sqrt_psd(a) -> np.ndarray:
    """Pseudo inverse square root of each PSD matrix in a stack.

    Eigenvalues below DEFAULT_RANK_TOL * lambda_max are treated as the null
    space and mapped to 0, which is what lets rank-deficient branch
    configurations (linearly dependent sampling branches) pass through
    without blowing up.  A matrix with no positive eigenvalue maps to 0.
    """
    t, checks = _inv_sqrt_psd(a)
    _raise_first(checks)
    return t
