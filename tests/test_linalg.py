import numpy as np
import pytest

from subnyq.linalg import (
    NotHermitianError,
    NotPositiveSemidefiniteError,
    hermitian,
    inv_sqrt_psd,
)

RNG = np.random.default_rng(20240817)


def random_hermitian(p, psd=False):
    a = RNG.normal(size=(p, p)) + 1j * RNG.normal(size=(p, p))
    if psd:
        return hermitian(a @ a.conj().T)
    return hermitian((a + a.conj().T) / 2)


def eigenvalues(m):
    return np.linalg.eigh(hermitian(m))[0]


class TestHermitianEig:
    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(3)), [1, 1, 1])

    def test_symmetric_2x2(self):
        assert np.allclose(eigenvalues([[2, 1], [1, 2]]), [1, 3])

    def test_complex_2x2(self):
        assert np.allclose(eigenvalues([[1, 1j], [-1j, 1]]), [0, 2], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian([[0, 1], [0, 0]])

    def test_each_matrix_checked_at_its_own_scale(self):
        # the small matrix is far from Hermitian, but within 1e-12 of the
        # large one's entries: a stack-wide scale would let it pass
        big = 1e6 * np.array([[2.0, 1.0], [1.0, 2.0]])
        small = 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])
        hermitian(big)
        with pytest.raises(NotHermitianError):
            hermitian(np.stack([big, small]))

    def test_trace_matches_eigensum(self):
        for p in (2, 3, 5):
            m = random_hermitian(p)
            assert np.sum(eigenvalues(m)) == pytest.approx(np.trace(m).real, rel=1e-10)

    def test_reconstruction_and_orthonormality(self):
        for p in (2, 4, 6):
            m = random_hermitian(p)
            w, v = np.linalg.eigh(m)
            scale = max(1.0, float(np.linalg.norm(m)))
            assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * scale
            assert np.linalg.norm(v.conj().T @ v - np.eye(p)) <= 1e-10

    def test_char_poly_roots_2x2(self):
        for _ in range(25):
            a = random_hermitian(2)
            tr = np.real(a[0, 0] + a[1, 1])
            det = np.real(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
            disc = np.sqrt(tr * tr / 4 - det)
            roots = sorted((tr / 2 - disc, tr / 2 + disc))
            assert np.allclose(eigenvalues(a), roots, atol=1e-9)

    def test_char_poly_roots_3x3(self):
        for _ in range(25):
            m = random_hermitian(3)
            coeffs = np.real(np.poly(m))
            roots = np.sort(np.roots(coeffs).real)
            assert np.allclose(eigenvalues(m), roots, atol=1e-8)

    def test_unitary_invariance(self):
        for _ in range(10):
            m = random_hermitian(4)
            u = np.linalg.eigh(random_hermitian(4))[1]
            conj = u.conj().T @ m @ u
            assert np.allclose(eigenvalues(conj), eigenvalues(m), atol=1e-9)


class TestInvSqrtPsd:
    def test_diagonal(self):
        r = inv_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]))

    def test_null_direction_dropped(self):
        r = inv_sqrt_psd(np.diag([1.0, 0.0]))
        assert np.allclose(r, np.diag([1.0, 0.0]))

    def test_identity(self):
        r = inv_sqrt_psd(np.eye(4))
        assert np.allclose(r, np.eye(4))

    def test_rejects_negative_definite_direction(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            inv_sqrt_psd(np.diag([1.0, -0.5]))

    def test_projector_property(self):
        for p in (2, 3, 5):
            m = random_hermitian(p, psd=True)
            t = inv_sqrt_psd(m)
            proj = t @ m @ t
            # projector onto range(m): idempotent and Hermitian
            assert np.linalg.norm(proj @ proj - proj) <= 1e-9
            assert np.linalg.norm(proj - proj.conj().T) <= 1e-9

    def test_rank_deficient_projector(self):
        a = RNG.normal(size=(4, 2))
        m = a @ a.T  # rank 2
        t = inv_sqrt_psd(m)
        proj = t @ m @ t
        assert np.trace(proj).real == pytest.approx(2.0, abs=1e-9)

    def test_stack_is_done_matrix_by_matrix(self):
        # a zero matrix, a small rank-deficient one and a large full-rank
        # one; the rank cut is relative to each matrix's own largest
        # eigenvalue, so the small matrix keeps its 1e-15 direction
        small = np.diag([1e-6, 1e-15, 0.0])
        stack = [np.zeros((3, 3)), small, 1e4 * random_hermitian(3, psd=True)]
        got = inv_sqrt_psd(np.stack(stack))
        for m, t in zip(stack, got):
            assert np.array_equal(t, inv_sqrt_psd(m))
        assert np.array_equal(got[0], np.zeros((3, 3)))
        assert np.allclose(got[1], np.diag([1e3, 1e-15 ** -0.5, 0.0]), rtol=1e-12)

    def test_one_bad_matrix_fails_the_stack(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            inv_sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)]))
