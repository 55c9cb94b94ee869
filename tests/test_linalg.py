"""Pfaffian, spectra, PSD square roots, Gaussian/Haar sampling."""
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from indg.linalg import (
    EigenConvergenceError,
    eigenvalues,
    pfaffian,
    pfaffian_sign_logmag,
    psd_sqrt,
    real_mask,
    sample_gaussian,
    sample_haar_unitary,
)
from indg.sampling import EnsembleParams, sample_induced_quadratise


def pfaffian_expansion(A):
    """Recursive first-row expansion; exponential cost, fine up to ~10x10."""
    n = A.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    if n == 2:
        return A[0, 1]
    total = 0.0
    for j in range(1, n):
        keep = [k for k in range(1, n) if k != j]
        minor = A[np.ix_(keep, keep)]
        total += (-1.0) ** (j + 1) * A[0, j] * pfaffian_expansion(minor)
    return total


def random_antisymmetric(n, rng, complex_entries=False):
    B = rng.standard_normal((n, n))
    if complex_entries:
        B = B + 1j * rng.standard_normal((n, n))
    return B - B.T


# ---------------------------------------------------------------- pfaffian

def test_pfaffian_sign_convention_2x2():
    assert np.isclose(pfaffian(np.array([[0.0, 1.7], [-1.7, 0.0]])), 1.7)
    assert np.isclose(pfaffian(np.array([[0.0, -2.5], [2.5, 0.0]])), -2.5)


def test_pfaffian_empty():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_pfaffian_vs_expansion_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8):
        for complex_entries in (False, True):
            A = random_antisymmetric(n, rng, complex_entries)
            want = pfaffian_expansion(A)
            assert np.isclose(pfaffian(A), want, rtol=1e-10)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(11)
    for n in (2, 4, 6, 8, 10):
        for complex_entries in (False, True):
            A = random_antisymmetric(n, rng, complex_entries)
            det = np.linalg.det(A)
            assert np.isclose(pfaffian(A) ** 2, det, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.sampled_from([2, 4, 6]))
def test_pfaffian_congruence(seed, n):
    # Pf(B^T A B) = det(B) Pf(A)
    rng = np.random.default_rng(seed)
    A = random_antisymmetric(n, rng)
    B = rng.standard_normal((n, n))
    lhs = pfaffian(B.T @ A @ B)
    rhs = np.linalg.det(B) * pfaffian(A)
    assert np.isclose(lhs, rhs, rtol=1e-8, atol=1e-10)


def test_pfaffian_singular():
    # rank-deficient antisymmetric matrix has Pfaffian zero
    v = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.array([0.5, -1.0, 2.0, 0.0])
    A = np.outer(v, w) - np.outer(w, v)  # rank 2 < 4
    sign, logmag = pfaffian_sign_logmag(A)
    assert logmag == -np.inf
    assert pfaffian(A) == 0.0


def test_pfaffian_sign_logmag_consistency_and_overflow():
    rng = np.random.default_rng(5)
    A = random_antisymmetric(8, rng)
    sign, logmag = pfaffian_sign_logmag(A)
    assert np.isclose(sign * math.exp(logmag), pfaffian(A), rtol=1e-12)
    # a Pfaffian far past float range must still come back factored
    blocks = [np.array([[0.0, 1e200], [-1e200, 0.0]])] * 4
    big = np.zeros((8, 8))
    for i, blk in enumerate(blocks):
        big[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    sign, logmag = pfaffian_sign_logmag(big)
    assert sign == 1.0
    assert np.isclose(logmag, 4 * 200 * math.log(10.0), rtol=1e-12)


def test_pfaffian_input_validation():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))  # odd dimension
    with pytest.raises(ValueError):
        pfaffian(np.ones((2, 2)))  # not antisymmetric
    with pytest.raises(ValueError):
        pfaffian(np.zeros((2, 3)))


# ---------------------------------------------------------------- spectra

def assert_exact_conjugate_pairs(ev):
    # the non-real eigenvalues of a real matrix: as many with y > 0 as with
    # y < 0, each the exact conjugate of one of the others
    upper, lower = ev[ev.imag > 0.0], ev[ev.imag < 0.0]
    assert len(upper) + len(lower) == len(ev) - int(real_mask(ev).sum())
    assert np.array_equal(np.sort_complex(upper.conj()), np.sort_complex(lower))


def test_eigenvalues_beta1_matches_eigvals():
    rng = np.random.default_rng(7)
    for n in (3, 6, 11):
        G = rng.standard_normal((n, n))
        ev = eigenvalues(G, beta=1)
        got = np.sort_complex(ev)
        want = np.sort_complex(np.linalg.eigvals(G))
        assert np.allclose(got, want, atol=1e-8)
        # real-count parity: n_real = N - 2 n_pairs
        assert (int(real_mask(ev).sum()) - n) % 2 == 0
        assert_exact_conjugate_pairs(ev)
        assert np.isclose(ev.sum(), np.trace(G), atol=1e-10)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("count, n", [(33, 20), (4, 128)])
def test_eigenvalues_stack_rows_match_single_calls(beta, count, n):
    # one dgeev call on a stack gives each row the bits of its own call
    rng = np.random.default_rng(count * n + beta)
    G = np.stack([sample_gaussian(n, n, beta, rng) for _ in range(count)])
    ev = eigenvalues(G, beta=beta)
    assert ev.shape == (count, n)
    for j in range(count):
        one = eigenvalues(G[j], beta=beta)
        assert one.shape == (n,)
        assert ev[j].astype(complex).tobytes() == one.astype(complex).tobytes()


@pytest.mark.parametrize("beta", [1, 2])
def test_eigenvalues_does_not_copy_its_stack(beta):
    # a 4 x 128 x 128 stack is 0.5 MiB (beta=1) or 1 MiB (beta=2); a stack of
    # the dtype eigvals takes goes to it as it is, and the finiteness check
    # builds no zero imaginary part, so nothing near a stack's size is held
    rng = np.random.default_rng(11 + beta)
    G = np.stack([sample_gaussian(128, 128, beta, rng) for _ in range(4)])
    eigenvalues(G[:1], beta=beta)
    tracemalloc.start()
    try:
        ev = eigenvalues(G, beta=beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2 ** 20
    assert ev.tobytes() == np.linalg.eigvals(G.copy()).tobytes()


@pytest.mark.parametrize("N, L, draws", [(128, 0, 200), (16, 4, 300)])
def test_eigenvalues_beta1_real_count_matches_schur_blocks(N, L, draws):
    # reference: 1x1 blocks of scipy's real Schur form (dgees), an
    # independent LAPACK route from the dgeev call under test
    import scipy.linalg as sla

    params = EnsembleParams(N=N, L=L, beta=1)
    rng = np.random.default_rng(2011 + N + L)
    for _ in range(draws):
        G = sample_induced_quadratise(params, rng)
        T = sla.schur(G, output="real")[0]
        sub = np.diag(T, -1) != 0.0  # a 2x2 block starts where this is set
        one_by_one = np.ones(N, dtype=bool)
        one_by_one[:-1] &= ~sub
        one_by_one[1:] &= ~sub
        ev = eigenvalues(G, beta=1)
        reals = np.sort(ev.real[real_mask(ev)])
        assert len(reals) == N - 2 * int(sub.sum())
        scale = np.abs(np.diag(T)).max()
        assert np.allclose(reals, np.sort(np.diag(T)[one_by_one]),
                           rtol=0, atol=1e-12 * scale)


def test_eigenvalues_beta1_structured_matrices():
    rng = np.random.default_rng(23)
    # triangular: every eigenvalue real, and exactly the diagonal
    U = np.triu(rng.standard_normal((7, 7)))
    ev = eigenvalues(U, beta=1)
    assert real_mask(ev).all()
    assert np.array_equal(np.sort(ev.real), np.sort(np.diag(U)))
    # symmetric: every eigenvalue real
    for n in (5, 40):
        B = rng.standard_normal((n, n))
        S = B + B.T
        ev = eigenvalues(S, beta=1)
        assert real_mask(ev).all()
        assert np.allclose(np.sort(ev.real), np.linalg.eigvalsh(S), atol=1e-10 * n)
    # 2x2 rotation blocks, hidden by an orthogonal change of basis: no reals
    angles = np.array([0.3, 1.1, 2.0, 2.9])
    R = np.zeros((8, 8))
    for j, t in enumerate(angles):
        R[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[np.cos(t), -np.sin(t)],
                                               [np.sin(t), np.cos(t)]]
    Q = sample_haar_unitary(8, 1, rng)
    ev = eigenvalues(Q @ R @ Q.T, beta=1)
    assert not real_mask(ev).any()
    assert_exact_conjugate_pairs(ev)
    reps = ev[ev.imag > 0.0]
    reps = np.column_stack([reps.real, reps.imag])[np.lexsort((reps.imag, reps.real))]
    want = np.column_stack([np.cos(angles), np.sin(angles)])
    assert np.allclose(reps, want[np.argsort(want[:, 0])], atol=1e-12)
    # Jordan block: one defective eigenvalue, all copies real
    J = 1.5 * np.eye(5) + np.eye(5, k=1)
    ev = eigenvalues(J, beta=1)
    assert real_mask(ev).all()
    assert np.array_equal(ev.real, np.full(5, 1.5))


def test_eigenvalues_one_lapack_call(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rng = np.random.default_rng(29)
    eigenvalues(rng.standard_normal((6, 6)), beta=1)
    eigenvalues(sample_gaussian(6, 6, 2, rng), beta=2)
    assert calls == [(6, 6), (6, 6)]


def test_import_loads_neither_scipy_linalg_nor_special():
    # the sampling path uses numpy's LAPACK only; scipy.linalg would load a
    # second BLAS beside it, and scipy.special waits for the first call that
    # needs it (most of a cold import's time)
    import indg

    code = ("import sys, indg, indg.cli; "
            "print([m in sys.modules for m in ('scipy.linalg', 'scipy.special')])")
    src = os.path.dirname(os.path.dirname(indg.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[False, False]"


def test_eigenvalues_beta2_trace():
    rng = np.random.default_rng(9)
    G = sample_gaussian(20, 20, 2, rng)
    ev = eigenvalues(G, beta=2)
    assert ev.shape == (20,)
    assert np.isclose(ev.sum(), np.trace(G), atol=1e-10)


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues(np.zeros((2, 3)), beta=1)
    with pytest.raises(ValueError):
        eigenvalues(np.array([[1.0, np.inf], [0.0, 1.0]]), beta=1)
    with pytest.raises(ValueError):
        eigenvalues(np.eye(2) * (1 + 1j), beta=1)  # complex input for beta=1
    with pytest.raises(ValueError):
        eigenvalues(np.eye(2), beta=3)
    # the same checks on stacks: every matrix square, every entry finite, real for beta=1
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros((3, 2, 3)), beta=2)
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.zeros(3), beta=2)
    stack = np.stack([np.eye(2)] * 3)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(stack, beta=1)
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]]), beta=2)
    with pytest.raises(ValueError, match="real matrix"):
        eigenvalues(np.stack([np.eye(2), 1j * np.eye(2)]), beta=1)


# ---------------------------------------------------------------- psd_sqrt

def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(13)
    for n, complex_entries in ((5, False), (8, True)):
        B = rng.standard_normal((n, n))
        if complex_entries:
            B = B + 1j * rng.standard_normal((n, n))
        S = B.conj().T @ B
        S = 0.5 * (S + S.conj().T)
        R = psd_sqrt(S)
        assert np.allclose(R @ R, S, atol=1e-10 * np.abs(S).max())
        assert np.allclose(R, R.conj().T, atol=1e-12 * np.abs(R).max())


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ValueError):
        psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))  # negative eigenvalue


# ---------------------------------------------------------------- sampling

def test_sample_gaussian_moments():
    rng = np.random.default_rng(17)
    g1 = sample_gaussian(200, 200, 1, rng)
    assert not np.iscomplexobj(g1)
    assert abs(np.mean(g1 * g1) - 1.0) < 0.02  # E x^2 = 1
    g2 = sample_gaussian(200, 200, 2, rng)
    assert np.iscomplexobj(g2)
    assert abs(np.mean(np.abs(g2) ** 2) - 1.0) < 0.02  # E|x|^2 = 1
    with pytest.raises(ValueError):
        sample_gaussian(0, 3, 1, rng)
    with pytest.raises(ValueError):
        sample_gaussian(3, 3, 4, rng)


def test_haar_unitary_is_unitary_and_unbiased():
    rng = np.random.default_rng(19)
    for beta in (1, 2):
        U = sample_haar_unitary(9, beta, rng)
        assert np.allclose(U.conj().T @ U, np.eye(9), atol=1e-12)
        if beta == 1:
            assert not np.iscomplexobj(U)
    # the R-diagonal phase correction kills the positive-diagonal bias of
    # plain QR; Haar makes E[tr U] = 0
    n, draws = 8, 300
    means = [np.real(np.trace(sample_haar_unitary(n, 2, rng))) for _ in range(draws)]
    assert abs(np.mean(means)) < 4.0 / math.sqrt(2 * draws)
