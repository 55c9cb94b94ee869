"""Matrix primitives: Gaussian/Haar sampling, eigenvalue extraction with
real/complex classification, PSD square root, and Pfaffians of antisymmetric
matrices.

Both ensembles get their spectrum from one LAPACK call, np.linalg.eigvals
(dgeev), on one matrix or a whole stack.  The package keeps a spectrum as
dgeev's complex array, in dgeev's order, one row per matrix; nothing sorts or
splits it.  For a real matrix dgeev reads each eigenvalue off a block of the
real Schur form: a 1x1 block gives imaginary part exactly 0.0, a 2x2 block an
exact conjugate pair x +- iy.  real_mask reads that structure, never an
imaginary-part threshold, so a beta=1 real count is real_mask(ev).sum(-1).

_one_blas_thread pins numpy's bundled OpenBLAS to one thread for a block and
restores the caller's count after it.  zgeqrf, zgemm and dgeev give
different bits at one and two BLAS threads, so run_mc and every indg command
run inside it, and their seeded bytes do not depend on the host's BLAS
setting.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "sample_gaussian",
    "sample_haar_unitary",
    "eigenvalues",
    "real_mask",
    "psd_sqrt",
    "pfaffian",
    "pfaffian_sign_logmag",
]


class EigenConvergenceError(RuntimeError):
    """Eigenvalue iteration failed to converge; carries matrix context."""


@cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Looked up on first use, and only in numpy's own library directory.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS at one thread inside, the caller's count restored after.

    Without the library's thread functions BLAS is left alone.  The count is
    process-wide, so it also holds for other threads while the block runs.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_threads = blas
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def sample_gaussian(rows, cols, beta, rng):
    """i.i.d. Gaussian matrix with density ∝ exp(−(β/2) Tr X†X).

    beta=1: standard normal entries.  beta=2: independent N(0, 1/2) real and
    imaginary parts, so E|x_ij|² = 1.
    """
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be >= 1")
    if beta == 1:
        return rng.standard_normal((rows, cols))
    if beta == 2:
        return (rng.standard_normal((rows, cols))
                + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    raise ValueError(f"beta must be 1 or 2, got {beta}")


def sample_haar_unitary(n, beta, rng):
    """Haar orthogonal (beta=1) or unitary (beta=2) matrix of size n.

    QR of a Gaussian matrix with the R-diagonal phase correction folded into
    Q; without the correction the distribution is not Haar.
    """
    z = sample_gaussian(n, n, beta, rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = np.where(d == 0, 1.0, d / np.abs(d))
    return q * ph


def eigenvalues(G, beta):
    """Eigenvalues of a square matrix or a stack (..., n, n), one dgeev call.

    Returns dgeev's array in dgeev's order, one row per matrix.  beta=1
    requires real matrices; real_mask tells their real eigenvalues apart,
    and the others come as exact conjugate pairs x +- iy.
    """
    G = np.asarray(G)
    n = G.shape[-1]
    if G.ndim < 2 or G.shape[-2] != n:
        raise ValueError("eigenvalues needs a square matrix")
    if not np.all(np.isfinite(G)):
        raise ValueError("matrix entries must be finite")
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    if beta == 1 and np.iscomplexobj(G):
        if np.max(np.abs(G.imag)) != 0.0:
            raise ValueError("beta=1 eigenvalue extraction needs a real matrix")
        G = G.real
    try:
        return np.linalg.eigvals(G.astype(float if beta == 1 else complex, copy=False))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigvals failed on {n}x{n} matrix: {exc}") from exc


def real_mask(ev):
    """The real eigenvalues of a real matrix among dgeev's output: imaginary part exactly 0.0."""
    return ev.imag == 0.0


def psd_sqrt(S):
    """Hermitian square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues slightly below zero (roundoff) are clamped; a genuinely
    negative eigenvalue (< −1e-8·‖S‖) is an error, as is a non-Hermitian input.
    """
    S = np.asarray(S)
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("psd_sqrt needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(S))))
    if np.max(np.abs(S - S.conj().T)) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(S)
    norm = float(np.max(np.abs(w))) if n else 0.0
    if np.any(w < -1e-8 * max(norm, 1.0)):
        raise ValueError(f"matrix has negative eigenvalue {w.min():.3e}; not PSD")
    w = np.clip(w, 0.0, None)
    R = (V * np.sqrt(w)) @ V.conj().T
    if not np.iscomplexobj(S):
        R = R.real
    else:
        # keep exact Hermiticity against roundoff
        R = 0.5 * (R + R.conj().T)
    return R


def _check_antisymmetric(A):
    A = np.asarray(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape != (n, n):
        raise ValueError("pfaffian needs a square matrix")
    if n % 2:
        raise ValueError("pfaffian needs even dimension")
    scale = max(1.0, float(np.max(np.abs(A))) if n else 0.0)
    if n and np.max(np.abs(A + A.T)) > 1e-10 * scale:
        raise ValueError("matrix is not antisymmetric within tolerance")
    return A, n


def pfaffian_sign_logmag(A):
    """Pfaffian of an antisymmetric matrix as (sign, log|Pf|).

    Parlett–Reid tridiagonalization with partial pivoting; the factored return
    survives kernels whose Pfaffian over/underflows as a plain float.  sign is
    ±1 (or 0) for real input, a unit-modulus complex for complex input.
    log-magnitude is −inf for a singular matrix.
    """
    A, n = _check_antisymmetric(A)
    if n == 0:
        return 1.0, 0.0
    A = A.astype(complex if np.iscomplexobj(A) else float).copy()
    sign = 1.0 + 0j if np.iscomplexobj(A) else 1.0
    logmag = 0.0
    for k in range(0, n - 1, 2):
        # pivot: move the largest entry of column k into position (k+1, k)
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp], k:] = A[[kp, k + 1], k:]
            A[k:, [k + 1, kp]] = A[k:, [kp, k + 1]]
            sign = -sign
        piv = A[k, k + 1]
        if piv == 0.0:
            return 0.0 * sign, -np.inf
        logmag += float(np.log(np.abs(piv)))
        sign = sign * (piv / np.abs(piv))
        if k + 2 < n:
            tau = A[k, k + 2:] / piv
            col = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += np.outer(tau, col)
            A[k + 2:, k + 2:] -= np.outer(col, tau)
    if not np.iscomplexobj(A):
        sign = float(np.real(sign))
    return sign, logmag


def pfaffian(A):
    """Pfaffian with the sign convention Pf([[0, a], [−a, 0]]) = a."""
    sign, logmag = pfaffian_sign_logmag(A)
    if logmag == -np.inf:
        return 0.0 if not np.iscomplexobj(np.asarray(A)) else 0.0 + 0j
    return sign * np.exp(logmag)
