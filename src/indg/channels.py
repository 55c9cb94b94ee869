"""Random quantum operations: complementary maps and their ring spectra.

A trace-preserving operation on d-dimensional states can be realized by
coupling to a k-dimensional environment in a fixed pure state, applying a
global unitary U in U(kd), and tracing the environment out.  Tracing out the
*system* instead yields the complementary map, which carries d-dimensional
states to k-dimensional ones; its evolution operator is a rectangular
k^2 x d^2 matrix.  Quadratising that matrix gives a square operator whose
eigenvalues fill a predictable annulus, the same ring law the induced
ensemble obeys with M = k^2, N = d^2.

Conventions fixed here: the composite space is ordered system (x) environment
(global row index m*k + s for system index m, environment index s); the
environment starts in the first basis vector; density matrices are vectorized
row-major, so the map rho -> sum_a A_a rho A_a^dag has superoperator
sum_a kron(A_a, conj(A_a)).  The ring prediction is basis-independent; the
convention only pins down raw matrices for reproducibility.  A spectrum is
the complex array linalg.eigenvalues returns, in its order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eigenvalues, sample_haar_unitary
from .sampling import square_factors

__all__ = [
    "ChannelSpec",
    "Superoperator",
    "complementary_kraus",
    "random_complementary_map",
    "dynamical_matrix",
    "quadratised_factor",
    "quadratised_spectrum",
    "predicted_ring",
]


@dataclass(frozen=True)
class ChannelSpec:
    """Input dimension d, environment/output dimension k, global unitary U."""

    d: int
    k: int
    U: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError(f"dimensions must be positive, got d={self.d}, k={self.k}")
        n = self.k * self.d
        U = np.asarray(self.U)
        if U.shape != (n, n):
            raise ValueError(f"U must be {n}x{n} for d={self.d}, k={self.k}, got {U.shape}")
        defect = np.max(np.abs(U.conj().T @ U - np.eye(n)))
        if defect > 1e-10:
            raise ValueError(f"U is not unitary (defect {defect:.2e})")


@dataclass(frozen=True)
class Superoperator:
    """k^2 x d^2 matrix of a complementary map on row-major vectorized states."""

    matrix: np.ndarray
    spec: ChannelSpec

    def __post_init__(self):
        k2, d2 = self.spec.k ** 2, self.spec.d ** 2
        m = np.asarray(self.matrix)
        if m.shape != (k2, d2):
            raise ValueError(f"matrix must be {k2}x{d2}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("superoperator has non-finite entries")


def complementary_kraus(channel):
    """Kraus operators of the complementary map, shape (d, k, d).

    A_a[s, n] = <a, s| U |n, nu> with the environment state |nu> the first
    basis vector; there are d of them (one per traced-out system index) and
    each is k x d.  Unitarity of U gives sum_a A_a^dag A_a = 1_d.
    """
    d, k = channel.d, channel.k
    cols = channel.U[:, np.arange(d) * k]  # columns (n, nu=0), shape (kd, d)
    return np.ascontiguousarray(cols.reshape(d, k, d))


def random_complementary_map(d, k, rng):
    """Draw a Haar-random complementary map as an explicit superoperator.

    The global unitary is Haar on U(kd); the returned matrix represents
    rho -> Tr_S[U (rho (x) |nu><nu|) U^dag] on row-major vectorized states.
    """
    if d < 2 or k < 2:
        raise ValueError(f"need d, k >= 2, got d={d}, k={k}")
    U = sample_haar_unitary(k * d, 2, rng)
    channel = ChannelSpec(d=d, k=k, U=U)
    A = complementary_kraus(channel)
    gram = np.einsum("asn,asm->nm", A.conj(), A)
    defect = np.max(np.abs(gram - np.eye(d)))
    if defect > 1e-10:
        raise np.linalg.LinAlgError(f"Kraus identity resolution violated (defect {defect:.2e})")
    phi = np.einsum("asn,atm->stnm", A, A.conj()).reshape(k * k, d * d)
    return Superoperator(matrix=phi, spec=channel)


def dynamical_matrix(phi):
    """Reshuffle the superoperator into the kd x kd dynamical matrix.

    D[(s,n),(s',n')] = Phi[(s,s'),(n,n')].  For a completely positive map it
    is Hermitian and PSD with rank <= d (it equals sum_a vec(A_a) vec(A_a)^dag
    over the d Kraus operators), and the identity resolution fixes
    Tr D = sum_a ||A_a||_F^2 = d.
    """
    d, k = phi.spec.d, phi.spec.k
    return phi.matrix.reshape(k, k, d, d).transpose(0, 2, 1, 3).reshape(k * d, k * d)


def quadratised_factor(phi):
    """The square matrix whose eigenvalues are phi's quadratised spectrum.

    k > d: the square factor of the standing k^2 x d^2 matrix; k < d: that of
    its transpose (the natural standing reduction); k = d: the matrix is
    already square and is returned as it is.  The factor is square_factors'
    G, one reduction that builds no W; square_factors raises
    QuadratisationError, naming cond(Q1), when the top block is too
    ill-conditioned.
    """
    d, k = phi.spec.d, phi.spec.k
    m = phi.matrix
    return m if k == d else square_factors((m if k > d else m.T)[None])[0]


def quadratised_spectrum(phi):
    """Eigenvalues of the quadratised superoperator, in eigenvalues' (dgeev's) order."""
    return eigenvalues(quadratised_factor(phi), beta=2)


def predicted_ring(d, k):
    """Predicted (r_in, r_out) of the quadratised-spectrum annulus.

    With the physical normalization Tr Phi^dag Phi ~ d the quadratisation
    behaves like an induced-ensemble matrix with M = max(k,d)^2 and
    N = min(k,d)^2, rescaled; for k >= d the radii are
    (sqrt(1 - d^2/k^2)/sqrt(d), 1/sqrt(d)) and for k <= d
    ((sqrt(d)/k) sqrt(1 - k^2/d^2), sqrt(d)/k).  At k = d both give
    (0, 1/sqrt(d)).
    """
    if d < 2 or k < 2:
        raise ValueError(f"need d, k >= 2, got d={d}, k={k}")
    if k >= d:
        r_out = 1.0 / math.sqrt(d)
        r_in = r_out * math.sqrt(1.0 - (d / k) ** 2)
    else:
        r_out = math.sqrt(d) / k
        r_in = r_out * math.sqrt(1.0 - (k / d) ** 2)
    return r_in, r_out
