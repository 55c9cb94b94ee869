"""Complementary maps, dynamical matrices, quadratised ring spectra."""
import math

import numpy as np
import pytest

from indg.channels import (
    ChannelSpec,
    Superoperator,
    complementary_kraus,
    dynamical_matrix,
    predicted_ring,
    quadratised_factor,
    quadratised_spectrum,
    random_complementary_map,
)
from indg import sampling
from indg.linalg import eigenvalues
from indg.sampling import QuadratisationError, quadratise


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(d=0, k=3, U=np.eye(0))
    with pytest.raises(ValueError):
        ChannelSpec(d=2, k=2, U=np.eye(3))  # wrong size
    with pytest.raises(ValueError):
        ChannelSpec(d=2, k=2, U=np.ones((4, 4)))  # not unitary
    spec = ChannelSpec(d=2, k=3, U=np.eye(6, dtype=complex))
    assert spec.d == 2 and spec.k == 3
    with pytest.raises(ValueError):
        Superoperator(matrix=np.zeros((3, 4)), spec=spec)  # needs k^2 x d^2


def test_identity_interaction_is_rank_one():
    # with U = identity every Kraus operator maps onto the first environment
    # basis vector: the map is rho -> |nu><nu| Tr rho
    d = k = 4
    spec = ChannelSpec(d=d, k=k, U=np.eye(k * d, dtype=complex))
    A = complementary_kraus(spec)
    phi = Superoperator(
        matrix=np.einsum("asn,atm->stnm", A, A.conj()).reshape(k * k, d * d),
        spec=spec)
    assert np.linalg.matrix_rank(phi.matrix) == 1
    rng = np.random.default_rng(61)
    rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = rho @ rho.conj().T
    sigma = (phi.matrix @ rho.reshape(-1)).reshape(k, k)
    want = np.zeros((k, k), complex)
    want[0, 0] = np.trace(rho)
    assert np.allclose(sigma, want, atol=1e-12)


def test_kraus_identity_and_dynamical_matrix():
    rng = np.random.default_rng(67)
    for d, k in ((3, 5), (5, 3), (4, 4)):
        phi = random_complementary_map(d, k, rng)
        A = complementary_kraus(phi.spec)
        assert A.shape == (d, k, d)
        # trace preservation: sum_a A_a† A_a = 1_d
        gram = np.einsum("asn,asm->nm", A.conj(), A)
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        # dynamical matrix: Hermitian, PSD, rank d, trace d
        D = dynamical_matrix(phi)
        assert D.shape == (k * d, k * d)
        assert np.max(np.abs(D - D.conj().T)) < 1e-10
        w = np.linalg.eigvalsh(D)
        assert w.min() > -1e-10
        assert np.sum(w > 1e-10) == d
        assert abs(w.sum() - d) < 1e-10
        # the reshuffle equals the sum of vec outer products
        V = A.reshape(d, k * d)
        assert np.max(np.abs(D - V.T @ V.conj())) < 1e-12
        # trace preservation at the superoperator level:
        # vec(1_k)† Phi = vec(1_d)†
        left = np.eye(k).reshape(-1).conj() @ phi.matrix
        assert np.max(np.abs(left - np.eye(d).reshape(-1))) < 1e-10


def test_random_map_validation():
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError):
        random_complementary_map(1, 4, rng)
    with pytest.raises(ValueError):
        random_complementary_map(4, 1, rng)


def test_square_case_unit_eigenvalue():
    rng = np.random.default_rng(73)
    phi = random_complementary_map(6, 6, rng)
    lam = quadratised_spectrum(phi)
    assert len(lam) == 36
    assert np.min(np.abs(lam - 1.0)) < 1e-8
    assert np.max(np.abs(lam)) < 1.0 + 1e-8


def test_rectangular_spectrum_sizes():
    rng = np.random.default_rng(79)
    # k > d: the standing superoperator quadratises to d^2 eigenvalues;
    # k < d: its transpose is the standing one, giving k^2
    assert len(quadratised_spectrum(random_complementary_map(3, 5, rng))) == 9
    assert len(quadratised_spectrum(random_complementary_map(5, 3, rng))) == 9


@pytest.mark.parametrize("d,k", [(3, 5), (5, 3), (4, 4)])
def test_quadratised_factor_matches_quadratise(d, k):
    # quadratised_factor's one square_factors reduction, which builds no W,
    # gives the bits of quadratise's G
    phi = random_complementary_map(d, k, np.random.default_rng(10 * d + k))
    m = phi.matrix
    square = m if k == d else quadratise(m if k > d else m.T)[0]
    assert quadratised_factor(phi).tobytes() == square.tobytes()
    assert quadratised_spectrum(phi).tobytes() == eigenvalues(square, beta=2).tobytes()


@pytest.mark.parametrize("d,k", [(3, 5), (5, 3)])
def test_ill_conditioned_map_raises(d, k):
    phi = random_complementary_map(d, k, np.random.default_rng(91))
    m = phi.matrix.copy()
    # a zero row of the standing matrix's top block makes Q1 singular
    if k > d:
        m[0] = 0.0
    else:
        m[:, 0] = 0.0
    singular = Superoperator(matrix=m, spec=phi.spec)
    with pytest.raises(QuadratisationError):
        quadratised_factor(singular)


def test_ill_conditioned_map_is_reduced_once(monkeypatch):
    # square_factors raises on the ill map from its one reduction
    phi = random_complementary_map(3, 5, np.random.default_rng(91))
    m = phi.matrix.copy()
    m[0] = 0.0  # a zero row of the standing matrix's top block
    reduce, calls = sampling._reduce, []

    def counting_reduce(X):
        calls.append(X.shape)
        return reduce(X)

    monkeypatch.setattr(sampling, "_reduce", counting_reduce)
    with pytest.raises(QuadratisationError):
        quadratised_factor(Superoperator(matrix=m, spec=phi.spec))
    assert calls == [(1, 25, 9)]


def test_predicted_ring_radii():
    r_in, r_out = predicted_ring(14, 18)
    assert np.isclose(r_out, 1.0 / math.sqrt(14.0), rtol=1e-14)
    assert np.isclose(r_out, 0.2673, atol=5e-4)
    assert np.isclose(r_in, 0.1680, atol=5e-4)
    r_in, r_out = predicted_ring(14, 10)
    assert np.isclose(r_out, math.sqrt(14.0) / 10.0, rtol=1e-14)
    assert np.isclose(r_out, 0.3742, atol=5e-4)
    assert np.isclose(r_in, 0.2616, atol=5e-4)
    assert predicted_ring(9, 9) == (0.0, 1.0 / 3.0)


def test_superoperator_accepts_a_fortran_ordered_matrix():
    # finiteness is checked on the values, whatever the memory layout
    phi = random_complementary_map(3, 5, np.random.default_rng(12))
    fortran = Superoperator(matrix=np.asfortranarray(phi.matrix), spec=phi.spec)
    assert quadratised_spectrum(fortran).tobytes() == quadratised_spectrum(phi).tobytes()
    m = np.asfortranarray(phi.matrix.copy())
    m[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Superoperator(matrix=m, spec=phi.spec)


def test_superoperator_norm_scaling():
    # E[Tr Phi† Phi] = d (k+1) / k
    rng = np.random.default_rng(83)
    d, k, draws = 10, 25, 40
    traces = [np.sum(np.abs(random_complementary_map(d, k, rng).matrix) ** 2)
              for _ in range(draws)]
    want = d * (k + 1) / k
    assert abs(np.mean(traces) - want) < 0.06 * want


def test_ring_containment():
    rng = np.random.default_rng(89)
    for d, k in ((14, 10), (14, 14), (14, 18)):
        r_in, r_out = predicted_ring(d, k)
        inside = total = 0
        for _ in range(4):
            lam = quadratised_spectrum(random_complementary_map(d, k, rng))
            mod = np.abs(lam)
            mod = np.delete(mod, int(np.argmax(mod)))  # drop the leading eigenvalue
            inside += int(np.sum((mod >= r_in - 0.05) & (mod <= r_out + 0.05)))
            total += mod.size
        assert inside / total >= 0.9, (d, k, inside / total)
