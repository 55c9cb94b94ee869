"""Induced non-Hermitian Gaussian ensembles.

Samplers for the matrix density p(G) ~ det(G^dag G)^(beta L / 2)
exp(-(beta/2) Tr G^dag G), exact finite-N spectral statistics for beta = 2
(determinantal) and beta = 1 (Pfaffian), their large-N limit laws, random
quantum-channel superoperators whose quadratised spectra obey the same ring
law, and a seeded Monte Carlo harness that cross-checks every analytic
formula against sampled matrices.
"""

from .channels import (
    ChannelSpec,
    Superoperator,
    complementary_kraus,
    dynamical_matrix,
    predicted_ring,
    quadratised_spectrum,
    random_complementary_map,
)
from .complex_ensemble import (
    correlations_Rn,
    density,
    density_edge_profile,
    density_ring_limit,
    hole_probability,
    kernel_KN,
    log_jpdf_complex,
    origin_kernel,
)
from .harness import (
    EXPERIMENTS,
    ExperimentReport,
    ks_two_sample,
    run_mc,
)
from .linalg import (
    eigenvalues,
    pfaffian,
    pfaffian_sign_logmag,
    psd_sqrt,
    real_mask,
    sample_gaussian,
    sample_haar_unitary,
)
from .real_ensemble import (
    correlations_pfaffian,
    density_complex,
    density_real,
    expected_real_count,
    kernel_entries,
    limit_kernels,
    log_jpdf_real_partial,
    skew_inner,
    skew_poly,
)
from .sampling import (
    EnsembleParams,
    QuadratisationError,
    log_density,
    log_normalization,
    quadratise,
    quadratised_draws,
    sample_induced_polar,
    sample_induced_quadratise,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "EnsembleParams",
    "EXPERIMENTS",
    "ExperimentReport",
    "QuadratisationError",
    "Superoperator",
    "complementary_kraus",
    "correlations_Rn",
    "correlations_pfaffian",
    "density",
    "density_complex",
    "density_edge_profile",
    "density_real",
    "density_ring_limit",
    "dynamical_matrix",
    "eigenvalues",
    "expected_real_count",
    "hole_probability",
    "kernel_KN",
    "kernel_entries",
    "ks_two_sample",
    "limit_kernels",
    "log_density",
    "log_jpdf_complex",
    "log_jpdf_real_partial",
    "log_normalization",
    "origin_kernel",
    "pfaffian",
    "pfaffian_sign_logmag",
    "predicted_ring",
    "psd_sqrt",
    "quadratise",
    "quadratised_draws",
    "quadratised_spectrum",
    "random_complementary_map",
    "real_mask",
    "run_mc",
    "sample_gaussian",
    "sample_haar_unitary",
    "sample_induced_polar",
    "sample_induced_quadratise",
    "skew_inner",
    "skew_poly",
]
