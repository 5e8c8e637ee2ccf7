"""Stochastic Fourier coefficients on a discretized Wiener space.

The package simulates processes dX = b dt + a dW on [0, 1] with m equal
cells and left-tagged sums, computes Fourier coefficients of dX and dW
against e_n(t) = exp(2 pi i n t), and recovers the coefficient processes a
and b from those coefficients by local averaging in the frequency domain.
Everything is seeded and deterministic; see ``experiment`` for the contract.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalFailureError
from .grid import TimeGrid, dirichlet_kernel, eval_basis, kernel_l2_identity
from .brownian import BrownianPath, SeedSpec, sample_path
from .malliavin import lemma_fdelta_residual, prop1_residual, prop2_residual
from .catalog import (
    CATALOG_KINDS,
    ProcessSpec,
    TrigPoly,
    cosine,
    eval_functionals,
    make_process,
    true_fourier_a,
)
from .sfc import CoefficientSet, sfc_range, wiener_sfc_range
from .bohr import (
    BohrConfig,
    bohr_product,
    identify_a,
    iterated_divergence_term,
    recover_b,
    remainder_terms,
)
from .experiment import ExperimentConfig, fit_decay, run_convergence

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalFailureError",
    "TimeGrid",
    "eval_basis",
    "dirichlet_kernel",
    "kernel_l2_identity",
    "SeedSpec",
    "BrownianPath",
    "sample_path",
    "lemma_fdelta_residual",
    "prop1_residual",
    "prop2_residual",
    "CATALOG_KINDS",
    "TrigPoly",
    "cosine",
    "ProcessSpec",
    "make_process",
    "eval_functionals",
    "true_fourier_a",
    "CoefficientSet",
    "sfc_range",
    "wiener_sfc_range",
    "BohrConfig",
    "bohr_product",
    "identify_a",
    "recover_b",
    "remainder_terms",
    "iterated_divergence_term",
    "ExperimentConfig",
    "run_convergence",
    "fit_decay",
]
