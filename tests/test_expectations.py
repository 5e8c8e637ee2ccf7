"""Exact expectations by Gauss-Hermite quadrature.

Every catalog quantity here is a polynomial of degree at most 4 in the
standardized increments, so the 3-point tensor rule of ``gauss_hermite_rows``
gives its expectation exactly: each check is an identity, to rounding, with
no Monte Carlo error."""

import numpy as np
import pytest

from helpers import gauss_hermite_rows, spec_for
from sfc_lab import CATALOG_KINDS, TimeGrid, eval_basis
from sfc_lab.bohr import CLOSED_FORM, RECOVERY_MODES, drift_coefficients, windows
from sfc_lab.catalog import block_diffusion, dx_coefficients, spec_tables
from sfc_lab.malliavin import block_w1_functionals

M_CELLS = 8  # even, so that the midpoint t = 1/2 is a node
G = {0: 0.5, 1: 0.5, -1: 0.5}  # g = 1/2 + cos(2 pi t): F_0(g) = F_1(g) = 1/2


@pytest.fixture(scope="module")
def rows():
    return gauss_hermite_rows(M_CELLS, 3)


@pytest.mark.parametrize("drift", ["none", "det", "w1"])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_the_divergence_is_the_dual_of_the_derivative(rows, kind, drift):
    # E[F div(u)] = E[<DF, u>] for u = a conj(e_n), with the divergence's
    # correction from the spec's derivative table; W_1 and W_1^2 - 1 have
    # mean 0 and do not see a wrong deterministic correction, the constant
    # (E[div(u)] = 0) does
    w, dw, weights = rows
    grid = TimeGrid(M_CELLS)
    st = spec_tables(spec_for(kind, {} if drift == "none" else {"g": G, "drift": drift}), grid)
    a = block_diffusion(st, w)
    functionals = block_w1_functionals(w)
    for n in (0, 1, -2):
        ebar = eval_basis(-n, grid.left_nodes)
        div = (a * dw - st.correction) @ ebar
        for name, (value, partials) in functionals.items():
            pairing = (partials * a) @ ebar / np.sqrt(M_CELLS)
            gap = abs(weights @ (value * div) - weights @ pairing)
            assert gap <= 1e-12, (name, n, gap)


@pytest.mark.parametrize("N, M", [(1, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("drift", ["det", "w1"])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_the_drift_step_recovers_the_mean_drift_coefficient(rows, kind, drift, N, M):
    # E[b_n] = E[F_n(b)]: 1/2 at n = 0, 1 for b = g, 0 for b = W_1 g; the
    # synthesized correction is a divergence, whose mean is 0
    _, dw, weights = rows
    st = spec_tables(spec_for(kind, {"g": G, "drift": drift}), TimeGrid(M_CELLS))
    L = max(N + M, 2 * M)
    stochastic = np.empty((len(dw), M + 1), dtype=complex)
    i_coef, terms, f_coef = dx_coefficients(st, dw, L, N + M, stochastic=stochastic)
    a_hat = windows(f_coef, i_coef[:, L - N : L + N + 1], range(M + 1), [N])[..., 0]
    target = np.array([0.5, 0.5])[: M + 1] if drift == "det" else np.zeros(M + 1)
    for mode in RECOVERY_MODES:
        b = drift_coefficients(st, mode, terms, dw, a_hat, f_coef, i_coef,
                               stochastic=stochastic if mode == CLOSED_FORM else None)
        gap = np.max(np.abs(weights @ b - target))
        assert gap <= 1e-12, (mode, gap)
