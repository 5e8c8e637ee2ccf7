"""Structured derivative tables against their dense form, the exact
identities as properties, the remainder windows against their dense
kernel-table form, and the O(m) memory bound of the residuals."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spec_for, w1_functionals
from sfc_lab import (
    CATALOG_KINDS,
    DRIFT_KINDS,
    DerivativeTable,
    SeedSpec,
    TimeGrid,
    cosine,
    dirichlet_kernel,
    eval_basis,
    eval_functionals,
    iterated_divergence_term,
    lemma_fdelta_residual,
    prop1_residual,
    prop2_residual,
    remainder_terms,
    sample_path,
    true_fourier_a,
)
from sfc_lab.bohr import _direct_terms
from sfc_lab.catalog import diffusion_array, drift_array, spec_tables

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

cases = st.fixed_dictionaries(
    {
        "m": st.integers(2, 128).map(lambda h: 2 * h),
        "kind": st.sampled_from(CATALOG_KINDS),
        "drift": st.sampled_from(DRIFT_KINDS),
        "n": st.integers(-3, 3),
        "seed": st.integers(0, 2**32),
    }
)


def _spec(case):
    # a drift with a nonzero mean, so the prop2 sides are not both ~0
    g = {0: 0.7, 1: 0.5, -1: 0.5}
    extra = {} if case["drift"] == "none" else {"g": g, "drift": case["drift"]}
    return spec_for(case["kind"], extra)


def _tables(case, path):
    """Every table shape the package builds: diffusion, drift, ``e dF``."""
    spec = _spec(case)
    m = path.grid.m
    e = eval_basis(case["n"], path.grid.left_nodes)
    grad = w1_functionals(path)["W_1^2-1"].partials
    return [
        diffusion_array(spec, path).partials,
        drift_array(spec, path).partials,
        DerivativeTable(u=e, v=grad),
        DerivativeTable(u=e, v=grad * 1j, lower=-0.3 / np.sqrt(m)),
    ]


@SETTINGS
@given(cases)
def test_structured_table_equals_dense(case):
    m = case["m"]
    grid = TimeGrid(m)
    path = sample_path(SeedSpec(case["seed"], 0), grid)
    rng = np.random.default_rng(case["seed"])
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(m)
    for table in _tables(case, path):
        dense = table.dense()
        scale = 1.0 + np.max(np.abs(dense))
        tol = 1e-12 * scale * m
        assert np.allclose(table.diag(), np.diag(dense), rtol=0, atol=tol)
        assert np.allclose(table.matvec(x), dense @ x, rtol=0, atol=tol)
        assert np.allclose(table.rmatvec(y), dense.T @ y, rtol=0, atol=tol)


@SETTINGS
@given(cases)
def test_exact_identities_hold(case):
    m = case["m"]
    grid = TimeGrid(m)
    path = sample_path(SeedSpec(case["seed"], 1), grid)
    spec = _spec(case)
    e = eval_basis(case["n"], grid.left_nodes)
    for functional in w1_functionals(path).values():
        assert lemma_fdelta_residual(functional, e, path) <= 1e-10
    assert prop1_residual(spec, e, path) <= 1e-9
    assert prop2_residual(spec, e, path) <= 1e-9


@SETTINGS
@given(cases, st.integers(1, 8))
def test_decomposition_closes(case, N):
    # the residual double integral equals the direct iterated divergence
    m = case["m"]
    n = case["n"]
    if m < 8 * (N + abs(n)):
        return
    grid = TimeGrid(m)
    pf = eval_functionals(_spec(case), sample_path(SeedSpec(case["seed"], 2), grid))
    gap = abs(remainder_terms(pf, n, N).double_wiener - iterated_divergence_term(pf, n, N))
    assert gap <= 1e-9


def _dense_kernel(N, m):
    """``K[i, j] = K_N(t_i - t_j)`` gathered from the 2m - 1 node differences."""
    lags = dirichlet_kernel(N, np.arange(-(m - 1), m) / m).real
    i = np.arange(m)
    return lags[i[:, None] - i[None, :] + m - 1]


def _dense_direct_terms(pf, n, N):
    """Reference for ``bohr._direct_terms``: kernel-weighted sums over the
    dense kernel and the dense derivative tables."""
    m = pf.grid.m
    dw = pf.path.increments
    ebar = eval_basis(-n, pf.grid.left_nodes)
    kernel = _dense_kernel(N, m)
    scale = 1.0 / (2 * N + 1)
    sqrt_m = np.sqrt(m)
    da = diffusion_array(pf.spec, pf.path).partials.dense()
    u = np.sum(da * kernel, axis=1) / sqrt_m * ebar
    diffusion_derivative = scale * np.dot(u, dw)
    v = kernel.T @ (pf.b_nodes * ebar) / m
    dv_diag = kernel.T @ (spec_tables(pf.spec, pf.grid).c * ebar) / m
    drift_wiener = scale * (np.dot(v, dw) - np.sum(dv_diag) / sqrt_m)
    drift_derivative = scale * np.sum(dv_diag) / sqrt_m
    return np.array([diffusion_derivative, drift_wiener, drift_derivative])


def _dense_iterated(pf, n, N):
    """Reference for ``iterated_divergence_term``: both divergences taken
    over the dense kernel and the dense derivative table."""
    m = pf.grid.m
    dw = pf.path.increments
    ebar = eval_basis(-n, pf.grid.left_nodes)
    kernel = _dense_kernel(N, m)
    sqrt_m = np.sqrt(m)
    a = diffusion_array(pf.spec, pf.path)
    da = a.partials.dense()
    weighted = a.values * ebar
    g = (weighted * dw) @ kernel - (np.diag(da) * ebar) @ kernel / sqrt_m
    dg_diag = (ebar * dw) @ (da * kernel) + weighted * np.diag(kernel) / sqrt_m
    return (np.dot(g, dw) - np.sum(dg_diag) / sqrt_m) / (2 * N + 1)


@st.composite
def window_cases(draw):
    m = 2 * draw(st.integers(4, 128))
    top = min(3, m // 8 - 1)
    n = draw(st.integers(-top, top))
    return {
        "m": m,
        "n": n,
        "N": draw(st.integers(1, m // 8 - abs(n))),  # m >= 8 (N + |n|)
        "kind": draw(st.sampled_from(CATALOG_KINDS)),
        "drift": draw(st.sampled_from(DRIFT_KINDS)),
        "seed": draw(st.integers(0, 2**32)),
    }


@SETTINGS
@given(window_cases())
def test_remainder_windows_match_dense_kernel(case):
    m, n, N = case["m"], case["n"], case["N"]
    pf = eval_functionals(_spec(case), sample_path(SeedSpec(case["seed"], 3), TimeGrid(m)))
    direct = _dense_direct_terms(pf, n, N)
    kernel = _dense_kernel(N, m)
    estimate = np.dot(eval_basis(-n, pf.grid.left_nodes) * pf.dx, kernel @ pf.path.increments)
    truth = true_fourier_a(pf.spec, pf.path, n)
    double = estimate / (2 * N + 1) - truth - np.sum(direct)
    terms = remainder_terms(pf, n, N)

    pairs = [
        *zip(_direct_terms(pf, n, N), direct),
        (terms.double_wiener, double),
        (iterated_divergence_term(pf, n, N), _dense_iterated(pf, n, N)),
    ]
    for value, reference in pairs:
        assert abs(value - reference) <= 1e-12 * (1 + abs(reference)), (value, reference)


def test_residual_memory_is_linear_in_m():
    # a dense m x m float64 table is m*m*8 bytes; stay far below it
    m = 4096
    grid = TimeGrid(m)
    path = sample_path(SeedSpec(8, 0), grid)
    e = eval_basis(1, grid.left_nodes)
    functionals = list(w1_functionals(path).values())
    tracemalloc.start()
    try:
        for kind in CATALOG_KINDS:
            for drift in DRIFT_KINDS:
                extra = {} if drift == "none" else {"g": cosine(), "drift": drift}
                spec = spec_for(kind, extra)
                for functional in functionals:
                    lemma_fdelta_residual(functional, e, path)
                prop1_residual(spec, e, path)
                prop2_residual(spec, e, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 / 16, peak


def test_decomposition_memory_is_linear_in_m():
    # the old Toeplitz kernel table alone was m*m*8 bytes (128 MB here)
    m, N = 4096, 256
    path = sample_path(SeedSpec(9, 0), TimeGrid(m))
    tracemalloc.start()
    try:
        for kind in CATALOG_KINDS:
            for drift in DRIFT_KINDS:
                extra = {} if drift == "none" else {"g": cosine(), "drift": drift}
                pf = eval_functionals(spec_for(kind, extra), path)
                for n in (0, 1):
                    remainder_terms(pf, n, N)
                    iterated_divergence_term(pf, n, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8 / 16, peak
