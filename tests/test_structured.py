"""Structured derivative tables against their dense form, the exact
identities as properties, and the O(m) memory bound of the residuals."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spec_for, w1_functionals
from sfc_lab import (
    CATALOG_KINDS,
    DRIFT_KINDS,
    EXACT_ALGEBRA_KINDS,
    DerivativeTable,
    SeedSpec,
    TimeGrid,
    cosine,
    eval_basis,
    eval_functionals,
    iterated_divergence_term,
    kernel_difference_table,
    lemma_fdelta_residual,
    prop1_residual,
    prop2_residual,
    remainder_terms,
    sample_path,
)
from sfc_lab.catalog import diffusion_array, drift_array

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
    kernel = kernel_difference_table(max(1, m // 16), grid)
    for table in _tables(case, path):
        dense = table.dense()
        scale = 1.0 + np.max(np.abs(dense))
        tol = 1e-12 * scale * m
        assert np.allclose(table.diag(), np.diag(dense), rtol=0, atol=tol)
        assert np.allclose(table.matvec(x), dense @ x, rtol=0, atol=tol)
        assert np.allclose(table.rmatvec(y), dense.T @ y, rtol=0, atol=tol)
        ktol = tol * (1.0 + np.max(np.abs(kernel)))
        rows = np.einsum("ij,ij->i", dense, kernel)
        assert np.allclose(table.kernel_row_sums(kernel), rows, rtol=0, atol=ktol)
        cols = np.einsum("i,ij->j", y, dense * kernel)
        assert np.allclose(table.kernel_col_sums(kernel, y), cols, rtol=0, atol=ktol)


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
    # for the kinds whose algebra is exact (alpha == 0)
    m = case["m"]
    n = case["n"]
    if case["kind"] not in EXACT_ALGEBRA_KINDS or m < 8 * (N + abs(n)):
        return
    grid = TimeGrid(m)
    pf = eval_functionals(_spec(case), sample_path(SeedSpec(case["seed"], 2), grid))
    gap = abs(remainder_terms(pf, n, N).double_wiener - iterated_divergence_term(pf, n, N))
    assert gap <= 1e-9


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
