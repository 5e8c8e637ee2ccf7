"""Structured derivative tables against the reference's dense form, the
exact identities as properties, the lower trace at benchmark sizes, and the
O(m) memory bound of the residuals."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from helpers import spec_for, w1_functionals
from sfc_lab import (
    CATALOG_KINDS,
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
)
from sfc_lab.brownian import sample_rows, wiener_nodes
from sfc_lab.catalog import DRIFT_KINDS, spec_tables
from sfc_lab.malliavin import (
    block_lemma_residual,
    block_prop1_residual,
    block_prop2_residual,
    block_w1_functionals,
)

SETTINGS = settings(max_examples=40)

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


@SETTINGS
@given(cases)
def test_structured_table_equals_dense(case):
    # the catalog's table shapes: the strict lower triangle (ADAPTED_W), the
    # step v (MIDPOINT) and both (BRIDGE)
    m = case["m"]
    grid = TimeGrid(m)
    kinds = ("ADAPTED_W", "NONCAUSAL_BRIDGE", "NONCAUSAL_MIDPOINT")
    rng = np.random.default_rng(case["seed"])
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    y = rng.standard_normal(m)
    # a (3, m) stack of each, as the blocked residuals pass them
    xs = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    ys = rng.standard_normal((3, m))
    for spec in map(spec_for, kinds):
        table, dense = spec_tables(spec, grid).da, ref.table(spec, m)
        scale = 1.0 + np.max(np.abs(dense))
        tol = 1e-12 * scale * m
        assert np.allclose(table.v, np.diag(dense), rtol=0, atol=tol)
        for xi, yi in ((x, y), (xs, ys)):
            assert np.allclose(table.matvec(xi), xi @ dense.T, rtol=0, atol=tol)
            assert np.allclose(table.rmatvec(yi), yi @ dense, rtol=0, atol=tol)


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
@given(cases)
def test_blocked_residuals_match_the_one_path_views(case):
    # every row of a blocked residual is the one-path residual of its path
    m = case["m"]
    grid = TimeGrid(m)
    dw, w = np.empty((3, m)), np.empty((3, m + 1))
    sample_rows(case["seed"], 5, dw)
    wiener_nodes(dw, w)
    spec = _spec(case)
    tables = spec_tables(spec, grid)
    e = np.array([eval_basis(n, grid.left_nodes) for n in (case["n"], 0)])
    lemma = {name: block_lemma_residual(*f, e, dw) for name, f in block_w1_functionals(w).items()}
    prop1 = block_prop1_residual(tables, e, w, dw)
    prop2 = block_prop2_residual(tables, e, w, dw)
    for r in range(3):
        path = sample_path(SeedSpec(case["seed"], 5 + r), grid)
        for k, e_nodes in enumerate(e):
            for name, functional in w1_functionals(path).items():
                view = lemma_fdelta_residual(functional, e_nodes, path)
                assert abs(lemma[name][r, k] - view) <= 1e-13
            assert abs(prop1[r, k] - prop1_residual(spec, e_nodes, path)) <= 1e-13
            assert abs(prop2[r, k] - prop2_residual(spec, e_nodes, path)) <= 1e-13


def test_lower_trace_at_benchmark_sizes():
    # ADAPTED_W has v = 0, so its diffusion derivative is the strict lower
    # triangle alone, (1/m) sum_i conj(e_n(t_i)) dW_i S_i / (2N+1), with S_i
    # the prefix sum of the kernel's lag row K_N(d/m), d = 1 .. i
    m = 4096
    grid = TimeGrid(m)
    drift = {"g": cosine(), "drift": "w1"}
    paths = [sample_path(SeedSpec(10, r), grid) for r in range(3)]
    for N in (4, 16, 256):
        # the kernel's defining sum, a few hundred lags at a time
        chunks = np.array_split(np.arange(1, m) / m, 8)
        lags = np.concatenate([dirichlet_kernel(N, d).real for d in chunks])
        prefix = np.concatenate(([0.0], np.cumsum(lags)))
        for path in paths:
            adapted = eval_functionals(spec_for("ADAPTED_W", drift), path)
            bridge = eval_functionals(spec_for("NONCAUSAL_BRIDGE", drift), path)
            for n in (-4, 0, 1, 4):
                weighted = eval_basis(-n, grid.left_nodes) * path.increments
                ref = np.dot(weighted, prefix) / m / (2 * N + 1)
                value = remainder_terms(adapted, n, N).diffusion_derivative
                assert abs(value - ref) <= 1e-12 * (1 + abs(ref)), (N, n, value, ref)
                residual = remainder_terms(bridge, n, N).double_wiener
                assert abs(residual - iterated_divergence_term(bridge, n, N)) <= 1e-9


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
