"""The exact identities as one property per kind and drift, the lower
trace at benchmark sizes, and the O(m) memory bound of the residuals.  The
inputs the identities read (a, b, their derivative tables and the W_1
functionals) are compared with the reference in ``test_reference.py``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import case_rng, spec_for, w1_functionals
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
from sfc_lab.brownian import BrownianPath, sample_rows, wiener_nodes
from sfc_lab.catalog import DRIFT_KINDS, spec_tables
from sfc_lab.malliavin import (
    block_lemma_residual,
    block_prop1_residual,
    block_prop2_residual,
    block_w1_functionals,
)


@pytest.mark.parametrize("drift", DRIFT_KINDS)
@pytest.mark.parametrize("kind", CATALOG_KINDS)
@settings(max_examples=1)
@given(seed=st.integers(0, 2**32 - 1))
def test_exact_identities_hold(kind, drift, seed):
    # m even up to 256, two orders and a path scale of 1 or 10 from the seed
    # and the case: the gates hold on each of three paths' one-path views at
    # both orders, and every row of a blocked residual is its path's view, to
    # the rounding of terms that grow as the cube of the scale ((W_1^2 - 1) I(e))
    rng = case_rng(seed, kind, drift)
    m, scale = 2 * int(rng.integers(2, 129)), rng.choice([1, 10])
    orders = rng.choice(np.arange(-3, 4), 2, replace=False)
    grid = TimeGrid(m)
    dw, w = np.empty((3, m)), np.empty((3, m + 1))
    sample_rows(seed, 0, dw)
    dw *= scale
    wiener_nodes(dw, w)
    # a drift with a nonzero mean, so the prop2 sides are not both ~0
    spec = spec_for(kind, {} if drift == "none" else {"g": {0: 0.7, 1: 0.5, -1: 0.5},
                                                      "drift": drift})
    tables, same = spec_tables(spec, grid), 1e-13 * scale**3
    e = np.array([eval_basis(n, grid.left_nodes) for n in orders])
    lemma = {name: block_lemma_residual(*f, e, dw) for name, f in block_w1_functionals(w).items()}
    prop1 = block_prop1_residual(tables, e, w, dw)
    prop2 = block_prop2_residual(tables, e, w, dw)
    for r in range(3):
        path = BrownianPath(grid, w[r], dw[r])
        for k, e_nodes in enumerate(e):
            for name, functional in w1_functionals(path).items():
                view = lemma_fdelta_residual(functional, e_nodes, path)
                assert view <= 1e-10 and abs(lemma[name][r, k] - view) <= same, name
            for blocked, residual in ((prop1, prop1_residual), (prop2, prop2_residual)):
                view = residual(spec, e_nodes, path)
                assert view <= 1e-9 and abs(blocked[r, k] - view) <= same, residual.__name__


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
