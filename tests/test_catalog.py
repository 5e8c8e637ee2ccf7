import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from helpers import path_from_xi, spec_for
from sfc_lab import (
    CATALOG_KINDS,
    ConfigError,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    TrigPoly,
    cosine,
    eval_functionals,
    make_process,
    sample_path,
    true_fourier_a,
)
from sfc_lab.bohr import _drift_plan
from sfc_lab.brownian import substream
from sfc_lab.catalog import (
    DRIFT_KINDS,
    KIND_RECORDS,
    block_diffusion,
    block_drift,
    block_true_fourier_a,
    constant,
    dx_coefficients,
    spec_tables,
    w_terms,
)
from sfc_lab.sfc import coefficients


def test_trigpoly_basics():
    poly = cosine(2, 3.0)
    assert poly.coeff(2) == 1.5
    assert poly.coeff(-2) == 1.5
    assert poly.coeff(5) == 0.0
    assert poly.max_freq == 2
    for m in (5, 9, 16):  # the nodes at the left tags, odd and even m
        grid = TimeGrid(m)
        nodes = spec_tables(make_process("DET", {"f": poly}), grid).f
        npt.assert_allclose(nodes, 3.0 * np.cos(4 * np.pi * grid.left_nodes), rtol=0, atol=1e-12)
    assert constant(2.0).max_freq == 0
    with pytest.raises(ConfigError, match="grid too coarse for f"):
        spec_tables(make_process("DET", {"f": poly}), TimeGrid(4))


@st.composite
def trig_polys(draw):
    K = draw(st.integers(0, 12))
    parts = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    coeffs = {0: draw(parts)}
    for k in range(1, K + 1):
        c = complex(draw(parts), draw(parts))
        coeffs[k], coeffs[-k] = c, c.conjugate()
    m = draw(st.integers(max(2, 2 * K + 1), 2 * K + 40))  # odd and even, m > 2K
    return TrigPoly.from_mapping(coeffs), m


@settings(max_examples=60)
@given(trig_polys())
def test_trigpoly_tables_match_the_basis_loop(case):
    poly, m = case
    grid = TimeGrid(m)
    spec = make_process("DET", {"f": poly, "g": poly, "drift": "det"})
    st_ = spec_tables(spec, grid)
    oracle = ref.nodes(poly, m)
    tol = 1e-12 * (1 + sum(abs(c) for _, c in poly.coeffs))
    assert np.max(np.abs(st_.f - oracle)) <= tol
    assert np.max(np.abs(st_.g - oracle)) <= tol


def test_trigpoly_requires_conjugate_symmetry():
    with pytest.raises(ConfigError):
        TrigPoly.from_mapping({1: 1.0})  # missing the -1 partner
    # symmetric data is fine, including complex pairs
    TrigPoly.from_mapping({1: 0.5 + 0.25j, -1: 0.5 - 0.25j})


def test_spec_validation():
    with pytest.raises(ConfigError):
        make_process("NOPE")
    with pytest.raises(ConfigError):
        make_process("DET")  # f required
    with pytest.raises(ConfigError):
        make_process("CONST", {"f": cosine()})  # f forbidden off DET
    with pytest.raises(ConfigError):
        make_process("CONST", {"drift": "det"})  # g required
    with pytest.raises(ConfigError):
        ProcessSpec(kind="CONST", g=cosine())  # g without a drift kind
    with pytest.raises(ConfigError):
        make_process("CONST", {"bogus": 1})
    spec = make_process("NONCAUSAL_W1", {"g": cosine(), "drift": "w1"})
    assert spec.kind == "NONCAUSAL_W1"


def test_closed_forms_against_direct_formulas():
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(21, 0), grid)
    w = path.values
    t = np.arange(65) / 64
    qv = np.concatenate(([0.0], np.cumsum(np.diff(w) ** 2)))  # sum_{i<k} dW_i^2
    checks = {
        "CONST": (np.ones(64), w),
        "ADAPTED_W": (w[:-1], 0.5 * (w**2 - qv)),
        "NONCAUSAL_W1": (np.full(64, w[-1]), w[-1] * w - t),
        "NONCAUSAL_BRIDGE": (w[-1] - w[:-1], w[-1] * w - t - 0.5 * (w**2 - qv)),
        "NONCAUSAL_MIDPOINT": (np.full(64, w[32]), w[32] * w - np.minimum(t, 0.5)),
    }
    for kind, (a_expect, x_expect) in checks.items():
        spec = spec_for(kind)
        tables = spec_tables(spec, grid)
        npt.assert_allclose(block_diffusion(tables, w), a_expect, atol=1e-12, err_msg=kind)
        dx = ref.dx(spec, w, path.increments)
        npt.assert_allclose(np.cumsum(dx), x_expect[1:], atol=1e-12, err_msg=kind)
        npt.assert_allclose(block_drift(tables, w), 0.0, atol=0)
    # DET multiplies increments by f at the left tags
    tables = spec_tables(spec_for("DET"), grid)
    f_nodes = np.cos(2 * np.pi * grid.left_nodes)
    npt.assert_allclose(block_diffusion(tables, w), f_nodes, atol=1e-12)
    npt.assert_allclose(ref.dx(spec_for("DET"), w, path.increments), f_nodes * path.increments,
                        atol=1e-14)


def test_midpoint_requires_even_m():
    grid = TimeGrid(63)
    path = sample_path(SeedSpec(21, 1), grid)
    with pytest.raises(ConfigError):
        eval_functionals(spec_for("NONCAUSAL_MIDPOINT"), path)


def test_trig_table_needs_resolving_grid():
    grid = TimeGrid(8)
    path = sample_path(SeedSpec(21, 2), grid)
    spec = spec_for("DET", {"f": cosine(4)})  # max_freq 4, m = 8 cannot resolve
    with pytest.raises(ConfigError):
        eval_functionals(spec, path)


def test_array_table_must_match_grid():
    grid = TimeGrid(16)
    path = sample_path(SeedSpec(21, 3), grid)
    spec = spec_for("DET", {"f": np.ones(8)})
    with pytest.raises(ConfigError):
        eval_functionals(spec, path)


def test_drift_prefix_is_left_riemann():
    grid = TimeGrid(32)
    path = sample_path(SeedSpec(22, 0), grid)
    spec = spec_for("CONST", {"g": cosine(), "drift": "det"})
    g_nodes = np.cos(2 * np.pi * grid.left_nodes)
    npt.assert_allclose(block_drift(spec_tables(spec, grid), path.values), g_nodes, atol=1e-12)
    # CONST's stochastic part is W itself
    drift_part = np.cumsum(ref.dx(spec, path.values, path.increments)) - path.values[1:]
    expected = np.cumsum(g_nodes) / 32
    npt.assert_allclose(drift_part, expected, atol=1e-14)


def test_w1_drift_values():
    grid = TimeGrid(32)
    path = sample_path(SeedSpec(22, 1), grid)
    tables = spec_tables(spec_for("CONST", {"g": cosine(), "drift": "w1"}), grid)
    npt.assert_allclose(
        block_drift(tables, path.values), path.terminal * np.cos(2 * np.pi * grid.left_nodes),
        atol=1e-12,
    )


@settings(max_examples=60)
@given(
    kind=st.sampled_from(CATALOG_KINDS),
    drift=st.sampled_from(DRIFT_KINDS),
    rows=st.integers(1, 4),
    m=st.sampled_from([8, 64, 100, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_w_terms_are_the_reads_of_w_within_rounding(kind, drift, rows, m, seed):
    # beta W_tau and W_1 are sums of dW, where W's nodes are one running sum:
    # the two differ by rounding alone, at most 4 eps sum_i |dW_i| a row
    spec = spec_for(kind, {} if drift == "none" else {"g": cosine(), "drift": drift})
    tables = spec_tables(spec, TimeGrid(m))
    dw = np.random.default_rng(seed).standard_normal((rows, m)) / np.sqrt(m)
    w = np.zeros((rows, m + 1))
    np.cumsum(dw, axis=1, out=w[:, 1:])
    w_tau, w_1, total = w_terms(tables, dw, w)
    bound = 4 * np.finfo(float).eps * np.abs(dw).sum(axis=1)
    rec = KIND_RECORDS[kind]
    assert np.all(np.abs(w_tau - rec.beta * w[:, tables.tau]) <= abs(rec.beta) * bound)
    assert np.all(np.abs(w_1 - w[:, -1]) <= bound)
    if rec.alpha:
        assert total.tobytes() == w[:, :-1].sum(axis=1).tobytes()
    else:
        assert total is None and w_terms(tables, dw)[2] is None  # W is not read


def _bytes(a, row=None):
    """The bytes of an array, of a tuple of W's terms (None for a term not
    read), or of one row of either."""
    if isinstance(a, tuple):
        return tuple(_bytes(t, row) for t in a)
    return None if a is None else np.asarray(a if row is None else a[row]).tobytes()


@settings(max_examples=60)
@given(
    kind=st.sampled_from(CATALOG_KINDS),
    drift=st.sampled_from(DRIFT_KINDS),
    rows=st.integers(1, 5),
    m=st.sampled_from([8, 64, 256, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_buffered_forms_equal_the_allocating_forms(kind, drift, rows, m, seed):
    # the sweep's tiles fill reused buffers, W in the scratch's real view and
    # (f + alpha W) dW in dW's rows, and the one-path views take one row;
    # every bit must match a fresh call on the block, which leaves dW as it was
    spec = spec_for(kind, {} if drift == "none" else {"g": cosine(), "drift": drift})
    tables = spec_tables(spec, TimeGrid(m))
    dw = np.random.default_rng(seed).standard_normal((rows, m)) / np.sqrt(m)
    K, L = (m - 1) // 4, (m - 1) // 2
    stochastic, kept = np.empty((2, rows, 2), dtype=complex)
    before = dw.tobytes()
    fresh = dx_coefficients(tables, dw, L, K, stochastic=kept)
    assert dw.tobytes() == before
    x, buffer = dw.copy(), np.full(rows * (m // 2 + 1), np.nan, dtype=complex)
    got = dx_coefficients(tables, x, L, K, x=x, buffer=buffer, stochastic=stochastic)
    assert [_bytes(a) for a in got] == [_bytes(a) for a in fresh]
    assert stochastic.tobytes() == kept.tobytes()
    assert got[2].T.flags.c_contiguous  # order-major, as coefficients stores its rows
    for r in range(rows):
        one = dx_coefficients(tables, dw[r], L, K)
        assert [_bytes(a) for a in one] == [_bytes(a, r) for a in fresh]
    spectrum = np.full((rows, m // 2 + 1), np.nan, dtype=complex)
    for order in ((m - 1) // 2, 2):
        assert coefficients(dw, order, spectrum).tobytes() == coefficients(dw, order).tobytes()


@pytest.mark.parametrize("m", [256, 4096])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_true_fourier_a_by_parts_is_the_left_riemann_sum(kind, m):
    # the truth reads the W_t part of a's left Riemann sum off the dW
    # coefficients by summation by parts; the reference sums a conj(e_n) itself
    M, grid, spec = 4, TimeGrid(m), spec_for(kind)
    paths = [sample_path(SeedSpec(29, i), grid) for i in range(3)]
    w = np.stack([p.values for p in paths])
    dw = np.stack([p.increments for p in paths])
    tables = spec_tables(spec, grid)
    orders = np.arange(-M, M + 1)
    oracle = np.array([ref.truth(spec, p.values, orders) for p in paths])
    terms = w_terms(tables, dw, w)
    for i_coef in (coefficients(dw, M), coefficients(dw, 3 * M)):
        got = block_true_fourier_a(tables, terms, orders, i_coef)
        assert np.abs(got - oracle).max() <= 1e-12, kind
    if KIND_RECORDS[kind].alpha:  # the W_t term reads I at every order
        with pytest.raises(ValueError, match=r"cover \|l\| <= 3; order 4 needs more"):
            block_true_fourier_a(tables, terms, orders, coefficients(dw, M - 1))
    for p, row in zip(paths, oracle):
        assert abs(true_fourier_a(spec, p, -M) - row[0]) <= 1e-12


def test_spec_tables_are_built_once_per_spec_and_grid():
    spec = spec_for("NONCAUSAL_MIDPOINT", {"g": cosine(), "drift": "w1"})
    tables = spec_tables(spec, TimeGrid(64))
    assert spec_tables(spec, TimeGrid(64)) is tables
    path = sample_path(SeedSpec(26, 0), TimeGrid(64))
    assert eval_functionals(spec, path).tables is tables
    other = spec_tables(spec, TimeGrid(128))
    assert other is not tables and other.grid.m == 128
    assert spec_tables(spec, TimeGrid(64)) is tables
    # an equal spec is another spec: it builds its own tables
    twin = spec_for("NONCAUSAL_MIDPOINT", {"g": cosine(), "drift": "w1"})
    assert spec_tables(twin, TimeGrid(64)) is not tables
    # a node table on the wrong grid fails on every call; no failure is kept
    nodes = make_process("DET", {"f": np.ones(16)})
    for _ in range(2):
        with pytest.raises(ConfigError, match="length 16 but the path grid has m=32"):
            spec_tables(nodes, TimeGrid(32))
    assert spec_tables(nodes, TimeGrid(16)).f.shape == (16,)


def test_per_run_caches_key_on_the_tables_and_their_arguments():
    # the truth's order terms and the drift step's plans are lru caches over
    # the tables, which hash by identity, and hashable arguments
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(31, 0), grid)
    w, i_coef = path.values, coefficients(path.increments, 4)
    node_f = np.random.default_rng(4).standard_normal(64)
    for spec in (make_process("DET", {"f": node_f}), spec_for("NONCAUSAL_BRIDGE")):
        tables = spec_tables(spec, grid)
        forms = (list(range(-3, 5)), tuple(range(-3, 5)), range(-3, 5), np.arange(-3, 5))
        terms = w_terms(tables, path.increments, w)
        first, *rest = (block_true_fourier_a(tables, terms, orders, i_coef) for orders in forms)
        assert all(other.tobytes() == first.tobytes() for other in rest)
    # two DET specs on one grid and orders: each truth is its own f's
    for k in (1, 2):
        tables = spec_tables(make_process("DET", {"f": cosine(k)}), grid)
        terms = w_terms(tables, path.increments, w)
        npt.assert_array_equal(block_true_fourier_a(tables, terms, (0, 1, 2), i_coef),
                               [0.5 if n == k else 0.0 for n in (0, 1, 2)])
    # two drift specs at one N and M: each plan holds its own F(c)
    for k in (1, 2):
        tables = spec_tables(spec_for("NONCAUSAL_BRIDGE", {"g": cosine(k), "drift": "w1"}), grid)
        plan = _drift_plan(tables, 4, 2)
        assert _drift_plan(tables, 4, 2) is plan
        npt.assert_array_equal(plan[1], coefficients(tables.c, 6))


def test_per_run_caches_let_dropped_specs_go():
    # each cache entry keeps its tables and spec alive; 20 dropped specs must
    # not cost much more than one
    grid = TimeGrid(8192)
    path = sample_path(SeedSpec(32, 0), grid)
    rng = np.random.default_rng(5)
    held = []
    tracemalloc.start()
    try:
        for _ in range(20):
            spec = make_process("DET", {"f": rng.standard_normal(8192),
                                        "g": rng.standard_normal(8192), "drift": "w1"})
            true_fourier_a(spec, path, 1)
            _drift_plan(spec_tables(spec, grid), 64, 4)
            del spec
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[-1] <= 3 * held[0], held


def test_constant_tables_are_exact_at_every_m():
    # irfft([c], m) * m misses c by an ulp at many m that are not powers of two
    for m in range(2, 5000):
        nodes = spec_tables(make_process("CONST"), TimeGrid(m)).f
        assert np.all(nodes == 1.0), m


def test_derivative_tables():
    # the package's tables are the reference's, built from the record
    grid = TimeGrid(16)
    s = 0.25  # 1/sqrt(16)
    dense = {}
    for kind in CATALOG_KINDS:
        table, dense[kind] = spec_tables(spec_for(kind), grid).da, ref.table(spec_for(kind), 16)
        npt.assert_array_equal(table.rmatvec(np.eye(16)), dense[kind], err_msg=kind)
        npt.assert_array_equal(table.matvec(np.eye(16)), dense[kind].T, err_msg=kind)
    npt.assert_allclose(dense["CONST"], 0.0, atol=0)
    da = dense["ADAPTED_W"]
    assert da[3, 2] == s and da[3, 3] == 0.0 and da[2, 3] == 0.0
    npt.assert_allclose(dense["NONCAUSAL_W1"], s, atol=0)
    da = dense["NONCAUSAL_BRIDGE"]
    assert da[3, 3] == s and da[3, 2] == 0.0 and da[2, 3] == s
    da = dense["NONCAUSAL_MIDPOINT"]
    assert da[0, 7] == s and da[0, 8] == 0.0  # only directions r < m/2 matter
    c = spec_tables(spec_for("CONST", {"g": constant(2.0), "drift": "w1"}), grid).c
    npt.assert_allclose(c, 2.0 * s, atol=1e-14)
    c = spec_tables(spec_for("CONST", {"g": constant(2.0), "drift": "det"}), grid).c
    npt.assert_allclose(c, 0.0, atol=0)


def test_true_fourier_a_values():
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(25, 0), grid)
    assert true_fourier_a(spec_for("CONST"), path, 0) == 1.0
    assert true_fourier_a(spec_for("CONST"), path, 2) == 0.0
    assert true_fourier_a(spec_for("DET"), path, 1) == 0.5  # cosine coefficient
    assert true_fourier_a(spec_for("NONCAUSAL_W1"), path, 0) == pytest.approx(path.terminal)
    assert true_fourier_a(spec_for("NONCAUSAL_W1"), path, 1) == 0.0
    assert true_fourier_a(spec_for("NONCAUSAL_MIDPOINT"), path, 0) == pytest.approx(
        path.values[32]
    )
    # path-dependent kinds take the left Riemann sum along the path
    val = true_fourier_a(spec_for("ADAPTED_W"), path, 0)
    assert val == pytest.approx(np.sum(path.values[:-1]) / 64, abs=1e-12)


def test_true_fourier_b_values():
    w = sample_path(SeedSpec(25, 1), TimeGrid(64)).values
    spec = spec_for("CONST", {"g": cosine(), "drift": "det"})
    assert ref.true_b(spec, w, 1) == pytest.approx(0.5, abs=1e-15)
    assert ref.true_b(spec, w, 0) == pytest.approx(0.0, abs=1e-15)
    spec = spec_for("CONST", {"g": cosine(), "drift": "w1"})
    assert ref.true_b(spec, w, 1) == pytest.approx(0.5 * w[-1], abs=1e-15)
    assert ref.true_b(spec_for("CONST"), w, 0) == 0.0


def test_dsfc_partials_match_finite_differences():
    # the reference's gradient of F_n(dX): coefficient functionals are at
    # most quadratic in xi, so a central difference is exact up to rounding
    grid = TimeGrid(32)
    base = sample_path(SeedSpec(27, 0), grid)
    xi = substream(SeedSpec(27, 0)).standard_normal(32)  # base's standardized increments
    h = 1e-5
    for kind in CATALOG_KINDS:
        for extra in ({}, {"g": cosine(), "drift": "det"}, {"g": cosine(), "drift": "w1"}):
            spec = spec_for(kind, extra)
            gradient = ref.dx_gradient(spec, base.values, base.increments)
            for n in (0, 2):
                grad = ref.transform(gradient, n)
                for r in (0, 7, 31):
                    xi_hi = xi.copy()
                    xi_hi[r] += h
                    xi_lo = xi.copy()
                    xi_lo[r] -= h
                    hi, lo = (ref.transform(ref.dx(spec, p.values, p.increments), n)
                              for p in (path_from_xi(x, grid) for x in (xi_hi, xi_lo)))
                    fd = (hi - lo) / (2 * h)
                    assert abs(grad[r] - fd) <= 1e-7, (kind, extra.get("drift"), n, r)
