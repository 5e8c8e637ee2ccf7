import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dsfc_partials,
    exact_diffusion_sfc,
    path_from_xi,
    spec_for,
    trigpoly_nodes,
    true_fourier_b,
)
from sfc_lab import (
    CATALOG_KINDS,
    DRIFT_KINDS,
    ConfigError,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    TrigPoly,
    constant,
    cosine,
    eval_basis,
    eval_functionals,
    make_process,
    sample_path,
    sfc_range,
    true_fourier_a,
)
from sfc_lab.catalog import (
    block_diffusion,
    block_functionals,
    block_true_fourier_a,
    diffusion_array,
    spec_tables,
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trig_polys())
def test_trigpoly_tables_match_the_basis_loop(case):
    poly, m = case
    grid = TimeGrid(m)
    spec = make_process("DET", {"f": poly, "g": poly, "drift": "det"})
    st_ = spec_tables(spec, grid)
    oracle = trigpoly_nodes(poly, grid.left_nodes)
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
    assert spec.label == "NONCAUSAL_W1"


def test_closed_forms_against_direct_formulas():
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(21, 0), grid)
    w = path.values
    t = grid.nodes
    qv = np.concatenate(([0.0], np.cumsum(np.diff(w) ** 2)))  # sum_{i<k} dW_i^2
    checks = {
        "CONST": (np.ones(64), w),
        "ADAPTED_W": (w[:-1], 0.5 * (w**2 - qv)),
        "NONCAUSAL_W1": (np.full(64, w[-1]), w[-1] * w - t),
        "NONCAUSAL_BRIDGE": (w[-1] - w[:-1], w[-1] * w - t - 0.5 * (w**2 - qv)),
        "NONCAUSAL_MIDPOINT": (np.full(64, w[32]), w[32] * w - np.minimum(t, 0.5)),
    }
    for kind, (a_expect, x_expect) in checks.items():
        pf = eval_functionals(spec_for(kind), path)
        npt.assert_allclose(pf.a_nodes, a_expect, atol=1e-12, err_msg=kind)
        npt.assert_allclose(pf.x_nodes, x_expect, atol=1e-12, err_msg=kind)
        npt.assert_allclose(pf.b_nodes, 0.0, atol=0)
    # DET multiplies increments by f at the left tags
    pf = eval_functionals(spec_for("DET"), path)
    f_nodes = np.cos(2 * np.pi * grid.left_nodes)
    npt.assert_allclose(pf.a_nodes, f_nodes, atol=1e-12)
    npt.assert_allclose(np.diff(pf.x_nodes), f_nodes * path.increments, atol=1e-14)


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
    pf = eval_functionals(spec, path)
    g_nodes = np.cos(2 * np.pi * grid.left_nodes)
    npt.assert_allclose(pf.b_nodes, g_nodes, atol=1e-12)
    drift_part = pf.x_nodes - path.values  # CONST stochastic part is W itself
    expected = np.concatenate([[0.0], np.cumsum(g_nodes) / 32])
    npt.assert_allclose(drift_part, expected, atol=1e-14)


def test_w1_drift_values():
    grid = TimeGrid(32)
    path = sample_path(SeedSpec(22, 1), grid)
    spec = spec_for("CONST", {"g": cosine(), "drift": "w1"})
    pf = eval_functionals(spec, path)
    npt.assert_allclose(
        pf.b_nodes, path.terminal * np.cos(2 * np.pi * grid.left_nodes), atol=1e-12
    )


def test_block_matches_single_path():
    grid = TimeGrid(64)
    paths = [sample_path(SeedSpec(23, i), grid) for i in range(3)]
    spec = spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "det"})
    w_block = np.stack([p.values for p in paths])
    a, b, dx = block_functionals(spec_tables(spec, grid), w_block)
    for i, path in enumerate(paths):
        pf = eval_functionals(spec, path)
        assert np.array_equal(a[i], pf.a_nodes)
        assert np.array_equal(b[i], pf.b_nodes)
        assert np.array_equal(dx[i], pf.dx)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(CATALOG_KINDS),
    drift=st.sampled_from(DRIFT_KINDS),
    rows=st.integers(1, 5),
    m=st.sampled_from([8, 64, 256, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_buffered_forms_equal_the_allocating_forms(kind, drift, rows, m, seed):
    # the sweep's tiles fill reused buffers; every bit must match a fresh call
    spec = spec_for(kind, {} if drift == "none" else {"g": cosine(), "drift": drift})
    tables = spec_tables(spec, TimeGrid(m))
    dw = np.random.default_rng(seed).standard_normal((rows, m)) / np.sqrt(m)
    w = np.zeros((rows, m + 1))
    np.cumsum(dw, axis=1, out=w[:, 1:])
    a, b, dx = block_functionals(tables, w)
    out = tuple(np.full((rows, m), np.nan) for _ in range(3))
    got = block_functionals(tables, w, out=out)
    assert all(g is o for g, o in zip(got, out))
    assert got[0].tobytes() == a.tobytes()
    assert got[1].tobytes() == (b / m).tobytes()  # the drift's share of dX
    assert got[2].tobytes() == dx.tobytes()
    spectrum = np.full((rows, m // 2 + 1), np.nan, dtype=complex)
    for x, order in ((dx, (m - 1) // 2), (dw, 2)):
        assert coefficients(x, order, spectrum).tobytes() == coefficients(x, order).tobytes()


@pytest.mark.parametrize("m", [256, 4096])
@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_true_fourier_a_by_parts_is_the_left_riemann_sum(kind, m):
    # the oracle is the left Riemann sum of a, coefficients(a) / m, whose W_t
    # part is coefficients(W at the left tags) / m; the truth reads that part
    # off the dW coefficients by summation by parts
    M, grid = 4, TimeGrid(m)
    paths = [sample_path(SeedSpec(29, i), grid) for i in range(3)]
    w = np.stack([p.values for p in paths])
    dw = np.stack([p.increments for p in paths])
    tables = spec_tables(spec_for(kind), grid)
    orders = np.arange(-M, M + 1)
    oracle = coefficients(block_diffusion(tables, w), M) / m
    for i_coef in (None, coefficients(dw, M), coefficients(dw, 3 * M), coefficients(dw, M - 1)):
        got = block_true_fourier_a(tables, w, orders, i_coef)
        assert np.abs(got - oracle).max() <= 1e-12, kind
    for p, row in zip(paths, oracle):
        assert abs(true_fourier_a(spec_for(kind), p, -M) - row[0]) <= 1e-12


def test_diffusion_array_values_are_the_block_a_nodes():
    # diffusion_array builds a without X; its nodes are bitwise the path functionals'
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(25, 0), grid)
    for kind in CATALOG_KINDS:
        for extra in ({}, {"g": cosine(), "drift": "w1"}):
            spec = spec_for(kind, extra)
            a = eval_functionals(spec, path).a_nodes
            assert np.array_equal(diffusion_array(spec, path).values, a), kind


def test_derivative_tables():
    grid = TimeGrid(16)
    path = sample_path(SeedSpec(24, 0), grid)
    s = 0.25  # 1/sqrt(16)
    da = diffusion_array(spec_for("CONST"), path).partials.dense()
    npt.assert_allclose(da, 0.0, atol=0)
    da = diffusion_array(spec_for("ADAPTED_W"), path).partials.dense()
    assert da[3, 2] == s and da[3, 3] == 0.0 and da[2, 3] == 0.0
    da = diffusion_array(spec_for("NONCAUSAL_W1"), path).partials.dense()
    npt.assert_allclose(da, s, atol=0)
    da = diffusion_array(spec_for("NONCAUSAL_BRIDGE"), path).partials.dense()
    assert da[3, 3] == s and da[3, 2] == 0.0 and da[2, 3] == s
    da = diffusion_array(spec_for("NONCAUSAL_MIDPOINT"), path).partials.dense()
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
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(25, 1), grid)
    spec = spec_for("CONST", {"g": cosine(), "drift": "det"})
    assert true_fourier_b(spec, path, 1) == 0.5
    assert true_fourier_b(spec, path, 0) == 0.0
    spec = spec_for("CONST", {"g": cosine(), "drift": "w1"})
    assert true_fourier_b(spec, path, 1) == pytest.approx(0.5 * path.terminal)
    assert true_fourier_b(spec_for("CONST"), path, 0) == 0.0


def test_sfc_equals_divergence_for_exact_kinds(paths256):
    # every kind: F_n(dX) = div(a conj(e_n)) + F_n(b dt), exactly on each path
    for kind in CATALOG_KINDS:
        for drift in DRIFT_KINDS:
            extra = {} if drift == "none" else {"g": cosine(), "drift": drift}
            spec = spec_for(kind, extra)
            for path in paths256[:4]:
                cs = sfc_range(eval_functionals(spec, path), 2)
                for n in (0, 1, -2):
                    expect = exact_diffusion_sfc(spec, path, n) + true_fourier_b(spec, path, n)
                    assert abs(cs.entry(n) - expect) <= 1e-12, (kind, drift, n)


def test_dsfc_partials_match_finite_differences():
    # coefficient functionals are at most quadratic in xi, so a central
    # difference is exact up to rounding
    grid = TimeGrid(32)
    base = sample_path(SeedSpec(27, 0), grid)
    h = 1e-5
    for kind in CATALOG_KINDS:
        for extra in ({}, {"g": cosine(), "drift": "det"}, {"g": cosine(), "drift": "w1"}):
            spec = spec_for(kind, extra)
            for n in (0, 2):
                grad = dsfc_partials(spec, base, eval_basis(-n, grid.left_nodes))
                for r in (0, 7, 31):
                    xi_hi = base.xi.copy()
                    xi_hi[r] += h
                    xi_lo = base.xi.copy()
                    xi_lo[r] -= h
                    hi = sfc_range(eval_functionals(spec, path_from_xi(xi_hi, grid)), n).entry(n)
                    lo = sfc_range(eval_functionals(spec, path_from_xi(xi_lo, grid)), n).entry(n)
                    fd = (hi - lo) / (2 * h)
                    assert abs(grad[r] - fd) <= 1e-7, (kind, extra.get("drift"), n, r)


def test_basis_sum_of_diffusion_coefficient():
    # integral of a conj(e_n) over the grid equals the true coefficient for
    # frequency data: left sums of trig polynomials are exact quadrature
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(28, 0), grid)
    spec = spec_for("DET", {"f": cosine(3, 2.0)})
    pf = eval_functionals(spec, path)
    for n in (3, -3, 0, 1):
        quad = complex(np.sum(pf.a_nodes * eval_basis(-n, grid.left_nodes)) / 64)
        assert quad == pytest.approx(complex(true_fourier_a(spec, path, n)), abs=1e-12)
