"""Estimator, drift recovery, and the four-term error decomposition.

Frozen per-path oracles used here (derived by hand, see notes):

* NONCAUSAL_W1, n = 0: the diffusion-derivative remainder is exactly
  W_1 / (2N+1) per path, because the kernel's grid row sums are m.
* closed-form drift recovery is exact for every kind, so a cos(2 pi t)
  drift gives coefficient 1/2 at n = 1 to rounding.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dsfc_partials, spec_for
from sfc_lab import (
    CATALOG_KINDS,
    DRIFT_KINDS,
    BohrConfig,
    CoefficientSet,
    SeedSpec,
    TimeGrid,
    bohr_product,
    cosine,
    eval_basis,
    eval_functionals,
    grid_supports,
    identify_a,
    iterated_divergence_term,
    recover_b,
    remainder_terms,
    sample_path,
    sfc_range,
    synthesize,
    true_fourier_a,
    wiener_sfc_range,
)
from sfc_lab.bohr import band_windows, estimator_gradient, windows
from sfc_lab.catalog import spec_tables
from sfc_lab.sfc import coefficients


def test_bohr_config_validation():
    BohrConfig(N=4, M=2)
    with pytest.raises(ValueError):
        BohrConfig(N=0)
    with pytest.raises(ValueError):
        BohrConfig(N=4, M=-1)
    with pytest.raises(ValueError):
        BohrConfig(N=4, mode="magic")


def test_grid_supports_boundary():
    assert grid_supports(80, 8, 2)
    assert not grid_supports(79, 8, 2)


def test_bohr_product_matches_loop():
    rng = np.random.default_rng(0)
    K, N, n = 7, 4, 2
    f = CoefficientSet(max_order=K, values=rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
    w = CoefficientSet(max_order=N, values=rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1))
    loop = sum(f.entry(n - ell) * w.entry(ell) for ell in range(-N, N + 1)) / (2 * N + 1)
    assert bohr_product(f, w, n, N) == pytest.approx(loop, abs=1e-13)


def _fsum_window(f_row, i_row, n, N):
    """``B_N(n)`` of one row with each product's real and imaginary parts
    summed exactly by ``math.fsum``, and its rounding bound: the kernel's
    running sum of the 2N+1 products may err by ``2N eps sum |t|``, the
    products themselves by an ulp each."""
    K = (len(f_row) - 1) // 2
    L = (len(i_row) - 1) // 2
    terms = [complex(f_row[n - ell + K] * i_row[ell + L]) for ell in range(-N, N + 1)]
    exact = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    bound = 2 * np.finfo(float).eps * sum(abs(t) for t in terms)
    return exact / (2 * N + 1), bound


@pytest.mark.parametrize("rows,K,L", [(1, 20, 16), (4, 19, 16), (7, 40, 9), (2, 260, 256)])
def test_windows_match_an_exactly_summed_oracle(rows, K, L):
    # coefficients of a few thousand in modulus, so the products reach 1e7
    rng = np.random.default_rng(rows)
    f_coef, i_coef = (
        1.5e3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for shape in ((rows, 2 * K + 1), (rows, 2 * L + 1))
    )
    orders, widths = range(-3, 4), [w for w in (1, 2, 5, 9, 16, 64, 256) if w <= L]
    out = windows(f_coef, i_coef, orders, widths)
    for r in range(rows):
        for oi, n in enumerate(orders):
            for wi, N in enumerate(widths):
                exact, bound = _fsum_window(f_coef[r], i_coef[r], n, N)
                assert abs(out[r, oi, wi] - exact) <= bound, (r, n, N)
        # rows never mix, bitwise
        assert np.array_equal(windows(f_coef[r], i_coef[r], orders, widths), out[r])
    # a width's value does not depend on the other widths or on L, bitwise
    for wi, N in enumerate(widths):
        alone = windows(f_coef, i_coef[:, L - N : L + N + 1], orders, [N])
        assert np.array_equal(alone[..., 0], out[..., wi])
    with pytest.raises(ValueError):
        windows(f_coef, i_coef, orders, [L + 1])
    with pytest.raises(ValueError):
        windows(f_coef[:, 1:-1], i_coef, range(K - L - 1, K - L + 1), [1])


def test_band_windows_conjugate_the_nonnegative_orders():
    rng = np.random.default_rng(5)
    dx, dw = rng.standard_normal((2, 3, 128))
    M, widths = 3, [2, 8]
    f_coef, i_coef = coefficients(dx, 8 + M), coefficients(dw, 8)
    out = np.empty((3, M + 1, 17), dtype=complex)
    band = band_windows(f_coef, i_coef, M, widths, out)
    assert np.array_equal(band[:, M:], windows(f_coef, i_coef, range(M + 1), widths))
    assert np.array_equal(band[:, :M], np.conj(band[:, : M : -1]))
    npt.assert_allclose(band, windows(f_coef, i_coef, range(-M, M + 1), widths), rtol=1e-14)


def test_bohr_product_coverage_errors():
    f = CoefficientSet(max_order=3, values=np.zeros(7, dtype=complex))
    w = CoefficientSet(max_order=3, values=np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        bohr_product(f, w, n=1, N=3)  # needs |k| <= 4 on the dX side
    with pytest.raises(ValueError):
        bohr_product(f, w, n=0, N=4)  # needs |l| <= 4 on the dW side
    assert bohr_product(f, w, n=0, N=3) == 0.0


def test_identify_a_requires_fine_grid():
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(41, 0), grid)
    pf = eval_functionals(spec_for("CONST"), path)
    with pytest.raises(ValueError):
        identify_a(pf, BohrConfig(N=8, M=1))  # needs m >= 72


def test_identify_a_const_statistics():
    grid = TimeGrid(256)
    cfg = BohrConfig(N=16, M=2)
    spec = spec_for("CONST")
    ests = []
    for idx in range(200):
        pf = eval_functionals(spec, sample_path(SeedSpec(41, idx), grid))
        ests.append(identify_a(pf, cfg).values)
    ests = np.array(ests)
    mean = ests.mean(axis=0)
    # target coefficients are delta_{n0}
    assert abs(mean[2] - 1.0) < 3 * ests[:, 2].real.std(ddof=1) / np.sqrt(200)
    for oi in (0, 1, 3, 4):
        assert abs(mean[oi]) < 0.05


def test_synthesize_round_trip():
    cs = CoefficientSet(max_order=1, values=np.array([0.5, 2.0, 0.5], dtype=complex))
    t = TimeGrid(32).left_nodes
    npt.assert_allclose(synthesize(cs, 32), 2.0 + np.cos(2 * np.pi * t), atol=1e-12)
    npt.assert_allclose(coefficients(synthesize(cs, 32), 1) / 32, cs.values, atol=1e-12)
    with pytest.raises(ValueError):
        synthesize(cs, 2)


def test_recover_b_closed_form_is_exact(paths256):
    # frozen oracle: cos drift has coefficient 1/2 at |n| = 1, 0 at n = 0
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    cfg = BohrConfig(N=8, M=1, mode="closed_form")
    dummy_a = CoefficientSet(max_order=1, values=np.zeros(3, dtype=complex))
    for path in paths256[:5]:
        pf = eval_functionals(spec, path)
        b_hat = recover_b(pf, dummy_a, cfg)
        assert b_hat.entry(1) == pytest.approx(0.5, abs=1e-12)
        assert b_hat.entry(-1) == pytest.approx(0.5, abs=1e-12)
        assert b_hat.entry(0) == pytest.approx(0.0, abs=1e-12)


def test_recover_b_synthesized_tracks_closed_form():
    grid = TimeGrid(256)
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    cfg_closed = BohrConfig(N=16, M=1, mode="closed_form")
    cfg_synth = BohrConfig(N=16, M=1, mode="synthesized")
    vals = []
    for idx in range(60):
        pf = eval_functionals(spec, sample_path(SeedSpec(43, idx), grid))
        a_hat = identify_a(pf, cfg_synth)
        vals.append(recover_b(pf, a_hat, cfg_synth).entry(1))
    mean = np.mean(vals)
    se = np.std(np.real(vals), ddof=1) / np.sqrt(len(vals))
    assert abs(mean.real - 0.5) <= 4 * se
    # closed form stays exact on the same data
    pf = eval_functionals(spec, sample_path(SeedSpec(43, 0), grid))
    assert recover_b(pf, identify_a(pf, cfg_closed), cfg_closed).entry(1) == pytest.approx(
        0.5, abs=1e-12
    )


def _loop_diagonal(pf, f_set, N, M):
    """Reference for ``_estimator_gradient``: the (q, l) double loop over the
    per-order gradients, ``sum_q e_q(t_i) d a_hat_q / d xi_i``."""
    m = pf.grid.m
    t_left = pf.grid.left_nodes
    w_set = wiener_sfc_range(pf.path, N)
    dF = {
        k: dsfc_partials(pf.spec, pf.path, eval_basis(-k, t_left))
        for k in range(-(N + M), N + M + 1)
    }
    grad = np.zeros((2 * M + 1, m), dtype=complex)
    for ell in range(-N, N + 1):
        ebar = eval_basis(-ell, t_left)
        for qi, q in enumerate(range(-M, M + 1)):
            grad[qi] += dF[q - ell] * w_set.entry(ell)
            grad[qi] += f_set.entry(q - ell) * ebar / np.sqrt(m)
    grad /= 2 * N + 1
    return sum(grad[qi] * eval_basis(q, t_left) for qi, q in enumerate(range(-M, M + 1)))


def _loop_recover_b(pf, a_hat, N, M):
    """Reference for synthesized ``recover_b``: one direct sum per order."""
    m = pf.grid.m
    t_left = pf.grid.left_nodes
    a_nodes = sum(a_hat.entry(n) * eval_basis(n, t_left) for n in range(-M, M + 1))
    f_set = sfc_range(pf, N + M)
    diag = _loop_diagonal(pf, f_set, N, M)
    values = []
    for n in range(-M, M + 1):
        ebar = eval_basis(-n, t_left)
        div_hat = np.dot(a_nodes * ebar, pf.path.increments) - np.dot(diag, ebar) / np.sqrt(m)
        values.append(f_set.entry(n) - div_hat)
    return np.array(values)


@st.composite
def synth_cases(draw):
    N = draw(st.integers(1, 24))
    M = draw(st.integers(0, 32 - N))
    return {
        "N": N,
        "M": M,
        "m": 2 * draw(st.integers(4 * (N + M), 128)),  # even, m >= 8 (N + M)
        "kind": draw(st.sampled_from(CATALOG_KINDS)),
        "drift": draw(st.sampled_from(DRIFT_KINDS)),
        "seed": draw(st.integers(0, 2**32)),
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(synth_cases())
def test_spectral_gradient_matches_loop(case):
    N, M = case["N"], case["M"]
    g = {0: 0.5, 1: 0.5, -1: 0.5}
    extra = {} if case["drift"] == "none" else {"g": g, "drift": case["drift"]}
    path = sample_path(SeedSpec(case["seed"], 0), TimeGrid(case["m"]))
    pf = eval_functionals(spec_for(case["kind"], extra), path)
    cfg = BohrConfig(N=N, M=M, mode="synthesized")
    f_set = sfc_range(pf, N + M)
    reference = _loop_diagonal(pf, f_set, N, M) / np.sqrt(case["m"])
    i_coef = coefficients(path.increments, N)
    st = spec_tables(pf.spec, pf.grid)
    diag = estimator_gradient(st, path.values, path.increments, f_set.values, i_coef)
    assert np.max(np.abs(diag - reference)) <= 1e-12 * (1 + np.max(np.abs(reference)))
    a_hat = identify_a(pf, cfg)
    reference = _loop_recover_b(pf, a_hat, N, M)
    b_hat = recover_b(pf, a_hat, cfg).values
    assert np.max(np.abs(b_hat - reference)) <= 1e-12 * (1 + np.max(np.abs(reference)))


def test_remainder_terms_mesh_guard():
    grid = TimeGrid(64)
    pf = eval_functionals(spec_for("CONST"), sample_path(SeedSpec(44, 1), grid))
    for decompose in (remainder_terms, iterated_divergence_term):
        for n, N in ((0, 16), (-2, 7)):  # need m >= 128 and m >= 72
            with pytest.raises(ValueError, match="grid too coarse"):
                decompose(pf, n, N)


def test_remainder_structure_const(paths256):
    # CONST has zero derivative and zero drift: everything but the double
    # integral vanishes identically
    spec = spec_for("CONST")
    for path in paths256[:4]:
        pf = eval_functionals(spec, path)
        terms = remainder_terms(pf, 0, 16)
        assert terms.diffusion_derivative == 0.0
        assert terms.drift_wiener == 0.0
        assert terms.drift_derivative == 0.0
        direct = iterated_divergence_term(pf, 0, 16)
        assert abs(terms.double_wiener - direct) <= 1e-12


def test_w1_diffusion_derivative_oracle(paths256):
    # frozen oracle: W_1/(2N+1) exactly, per path
    spec = spec_for("NONCAUSAL_W1")
    for path in paths256[:6]:
        pf = eval_functionals(spec, path)
        for N in (4, 16):
            terms = remainder_terms(pf, 0, N)
            assert terms.diffusion_derivative == pytest.approx(
                path.terminal / (2 * N + 1), abs=1e-12
            )


def test_decomposition_exact_for_exact_kinds(paths256):
    # residual double integral must agree with the direct iterated
    # divergence: the decomposition holds term by term, not just in total
    for kind in CATALOG_KINDS:
        for extra in ({}, {"g": cosine(), "drift": "det"}, {"g": cosine(), "drift": "w1"}):
            spec = spec_for(kind, extra)
            for path in paths256[:3]:
                pf = eval_functionals(spec, path)
                for n in (0, 1):
                    terms = remainder_terms(pf, n, 8)
                    direct = iterated_divergence_term(pf, n, 8)
                    assert abs(terms.double_wiener - direct) <= 1e-11, (kind, extra, n)


def test_estimate_decomposes_with_direct_terms(paths256):
    # full non-vacuous identity: estimate - truth = sum of four terms with
    # the double integral computed directly
    for kind in ("CONST", "NONCAUSAL_W1"):
        spec = spec_for(kind, {"g": cosine(), "drift": "w1"})
        for path in paths256[:4]:
            pf = eval_functionals(spec, path)
            for n in (0, 1):
                est = bohr_product(
                    sfc_range(pf, 8 + abs(n)), wiener_sfc_range(path, 8), n, 8
                )
                truth = true_fourier_a(spec, path, n)
                terms = remainder_terms(pf, n, 8)
                direct_total = (
                    iterated_divergence_term(pf, n, 8)
                    + terms.diffusion_derivative
                    + terms.drift_wiener
                    + terms.drift_derivative
                )
                assert abs((est - truth) - direct_total) <= 1e-11, (kind, n)
                assert abs((est - truth) - terms.total) <= 1e-11
