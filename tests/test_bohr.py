"""Estimator, drift recovery, and the four-term error decomposition.

Frozen per-path oracles used here (derived by hand, see notes):

* NONCAUSAL_W1, n = 0: the diffusion-derivative remainder is exactly
  W_1 / (2N+1) per path, because the kernel's grid row sums are m.
* closed-form drift recovery is exact for every kind, so a cos(2 pi t)
  drift gives coefficient 1/2 at n = 1 to rounding.
"""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from helpers import spec_for
from sfc_lab import (
    BohrConfig,
    CoefficientSet,
    SeedSpec,
    TimeGrid,
    bohr_product,
    cosine,
    eval_functionals,
    identify_a,
    iterated_divergence_term,
    recover_b,
    remainder_terms,
    sample_path,
)
from sfc_lab.bohr import (
    CLOSED_FORM,
    SYNTHESIZED,
    drift_coefficients,
    grid_supports,
    windows,
)
from sfc_lab.brownian import sample_rows, wiener_nodes
from sfc_lab.catalog import spec_tables, w_terms
from sfc_lab.sfc import coefficients, synthesize


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


@st.composite
def window_cases(draw):
    L = draw(st.integers(0, 12))
    top = draw(st.integers(0, 4))  # largest |n|
    return {
        "lead": draw(st.sampled_from([(), (1,), (2,), (5,), (2, 3)])),
        "K": L + top + draw(st.integers(0, 3)),
        "L": L,
        "orders": draw(st.lists(st.integers(-top, top), min_size=1, max_size=5)),
        "widths": draw(st.lists(st.integers(0, L), min_size=1, max_size=5)),
        "seed": draw(st.integers(0, 2**32)),
    }


def _dyadic(rng, shape):
    """Complex entries with 26-bit mantissas and exponents 2^-20 .. 2^20: a
    product of two is exact whether or not numpy fuses its multiply, and
    sums of them round, so their order shows."""
    parts = rng.integers(-(2**26), 2**26, (2,) + shape) * 2.0 ** rng.integers(-20, 21, (2,) + shape)
    return parts[0] + 1j * parts[1]


@settings(max_examples=120)
@given(window_cases())
def test_windows_are_the_center_out_loop_bitwise(case):
    # any rows, orders and widths (unsorted, repeated, N = 0): each window is
    # the l = 0 product plus the products at l = 1, -1, 2, -2, .. added one by
    # one, then divided by 2N + 1
    K, L, orders, widths = case["K"], case["L"], case["orders"], case["widths"]
    rng = np.random.default_rng(case["seed"])
    f_coef = _dyadic(rng, case["lead"] + (2 * K + 1,))
    i_coef = _dyadic(rng, case["lead"] + (2 * L + 1,))
    out = windows(f_coef, i_coef, orders, widths)
    assert out.shape == case["lead"] + (len(orders), len(widths))
    for r in np.ndindex(case["lead"]):
        f, i = f_coef[r].tolist(), i_coef[r].tolist()
        for oi, n in enumerate(orders):
            for wi, N in enumerate(widths):
                acc = f[n + K] * i[L]
                for ell in range(1, N + 1):
                    acc += f[n - ell + K] * i[ell + L]
                    acc += f[n + ell + K] * i[L - ell]
                assert out[r + (oi, wi)] == np.divide(acc, 2 * N + 1), (r, n, N)


def test_a_tiles_transforms_and_windows_allocate_only_their_results():
    # the sweep's tile at the perfbench config: 8 rows, m=4096, widths 4 ..
    # 256, M=4.  Each transform once kept a conjugate copy of its orders
    # k < 0 (33 KB); the windows once copied F transposed (66 KB) and ran
    # the broadcast multiply through numpy's default 128 KiB buffer.
    rows, m, M, widths = 8, 4096, 4, (4, 8, 16, 32, 64, 128, 256)
    N = max(widths)
    dx, dw = np.random.default_rng(3).standard_normal((2, rows, m))
    spectrum = np.empty((rows, m // 2 + 1), dtype=complex)
    out = np.empty((M + 1) * (2 * N + 1) * rows, dtype=complex)
    i_coef = coefficients(dw, N, spectrum)
    f_coef = coefficients(dx, N + M, spectrum)  # and the FFT and window plans
    windows(f_coef, i_coef, range(M + 1), widths, out)
    assert f_coef.T.flags.c_contiguous  # order-major: one run per order
    tracemalloc.start()
    try:
        f_coef = coefficients(dx, N + M, spectrum)
        _, transform = tracemalloc.get_traced_memory()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        windows(f_coef, i_coef, range(M + 1), widths, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transform < f_coef.nbytes + 4096, (transform, f_coef.nbytes)
    # besides ``out``: the I gather (66 KB), an 8 KiB multiply buffer and
    # the result (4.5 KB)
    assert peak - held < 80_000, peak - held


def test_the_drift_step_hands_windows_order_major_rows(monkeypatch):
    # synthesized identify's tile at the heavy config (BRIDGE, drift w1, 8
    # rows, m=4096, N=256, M=4), which runs every term of the step.
    # Its carried row (8 x 521 complex) and its pairs were once C-ordered,
    # and windows copied each transposed; the step peaked at 268,872 B with
    # that copy and a truth built in three temporaries, and at 235,776 B
    # without them (numpy still buffers each broadcast of an order's term
    # over the rows, up to 8192 elements).  The bound sits about halfway.
    import sfc_lab.bohr as bohr

    rows, m, N, M = 8, 4096, 256, 4
    spec = spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "w1"})
    st = spec_tables(spec, TimeGrid(m))
    dw, w = np.empty((rows, m)), np.empty((rows, m + 1))
    sample_rows(11, 0, dw)
    dx = ref.dx(spec, wiener_nodes(dw, w), dw)
    # the tile's complex scratch: the rfft spectrum or the band-M windows' products
    buffer = np.empty(rows * (2 * N + 1) * (M + 1), dtype=complex)
    spectrum = buffer[: rows * (m // 2 + 1)].reshape(rows, -1)
    f_coef, i_coef = coefficients(dx, N + M, spectrum), coefficients(dw, N + M, spectrum)
    a_hat = windows(f_coef, i_coef[:, M : M + 2 * N + 1], range(M + 1), [N])[..., 0]
    args = (st, SYNTHESIZED, w_terms(st, dw, w), dw, a_hat, f_coef, i_coef)
    expected = drift_coefficients(*args, out=(dx.copy(), buffer))  # and the step's plans
    layouts = []
    real = bohr.windows

    def recording(f, *rest):
        layouts.append((f.shape, f.reshape(-1, f.shape[-1]).T.flags.c_contiguous))
        return real(f, *rest)

    monkeypatch.setattr(bohr, "windows", recording)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        b = drift_coefficients(*args, out=(dx, buffer))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(b, expected)
    # carried, F(S dW), the pairs and a_hat's window; every one gathered as a view
    assert [shape for shape, _ in layouts] == [(rows, 521), (rows, 2 * N + 2 * M + 1),
                                              (rows, 4 * M + 1), (rows, 2 * N + 2 * M + 1)]
    assert all(order_major for _, order_major in layouts), layouts
    assert peak - held < 252_000, peak - held


def test_bohr_product_coverage_errors():
    f = CoefficientSet(max_order=3, values=np.zeros(7, dtype=complex))
    w = CoefficientSet(max_order=3, values=np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        bohr_product(f, w, n=1, N=3)  # needs |k| <= 4 on the dX side
    with pytest.raises(ValueError):
        bohr_product(f, w, n=0, N=4)  # needs |l| <= 4 on the dW side
    assert bohr_product(f, w, n=0, N=3) == 0.0


def test_identify_a_requires_fine_grid():
    # identify_a and recover_b take one mesh rule: N=8 and M=1 need m >= 72
    a_hat = CoefficientSet(max_order=1, values=np.zeros(3, dtype=complex))
    for m in (32, 64):
        pf = eval_functionals(spec_for("CONST"), sample_path(SeedSpec(41, 0), TimeGrid(m)))
        for estimate in [lambda: identify_a(pf, BohrConfig(N=8, M=1))] + [
            lambda mode=mode: recover_b(pf, a_hat, BohrConfig(N=8, M=1, mode=mode))
            for mode in (CLOSED_FORM, SYNTHESIZED)
        ]:
            with pytest.raises(ValueError, match="grid too coarse"):
                estimate()


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
    npt.assert_allclose(synthesize(cs.values, 32), 2.0 + np.cos(2 * np.pi * t), atol=1e-12)
    npt.assert_allclose(coefficients(synthesize(cs.values, 32), 1) / 32, cs.values, atol=1e-12)
    with pytest.raises(ValueError):
        synthesize(cs.values, 2)


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


def test_recover_b_rejects_an_estimate_of_another_band(paths256):
    # the synthesized correction differentiates the band-M estimate, so an
    # estimate of another band would mix two polynomials
    pf = eval_functionals(spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"}), paths256[0])
    a_hat = identify_a(pf, BohrConfig(N=8, M=1))
    for mode in ("synthesized", "closed_form"):
        with pytest.raises(ValueError, match="max_order 1, but cfg.M is 2"):
            recover_b(pf, a_hat, BohrConfig(N=8, M=2, mode=mode))


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
