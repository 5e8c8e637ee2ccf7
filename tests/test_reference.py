"""The package against the one reference (``reference.py``): every kind,
drift and table form, both recovery modes and bands M > N, on the sweep,
identification, the remainders, the divergence and every input that the
identity battery reads (a, b, the drift derivative, the derivative table
and the W_1 functionals), and every statistic that the reports print,
against exact sums of the package's own per-path values.  The battery's
residuals are defects near 0 on both sides, so ``test_structured.py``
checks them by their gates instead."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from helpers import case_rng
from sfc_lab import (
    CATALOG_KINDS,
    ExperimentConfig,
    SeedSpec,
    TimeGrid,
    TrigPoly,
    eval_functionals,
    iterated_divergence_term,
    make_process,
    remainder_terms,
    run_convergence,
    sample_path,
    sfc_range,
)
from sfc_lab.bohr import CLOSED_FORM, RECOVERY_MODES, SYNTHESIZED
from sfc_lab.catalog import (
    DRIFT_KINDS,
    KIND_RECORDS,
    SPEC_TABLE,
    block_diffusion,
    block_drift,
    spec_tables,
)
from sfc_lab.experiment import run_identify
from sfc_lab.malliavin import _divergence, block_w1_functionals


def _run(seed, kind, drift, odd=False, p=2.0):
    """A run of 100 paths and three of its paths, whose shape comes from the
    seed and the case (a parametrized test draws the same seeds for every
    case): N <= 4, M <= 3, m even from 8 (N + M) to 64 (one more if odd),
    and f and g TrigPoly or node tables."""
    rng = case_rng(seed, kind, drift)
    N, M = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    m = 2 * int(rng.integers(4 * (N + M), 33)) + odd

    def table():
        if rng.integers(2):
            return rng.standard_normal(m)
        coeffs = {0: rng.standard_normal()}
        for k in range(1, rng.integers(1, 4) + 1):
            coeffs[k] = complex(*rng.standard_normal(2))
            coeffs[-k] = coeffs[k].conjugate()
        return TrigPoly.from_mapping(coeffs)

    params = {"f": table()} if KIND_RECORDS[kind].f is SPEC_TABLE else {}
    if drift != "none":
        params.update(g=table(), drift=drift)
    widths = sorted({N, *rng.integers(1, N + 1, size=rng.integers(0, 3)).tolist()})
    cfg = ExperimentConfig(spec=make_process(kind, params), n_list=widths, M=M, m=m, paths=100,
                           master_seed=seed, p_exponent=p)
    return cfg, rng.choice(100, 3, replace=False).tolist()


def _close(got, want, atol=None):
    """Within ``1e-12 (1 + |want|)`` entry by entry, or within ``atol``."""
    want = np.asarray(want)
    bound = 1e-12 * (1 + np.abs(want)) if atol is None else atol
    assert np.all(np.abs(np.asarray(got) - want) <= bound), (got, want)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


@pytest.mark.parametrize("drift", DRIFT_KINDS)
@pytest.mark.parametrize("kind", CATALOG_KINDS)
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_package_matches_the_reference(kind, drift, seed):
    cfg, rows = _run(seed, kind, drift)
    spec, M, N = cfg.spec, cfg.M, max(cfg.n_list)
    orders, K = np.arange(-M, M + 1), N + M
    sweep = run_convergence(cfg)
    identified = {mode: run_identify(cfg, mode) for mode in RECOVERY_MODES}
    grid = TimeGrid(cfg.m)
    paths = [sample_path(SeedSpec(cfg.master_seed, p), grid) for p in rows]
    for p, path in zip(rows, paths):
        w, dw = path.values, path.increments
        pf = eval_functionals(spec, path)
        est = np.array([[ref.estimate(spec, w, dw, n, width) for n in orders]
                        for width in cfg.n_list])
        _close(sweep.estimates[p], est)
        _close(sweep.abs_errors[p], np.abs(est - ref.truth(spec, w, orders)))
        closed = ref.recovered_b(spec, w, dw, M)
        _close(closed, ref.true_b(spec, w, orders))  # F_n(dX) = div(a conj(e_n)) + b_n
        for result in identified.values():
            _close(result.a_hat[p], est[-1])
        # the closed form is exact algebra on the coefficients: 1e-13 of its largest entry
        _close(identified[CLOSED_FORM].b_hat[p], closed, 1e-13 * (1 + np.max(np.abs(closed))))
        _close(identified[SYNTHESIZED].b_hat[p], ref.recovered_b(spec, w, dw, M, N))
        dx, coef = ref.dx(spec, w, dw), sfc_range(pf, K).values
        _close(coef, ref.transform(dx, np.arange(-K, K + 1)), atol=1e-13)
        assert np.array_equal(sfc_range(pf, M).values, coef[N : N + 2 * M + 1])
        for n in sorted({-M, 0, M}):
            terms, double = ref.remainders(spec, w, dw, n, N), ref.iterated(spec, w, dw, n, N)
            _close(double, terms[0])  # the decomposition closes on the reference's side
            found = remainder_terms(pf, n, N)
            _close([found.double_wiener, found.diffusion_derivative, found.drift_wiener,
                    found.drift_derivative], terms)
            _close(iterated_divergence_term(pf, n, N), double)
    # the identity battery's inputs, on the three paths as one block
    w, dw = np.array([p.values for p in paths]), np.array([p.increments for p in paths])
    tables, m, s = spec_tables(spec, grid), cfg.m, 1 / np.sqrt(cfg.m)
    a, table, e = ref.diffusion(spec, w), ref.table(spec, m), ref.basis(np.arange(-K, K + 1), m)
    _close(block_diffusion(tables, w), a)
    _close(block_drift(tables, w), ref.drift(spec, w))
    _close(tables.c, ref.drift_derivative(spec, m))
    _close(tables.da.matvec(e), e @ table.T)
    _close(tables.da.rmatvec(dw), dw @ table)
    value, grad = _divergence(a, tables.da, dw)
    functionals = block_w1_functionals(w)
    for r in range(len(paths)):
        want_value, want_grad = ref.div(a[r], table, dw[r])
        _close(value[r], want_value)
        _close(grad[r], want_grad)
        # W_1 = div(1) and W_1^2 - 1 = div(W_1), whose table is s everywhere
        for name, u, du in (("W_1", 1.0, 0.0), ("W_1^2-1", w[r, -1], s)):
            want_value, want_grad = ref.div(np.full(m, u), np.full((m, m), du), dw[r])
            _close(functionals[name][0][r], want_value)
            _close(functionals[name][1][r], want_grad)


@pytest.mark.parametrize("drift", DRIFT_KINDS)
@pytest.mark.parametrize("kind", CATALOG_KINDS)
@settings(max_examples=3)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_reported_statistics_reduce_the_per_path_values_exactly(kind, drift, seed):
    # p = 2 or 3, and an odd m for every kind but MIDPOINT, which needs t = 1/2
    rng = case_rng(seed, kind, drift, 1)
    odd = kind != "NONCAUSAL_MIDPOINT" and bool(rng.integers(2))
    cfg, _ = _run(seed, kind, drift, odd, float(rng.choice([2, 3])))
    P, p = cfg.paths, cfg.p_exponent
    sweep = run_convergence(cfg)
    errors = sweep.abs_errors.transpose(0, 2, 1).reshape(P, -1)  # columns (order, width)
    means, variances, powers = ref.statistics(errors, p)
    _same_bits(sweep.mean_abs_err.ravel(), means)
    se, lp = [math.sqrt(v / P) for v in variances], [float(x) ** (1 / p) for x in powers]
    assert sweep.std_err.ravel().tolist() == pytest.approx(se, rel=1e-15, abs=0)
    assert sweep.lp_err.ravel().tolist() == pytest.approx(lp, rel=1e-15, abs=0)
    for mode in RECOVERY_MODES:
        result = run_identify(cfg, mode)
        for name, values in (("a", result.a_hat), ("b", result.b_hat)):
            means, variances, _ = ref.statistics(values.view(float))  # re, im of each order
            rows = [[row[f"{name}_mean_re"], row[f"{name}_mean_im"]] for row in result.rows]
            _same_bits(rows, np.reshape(means, (-1, 2)))
            se = [math.sqrt((re + im) / P) for re, im in zip(variances[::2], variances[1::2])]
            got = [row[f"{name}_se"] for row in result.rows]
            assert got == pytest.approx(se, rel=1e-15, abs=0)


def test_the_reference_takes_only_the_records_from_the_package():
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    taken, fft = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            taken |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and node.attr == "fft":
            fft.append(node.lineno)
    assert {name for name in taken if name.startswith("sfc_lab")} == {
        "sfc_lab.catalog.DRIFT_RECORDS", "sfc_lab.catalog.TrigPoly"}
    assert not fft and not any("fft" in name for name in taken), (fft, taken)
