"""The package against the one reference (``reference.py``): every kind,
drift and table form, both recovery modes and bands M > N, on the sweep,
identification, the remainders and the divergence.  The blocked identity
residuals are not compared: they are defects near 0 on both sides."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
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
from sfc_lab.catalog import DRIFT_KINDS, KIND_RECORDS, SPEC_TABLE, spec_tables
from sfc_lab.experiment import run_identify
from sfc_lab.malliavin import _divergence


def _run(seed, kind, drift):
    """A run of 100 paths and three of its paths, whose shape comes from the
    seed and the case (a parametrized test draws the same seeds for every
    case): N <= 4, M <= 3, m even from 8 (N + M) to 64, and f and g TrigPoly
    or node tables."""
    rng = np.random.default_rng([seed, CATALOG_KINDS.index(kind), DRIFT_KINDS.index(drift)])
    N, M = int(rng.integers(1, 5)), int(rng.integers(0, 4))
    m = 2 * int(rng.integers(4 * (N + M), 33))

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
                           master_seed=seed)
    return cfg, rng.choice(100, 3, replace=False).tolist()


def _close(got, want, atol=None):
    """Within ``1e-12 (1 + |want|)`` entry by entry, or within ``atol``."""
    want = np.asarray(want)
    bound = 1e-12 * (1 + np.abs(want)) if atol is None else atol
    assert np.all(np.abs(np.asarray(got) - want) <= bound), (got, want)


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
    w, dw = np.array([p.values for p in paths]), np.array([p.increments for p in paths])
    a = ref.diffusion(spec, w)
    value, grad = _divergence(a, spec_tables(spec, grid).da, dw)
    for r in range(len(paths)):
        want_value, want_grad = ref.div(a[r], ref.table(spec, cfg.m), dw[r])
        _close(value[r], want_value)
        _close(grad[r], want_grad)


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
