"""Acceptance gate: eight criteria, one test function per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Tolerances and sizes are pinned here on purpose; loosening
them is a semantic change, not a tuning knob.

The two full-size Monte Carlo sweeps (criteria 4 and 5) share module-scoped
fixtures so the suite pays for each sweep once.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import spec_for, w1_functionals
from sfc_lab import (
    BohrConfig,
    CoefficientSet,
    ExperimentConfig,
    SeedSpec,
    TimeGrid,
    eval_basis,
    eval_functionals,
    fit_decay,
    iterated_divergence_term,
    kernel_l2_identity,
    lemma_fdelta_residual,
    prop1_residual,
    prop2_residual,
    recover_b,
    remainder_terms,
    run_convergence,
    sample_path,
)
from sfc_lab.bohr import CLOSED_FORM, bohr_product
from sfc_lab.catalog import CATALOG_KINDS, DRIFT_DET, DRIFT_W1, cosine, true_fourier_a
from sfc_lab.sfc import sfc_range, wiener_sfc_range

SEED = 20260819


@pytest.fixture(scope="module")
def const_run():
    return run_convergence(ExperimentConfig(spec=spec_for("CONST"), master_seed=SEED))


@pytest.fixture(scope="module")
def w1_run():
    return run_convergence(ExperimentConfig(spec=spec_for("NONCAUSAL_W1"), master_seed=SEED))


def _order_index(cfg: ExperimentConfig, n: int) -> int:
    return n + cfg.M


def _mean_and_se(estimates: np.ndarray) -> tuple[complex, float]:
    mean = estimates.mean()
    var = estimates.real.var(ddof=1) + estimates.imag.var(ddof=1)
    return complex(mean), math.sqrt(var / estimates.size)


def test_criterion_1_kernel_identity():
    started = time.perf_counter()
    for N in (1, 5, 32):
        value = kernel_l2_identity(N, 4 * N + 4)
        expected = 2 * N + 1
        assert abs(value - expected) / expected <= 1e-9, N
    assert time.perf_counter() - started < 1.0


def test_criterion_2_integration_by_parts():
    started = time.perf_counter()
    grid = TimeGrid(1024)
    worst = 0.0
    for idx in range(100):
        path = sample_path(SeedSpec(SEED, idx), grid)
        for functional in w1_functionals(path).values():
            for n in (0, 1, -3):
                e_nodes = eval_basis(n, grid.left_nodes)
                worst = max(worst, lemma_fdelta_residual(functional, e_nodes, path))
    assert worst <= 1e-10
    assert time.perf_counter() - started < 5.0


def test_criterion_3_multiplication_formulas():
    started = time.perf_counter()
    grid = TimeGrid(1024)
    g = {0: 0.5, 1: 0.5, -1: 0.5}  # 1/2 + cos(2 pi t); a zero mean makes prop 2 vacuous
    for kind in CATALOG_KINDS:
        plain = spec_for(kind)
        drifted = [
            spec_for(kind, {"g": g, "drift": DRIFT_DET}),
            spec_for(kind, {"g": g, "drift": DRIFT_W1}),
        ]
        for idx in range(100):
            path = sample_path(SeedSpec(SEED, idx), grid)
            for n in (0, 1):
                e_nodes = eval_basis(n, grid.left_nodes)
                assert prop1_residual(plain, e_nodes, path) <= 1e-9, (kind, idx, n)
                for spec in drifted:
                    assert prop2_residual(spec, e_nodes, path) <= 1e-9, (kind, idx, n)
    assert time.perf_counter() - started < 30.0


def test_criterion_4_bohr_mean(const_run):
    cfg = const_run.config
    assert const_run.runtime_seconds < 120.0
    for N, target in ((16, 1.0), (256, 1.0)):
        wi = cfg.n_list.index(N)
        mean, se = _mean_and_se(const_run.estimates[:, wi, _order_index(cfg, 0)])
        assert abs(mean - target) <= 3.0 * se, (N, mean, se)
    for N in (16, 256):
        wi = cfg.n_list.index(N)
        mean, se = _mean_and_se(const_run.estimates[:, wi, _order_index(cfg, 3)])
        assert abs(mean) <= 3.0 * se, (N, mean, se)


def test_criterion_5_convergence_rate(const_run, w1_run):
    assert const_run.runtime_seconds + w1_run.runtime_seconds < 600.0
    for result in (const_run, w1_run):
        fit = fit_decay(result, 0)
        assert -0.65 <= fit.slope <= -0.35, (result.config.spec.kind, fit)
    cfg = w1_run.config
    # lp_err is indexed [order, width]; pick the n = 0 row
    errs = w1_run.lp_err[_order_index(cfg, 0)]
    ratio = errs[cfg.n_list.index(256)] / errs[cfg.n_list.index(16)]
    assert ratio <= 0.5, ratio


def test_criterion_6_drift_recovery():
    started = time.perf_counter()
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": DRIFT_DET})
    grid = TimeGrid(4096)
    bohr_cfg = BohrConfig(N=16, M=1, mode=CLOSED_FORM)
    dummy_a = CoefficientSet(max_order=1, values=np.zeros(3, dtype=complex))
    paths = 2000
    b1 = np.empty(paths, dtype=complex)
    b0 = np.empty(paths, dtype=complex)
    for idx in range(paths):
        pf = eval_functionals(spec, sample_path(SeedSpec(SEED, idx), grid))
        b_hat = recover_b(pf, dummy_a, bohr_cfg)
        b0[idx] = b_hat.entry(0)
        b1[idx] = b_hat.entry(1)
    # closed_form is exact per path, so the standard error collapses to
    # rounding noise; the 1e-12 floor keeps the band meaningful at se = 0.
    mean1, se1 = _mean_and_se(b1)
    assert abs(mean1 - 0.5) <= 3.0 * se1 + 1e-12, (mean1, se1)
    mean0, se0 = _mean_and_se(b0)
    assert abs(mean0) <= 3.0 * se0 + 1e-12, (mean0, se0)
    assert time.perf_counter() - started < 120.0


def test_criterion_7_remainder_decomposition():
    N = 16
    grid = TimeGrid(512)
    for kind in ("CONST", "NONCAUSAL_W1"):
        spec = spec_for(kind)
        for idx in range(100):
            pf = eval_functionals(spec, sample_path(SeedSpec(SEED, idx), grid))
            f_set = sfc_range(pf, N + 1)
            w_set = wiener_sfc_range(pf.path, N)
            for n in (0, 1):
                estimate = bohr_product(f_set, w_set, n, N)
                truth = true_fourier_a(spec, pf.path, n)
                terms = remainder_terms(pf, n, N)
                # compute the double integral directly rather than as the
                # residual it is stored as, so the identity is a real check
                double = iterated_divergence_term(pf, n, N)
                total = (
                    double
                    + terms.diffusion_derivative
                    + terms.drift_wiener
                    + terms.drift_derivative
                )
                gap = abs((estimate - truth) - total)
                assert gap <= 1e-9, (kind, idx, n, gap)


def test_criterion_8_determinism(tmp_path):
    config = {
        "process": {"kind": "CONST"},
        "N_list": [4, 8, 16],
        "M": 1,
        "m": 256,
        "paths": 120,
        "master_seed": SEED,
        "block_size": 32,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for threads, sub in (("1", "run1"), ("4", "run2")):
        env = dict(os.environ, SFC_LAB_THREADS=threads)
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "sfc_lab.cli",
                "convergence",
                "--config",
                str(cfg_path),
                "--out",
                str(out_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(
            (
                (out_dir / "convergence.csv").read_bytes(),
                (out_dir / "convergence.json").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
