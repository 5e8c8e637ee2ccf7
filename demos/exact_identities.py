#!/usr/bin/env python3
"""The exact discrete identities behind the estimator analysis.

On the discretized Wiener space the integration-by-parts formula and both
product rules hold as finite-dimensional algebra, so their residuals sit at
rounding level on every sampled path, not merely on average.  The demo
evaluates each identity on fresh paths, then assembles the four-term error
decomposition of the Bohr product and closes it with the double stochastic
integral computed directly.
"""

import sys

from sfc_lab import (
    SeedSpec,
    TimeGrid,
    bohr_product,
    cosine,
    eval_basis,
    eval_functionals,
    iterated_divergence_term,
    lemma_fdelta_residual,
    make_process,
    prop1_residual,
    prop2_residual,
    remainder_terms,
    sample_path,
    sfc_range,
    true_fourier_a,
    wiener_sfc_range,
)
from sfc_lab.malliavin import w1_functionals

SEED = 424242


def main() -> int:
    ok = True
    grid = TimeGrid(512)

    # integration by parts: E-free, per-path identity F * delta(e) =
    # delta(F e) + <DF, e>
    worst = 0.0
    for idx in range(20):
        path = sample_path(SeedSpec(SEED, idx), grid)
        for functional in w1_functionals(path).values():
            for n in (0, 1, -3):
                e_nodes = eval_basis(n, grid.left_nodes)
                worst = max(worst, lemma_fdelta_residual(functional, e_nodes, path))
    ok &= worst <= 1e-10
    print(f"integration by parts: max residual {worst:.2e} over 20 paths")

    # product rules, one noncausal entry with a random drift
    plain = make_process("NONCAUSAL_BRIDGE")
    drifted = make_process("NONCAUSAL_BRIDGE", {"g": cosine(2), "drift": "w1"})
    worst1 = worst2 = 0.0
    for idx in range(20):
        path = sample_path(SeedSpec(SEED, 100 + idx), grid)
        for n in (0, 1):
            e_nodes = eval_basis(n, grid.left_nodes)
            worst1 = max(worst1, prop1_residual(plain, e_nodes, path))
            worst2 = max(worst2, prop2_residual(drifted, e_nodes, path))
    ok &= worst1 <= 1e-9 and worst2 <= 1e-9
    print(f"product rule, stochastic factor: max residual {worst1:.2e}")
    print(f"product rule, drift factor:      max residual {worst2:.2e}")

    # four-term decomposition of the estimator error, closed directly
    N = 16
    spec = make_process("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    print(f"error decomposition for a = W_1 with drift cos(2 pi t), N = {N}:")
    worst_gap = 0.0
    for idx in range(10):
        pf = eval_functionals(spec, sample_path(SeedSpec(SEED, 200 + idx), grid))
        f_set = sfc_range(pf, N + 1)
        w_set = wiener_sfc_range(pf.path, N)
        for n in (0, 1):
            estimate = bohr_product(f_set, w_set, n, N)
            truth = true_fourier_a(spec, pf.path, n)
            terms = remainder_terms(pf, n, N)
            double = iterated_divergence_term(pf, n, N)
            closed = (
                double
                + terms.diffusion_derivative
                + terms.drift_wiener
                + terms.drift_derivative
            )
            worst_gap = max(worst_gap, abs((estimate - truth) - closed))
    ok &= worst_gap <= 1e-9
    print(f"  estimate - truth vs four direct terms: max gap {worst_gap:.2e}")

    print("exact identities demo:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
