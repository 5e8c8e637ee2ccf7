#!/usr/bin/env python3
"""Identifying the coefficients of a noncausal process from one trajectory.

dX = b dt + a dW with a(t, w) = W_1 (the terminal value, so the integrand
looks into the future) and b(t) = cos(2 pi t).  The Bohr products of the
stochastic Fourier coefficients of dX against those of dW recover the
Fourier coefficients of a path by path; the drift coefficients follow by
subtracting the stochastic part.  No adaptedness is used anywhere.

The error table is one Monte Carlo sweep of the package's engine: at order
n = 0 the Fourier coefficient of a = W_1 is W_1 itself, so the sweep's
``mean_abs_err`` there is ``E|a_hat(0) - W_1|``.
"""

import sys

import numpy as np

from sfc_lab import (
    BohrConfig,
    ExperimentConfig,
    SeedSpec,
    TimeGrid,
    cosine,
    eval_functionals,
    identify_a,
    make_process,
    recover_b,
    run_convergence,
    sample_path,
)

SEED = 77
PATHS = 400


def main() -> int:
    ok = True
    grid = TimeGrid(2048)
    spec = make_process("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})

    print(f"process: a = W_1, b = cos(2 pi t), m = {grid.m}, {PATHS} paths")
    print(f"{'N':>5} {'E|a_hat(0) - W_1|':>18} {'expected rate':>14}")
    widths = (4, 16, 64)
    sweep = run_convergence(
        ExperimentConfig(spec=spec, n_list=widths, M=0, m=grid.m, paths=PATHS, master_seed=SEED)
    )
    for N, err in zip(widths, sweep.mean_abs_err[0]):  # order n = 0, the only one at M = 0
        rate = 1.0 / np.sqrt(2 * N + 1)
        print(f"{N:>5} {err:>18.5f} {rate:>14.5f}")
        ok &= err <= 3.0 * rate

    # drift recovery on one path, both modes
    path = sample_path(SeedSpec(SEED, 0), grid)
    pf = eval_functionals(spec, path)
    a_hat = identify_a(pf, BohrConfig(N=64, M=1))
    closed = recover_b(pf, a_hat, BohrConfig(N=64, M=1, mode="closed_form"))
    synth = recover_b(pf, a_hat, BohrConfig(N=64, M=1, mode="synthesized"))
    print("drift coefficients of cos(2 pi t): truth (0.5, 0.0, 0.5) at n = -1, 0, 1")
    for label, coeffs in (("closed_form", closed), ("synthesized", synth)):
        vals = ", ".join(f"{coeffs.entry(n):+.4f}" for n in (-1, 0, 1))
        print(f"  {label:>12}: {vals}")
    gap_closed = max(
        abs(closed.entry(1) - 0.5), abs(closed.entry(0)), abs(closed.entry(-1) - 0.5)
    )
    ok &= gap_closed <= 1e-9
    print(f"  closed_form gap to truth: {gap_closed:.2e} (exact by construction)")
    gap_synth = max(abs(synth.entry(n) - closed.entry(n)) for n in (-1, 0, 1))
    ok &= gap_synth <= 0.5
    print(f"  synthesized vs closed_form: {gap_synth:.3f} (carries estimator noise)")

    print("identification demo:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
