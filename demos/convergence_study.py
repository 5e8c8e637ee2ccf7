#!/usr/bin/env python3
"""Monte Carlo decay of the Bohr-product error in the window width.

For each catalog entry the L^2 error of B_N(n) against the true Fourier
coefficient of a decays like (2N+1)^(-1/2).  The demo runs a reduced sweep
(m = 1024, 400 paths), prints the error table and the fitted log-log slope
per process, and gates on the slope band [-0.65, -0.35].  The full-size
sweep lives behind `sfc-lab convergence`; this script trades statistical
power for a few seconds of runtime.
"""

import sys

from sfc_lab import ExperimentConfig, fit_decay, make_process, run_convergence
from sfc_lab.catalog import CATALOG_KINDS, spec_for

N_LIST = (4, 8, 16, 32, 64)


def main() -> int:
    ok = True
    print("L^2 error of B_N(0) vs true coefficient, m = 1024, 400 paths")
    header = " ".join(f"{'N=' + str(N):>9}" for N in N_LIST)
    print(f"{'process':>20} {header} {'slope':>8} {'+/-':>6}")
    for kind in CATALOG_KINDS:
        cfg = ExperimentConfig(
            spec=spec_for(kind),
            n_list=N_LIST,
            M=0,
            m=1024,
            paths=400,
            master_seed=31415,
        )
        result = run_convergence(cfg)
        fit = fit_decay(result, 0)
        errs = " ".join(f"{e:>9.5f}" for e in result.lp_err[0])
        inside = -0.65 <= fit.slope <= -0.35
        ok &= inside
        flag = "" if inside else "  <-- outside band"
        print(f"{kind:>20} {errs} {fit.slope:>8.3f} {fit.half_width:>6.3f}{flag}")

    # the CONST case has a closed second moment: E|B_N(0) - 1|^2 = 2/(2N+1)
    cfg = ExperimentConfig(
        spec=make_process("CONST"), n_list=N_LIST, M=0, m=1024, paths=400, master_seed=31415
    )
    result = run_convergence(cfg)
    print("CONST against the exact second moment:")
    for wi, N in enumerate(N_LIST):
        emp = result.lp_err[0, wi] ** 2
        exact = 2.0 / (2 * N + 1)
        ratio = emp / exact
        ok &= 0.7 <= ratio <= 1.3
        print(f"  N={N:>3}  sample E|err|^2 = {emp:.5f}  2/(2N+1) = {exact:.5f}  ratio {ratio:.3f}")

    print("convergence demo:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
