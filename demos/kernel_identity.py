#!/usr/bin/env python3
"""Dirichlet kernel norm identity on the discrete grid.

The squared kernel |K_N|^2 is a trigonometric polynomial of degree 2N, so
the left-tag Riemann sum over m >= 4N + 4 cells reproduces its integral,
which is exactly 2N + 1.  The demo prints the sum next to 2N + 1 for a
range of widths, cross-checks the defining sum against the independent
sine-ratio closed form, and exits nonzero if either gate fails.
"""

import sys

import numpy as np

from sfc_lab import TimeGrid, dirichlet_kernel, kernel_l2_identity
from sfc_lab.grid import dirichlet_closed_form


def main() -> int:
    ok = True
    print(f"{'N':>4} {'m':>6} {'sum |K_N|^2 / m':>22} {'2N+1':>6} {'rel err':>10}")
    for N in (1, 2, 5, 16, 32, 100):
        m = 4 * N + 4
        value = kernel_l2_identity(N, m)
        rel = abs(value - (2 * N + 1)) / (2 * N + 1)
        ok &= rel <= 1e-9
        print(f"{N:>4} {m:>6} {value:>22.12f} {2 * N + 1:>6} {rel:>10.2e}")

    # the sum form against the sine-ratio form, off the grid nodes
    x = np.linspace(0.013, 0.987, 101)
    gap = float(np.max(np.abs(dirichlet_kernel(16, x) - dirichlet_closed_form(16, 2 * x))))
    ok &= gap <= 1e-9
    print(f"sum form vs closed form, N=16: max gap {gap:.2e}")

    # peak value is exact, every term being 1 + 0j at x = 0
    peak = dirichlet_kernel(16, 0.0)
    ok &= peak == 33.0 + 0.0j
    print(f"K_16(0) = {peak} (exact)")

    # left-tag quadrature is exact on the basis products the kernel is made of
    grid = TimeGrid(64)
    t = grid.left_nodes
    worst = 0.0
    for k in range(-6, 7):
        for l in range(-6, 7):
            val = np.sum(np.exp(2j * np.pi * (k - l) * t)) / grid.m
            worst = max(worst, abs(val - (1.0 if k == l else 0.0)))
    ok &= worst <= 1e-12
    print(f"basis orthogonality through the quadrature: max gap {worst:.2e}")

    print("kernel identity demo:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
