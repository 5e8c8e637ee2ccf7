"""Shared helpers for the test suite: the package's own example specs and
scalar functionals under the names the tests use, and independent oracles
that the package itself no longer needs."""

import numpy as np

from sfc_lab.brownian import BrownianPath
from sfc_lab.catalog import (  # noqa: F401
    DRIFT_RECORDS,
    TrigPoly,
    diffusion_array,
    spec_for,
    spec_tables,
)
from sfc_lab.grid import eval_basis
from sfc_lab.malliavin import w1_functionals  # noqa: F401


def path_from_xi(xi, grid):
    """Wrap externally supplied standardized increments as a path."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.m,):
        raise ValueError(f"xi must have shape ({grid.m},), got {xi.shape}")
    increments = xi / np.sqrt(grid.m)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return BrownianPath(grid=grid, values=values, increments=increments, xi=xi)


def true_fourier_b(spec, path, n):
    """Per-path coefficient of the drift against conj(e_n)."""
    if spec.g is None:
        return 0.0 + 0.0j
    if isinstance(spec.g, TrigPoly):
        base = spec.g.coeff(n)
    else:
        g_nodes = spec_tables(spec, path.grid).g
        base = complex(np.sum(g_nodes * eval_basis(-n, path.grid.left_nodes))) / path.grid.m
    g0, g1 = DRIFT_RECORDS[spec.drift_kind]
    return complex((g0 + g1 * path.terminal) * base)


def trigpoly_nodes(poly, t):
    """``sum_k c_k e_k(t)`` of a TrigPoly, one basis call per coefficient:
    the oracle for the tables' inverse transform."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for k, c in poly.coeffs:
        out += c * eval_basis(k, t)
    return out.real


def exact_diffusion_sfc(spec, path, n):
    """``div(a conj(e_n))`` for one order n, or an array for a sequence.

    ``sum_i a_i conj(e_n(t_i)) dW_i - (1/sqrt(m)) sum_i D_i a_i conj(e_n(t_i))``
    with the exact derivative diagonal.  Direct sums, never the FFT, so it
    is an independent oracle for the coefficient transform.
    """
    m = path.grid.m
    a = diffusion_array(spec, path)
    # conj(e_n(t_i)) = conj(e_1(t_{n i mod m})): one basis row serves every order
    rows = np.outer(np.atleast_1d(n), np.arange(m))
    ebar = np.take(eval_basis(-1, path.grid.left_nodes), rows, mode="wrap")
    values = ebar @ (a.values * path.increments) - ebar @ a.partials.diag() / np.sqrt(m)
    return complex(values[0]) if np.ndim(n) == 0 else values


def dsfc_partials(spec, path, weights):
    """Gradient ``d / d xi_r`` of ``sum_i h_i dX_i`` for fixed weights h, one
    row (m,) or a stack (K, m):

        s [f_r h_r + alpha (tail_r + W_{t_r} h_r)
           + beta (W_tau h_r + 1[r < tau m] sum_i h_i dW_i)] + sum_i c_i h_i / m

    with ``s = 1/sqrt(m)``, ``tail_r = sum_{i > r} h_i dW_i`` and ``c`` the
    drift derivative; ``h = conj(e_n)`` gives ``d F_n / d xi_r``.  The
    oracle for the estimator gradient, which sums these rows in closed form.
    """
    st = spec_tables(spec, path.grid)
    rec = spec.record
    h = np.asarray(weights)
    dw = path.increments
    inner = np.zeros(h.shape, dtype=complex)
    if st.f is not None:
        inner += st.f * h
    if rec.alpha:
        prods = h * dw
        tail = np.cumsum(prods[..., ::-1], axis=-1)[..., ::-1] - prods
        inner += rec.alpha * (tail + path.values[:-1] * h)
    if rec.beta:
        head = path.values[st.tau] * h
        head[..., : st.tau] += (h @ dw)[..., None]
        inner += rec.beta * head
    m = path.grid.m
    return inner / np.sqrt(m) + (h @ st.c)[..., None] / m
