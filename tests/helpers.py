"""Shared helpers for the test suite: the package's own example specs and
scalar functionals under the names the tests use, and independent oracles
that the package itself no longer needs."""

import threading

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

import sfc_lab.engine as engine
from sfc_lab.brownian import BrownianPath, wiener_nodes
from sfc_lab.catalog import (  # noqa: F401
    DRIFT_RECORDS,
    TrigPoly,
    block_diffusion,
    block_drift,
    spec_for,
    spec_tables,
)
from sfc_lab.grid import eval_basis
from sfc_lab.malliavin import w1_functionals  # noqa: F401


def path_from_xi(xi, grid):
    """The path whose standardized increments ``dW sqrt(m)`` are ``xi``."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.m,):
        raise ValueError(f"xi must have shape ({grid.m},), got {xi.shape}")
    increments = xi / np.sqrt(grid.m)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return BrownianPath(grid=grid, values=values, increments=increments)


def gauss_hermite_rows(m, q):
    """The tensor Gauss-Hermite rule of q points in each standardized
    increment ``xi_i = dW_i sqrt(m)``: W (q**m, m + 1), dW (q**m, m) and the
    weights (q**m,), which sum to 1.  The weighted sum over the rows of a
    polynomial in xi of degree at most 2q - 1 in each variable is its
    expectation, exact up to rounding; m=8 and q=3 give 6,561 rows."""
    nodes, weights = hermegauss(q)
    index = np.indices((q,) * m).reshape(m, -1).T  # one row per node of the tensor grid
    dw = nodes[index] / np.sqrt(m)
    w = wiener_nodes(dw, np.empty((len(dw), m + 1)))
    return w, dw, np.prod(weights[index], axis=1) / weights.sum() ** m


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
    st = spec_tables(spec, path.grid)
    a = block_diffusion(st, path.values)
    # conj(e_n(t_i)) = conj(e_1(t_{n i mod m})): one basis row serves every order
    rows = np.outer(np.atleast_1d(n), np.arange(m))
    ebar = np.take(eval_basis(-1, path.grid.left_nodes), rows, mode="wrap")
    values = ebar @ (a * path.increments) - ebar @ st.da.v / np.sqrt(m)
    return complex(values[0]) if np.ndim(n) == 0 else values


def dx_nodes(st, w):
    """``dX = a dW - diag(Da) / sqrt(m) + b / m`` at the m left tags, on each
    row of W (..., m + 1), with dW the differences of W: the time-domain form
    of the increments, which the package takes only as coefficients
    (``catalog.block_dx_coefficients``)."""
    dx = np.subtract(w[..., 1:], w[..., :-1])
    dx *= block_diffusion(st, w)
    dx -= st.correction
    dx += block_drift(st, w) / st.grid.m
    return dx


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


def start_helpers_at_any_m(monkeypatch):
    """Let a run at any m start tile helpers, as runs above m=1024 do, so
    that a thread test keeps a small grid."""
    monkeypatch.setattr(engine, "_ONE_WORKER_MAX_M", 0)


def record_tile_workers(monkeypatch):
    """The threads that build each run's tiles: one set of thread idents per
    run, filled as the run goes.  The tile sampler is wrapped so that, in a
    run whose ``engine._workers`` is above one, the calling thread waits
    at its first tile after the one it works alone, up to 10 s, for a helper
    to start a tile: a run that starts a helper then shows two workers
    whatever the scheduler does, and a run that starts none never waits."""
    caller = threading.get_ident()
    runs = []
    workers = [1]  # the current run's, as _run_tiles asked for them
    helper_ran = threading.Event()
    real_sample, real_workers = engine.sample_rows, engine._workers

    def counted_workers(*args):
        workers[0] = real_workers(*args)
        return workers[0]

    def sample_rows(master_seed, lo, *rest):
        ident = threading.get_ident()
        if lo == 0:  # every run's first tile, which the calling thread works alone
            runs.append(set())
            helper_ran.clear()
        elif ident == caller and workers[0] > 1:
            helper_ran.wait(10)
            helper_ran.set()  # wait once a run
        else:
            helper_ran.set()
        runs[-1].add(ident)
        return real_sample(master_seed, lo, *rest)

    monkeypatch.setattr(engine, "_workers", counted_workers)
    monkeypatch.setattr(engine, "sample_rows", sample_rows)
    return runs
