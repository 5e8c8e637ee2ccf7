"""Shared helpers for the test suite: the package's example specs and
scalar functionals under the names the tests use, a path from given
standardized increments, the Gauss-Hermite rows of exact expectations, and
the hooks that make a run start tile helpers and record its workers.  The
independent reference is ``reference.py``."""

import threading

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

import sfc_lab.engine as engine
from sfc_lab.brownian import BrownianPath, wiener_nodes
from sfc_lab.catalog import spec_for  # noqa: F401
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
