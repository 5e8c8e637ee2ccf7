"""The tile engine of the Monte Carlo runs in ``experiment``.

Tiles
-----
A run's paths go in row tiles of at most ``block_size`` and 16 rows, and of
at most as many as keep one (rows, m) float array within ``TILE_BYTES``
(:func:`tile_rows`).  Each tile draws dW (``brownian.sample_rows``), takes
``F(dW)``, W's terms and ``F(dX)`` from the one step that every one-path
view takes too (``catalog.dx_coefficients``), and its Bohr windows at the
orders ``n = 0 .. M`` from one ``bohr.windows`` call, and goes to the run's
callback as a :class:`Tile`.  Only ADAPTED_W and BRIDGE (alpha != 0) build
W at every node, since their ``(f + alpha W) dW`` reads it there; the other
kinds never build it.  No tile builds the orders ``n < 0`` (``sfc.mirror``).

Threads
-------
Tiles run on as many threads as the process may use CPUs, or on
``SFC_LAB_THREADS`` when it is set, at most one a tile, except that a run at
m <= 1024 starts no helper (:func:`_workers`).  The calling thread works the
first tile alone, so that the run's one-time costs (lazy imports, FFT plans,
the per-run caches) are paid once; then it and the helpers each take the
next tile start from one shared counter until none is left.  A worker whose
tile raises takes no further tile, and the others take none past the
current start either; every helper is joined before the failing tile with
the lowest path index raises, so a failure is reported as the one-thread run
reports it.  Every step treats each row on its own, so neither the thread
count nor the tile geometry changes any number.

Buffers
-------
Each worker allocates its buffers and its generator at its first tile and
fills them in place for every later one: dW, one flat complex scratch, and a
second (rows, m) array only where the consumer reads dW after the transforms
(``keep_dw``: synthesized identify with a lower triangle).  The step takes
the scratch as its ``buffer``: where alpha != 0 it builds W in the
scratch's real view (``2 (m // 2 + 1) >= m + 1`` floats a row), idle
between ``F(dW)``'s copy-out and the next transform, and reads W's terms
before anything overwrites dW.  ``(f + alpha W) dW`` goes into dW's rows
unless ``keep_dw`` keeps dW for the synthesized step's ``i dW``.  Besides,
a tile allocates the coefficient rows and windows that it hands on, and for
the windows the gather of I and numpy's 8 KiB multiply buffer.  A
:class:`Tile`'s arrays are views on the worker's buffers, which its next
tile overwrites: they are valid only inside the callback.  The size check
(:func:`_require_run_fits`) counts the buffers of every worker that starts,
the spec's tables and the per-path results, before any of them is built.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bohr import windows
from .brownian import sample_rows
from .catalog import SpecTables, dx_coefficients
from .errors import ConfigError, NumericalFailureError

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

THREADS_ENV = "SFC_LAB_THREADS"
TILE_BYTES = 256 * 1024  # one (rows, m) float64 array of a tile fits in this
# Taller tiles trade memory for time.  On a 2-vCPU Xeon KVM guest a one-thread
# m=1024 BRIDGE sweep (N 4..64, M=4, P=2000) took 89 / 83 / 74 ms at 16 / 32 /
# 64 rows, two workers ran at 0.93-1.01x of one at each height, and a worker's
# buffers grow with its rows (ROADMAP item 12 has the m=4096 case).
_TILE_MAX_ROWS = 16
_ONE_WORKER_MAX_M = 1024  # a run at m up to this works its tiles on one thread (see _workers)


def resolve_threads() -> int:
    """``SFC_LAB_THREADS``, or when it is unset or empty the number of CPUs
    this process may run on."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw.strip() == "":
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity on this platform
            return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def tile_rows(cfg: ExperimentConfig) -> int:
    """Rows per tile: one (rows, m) float array in ``TILE_BYTES``, at most 16
    rows and ``block_size``: 16 rows at m=1024, 8 at 4096, 2 at 16384."""
    return min(cfg.block_size, _TILE_MAX_ROWS, max(1, TILE_BYTES // (8 * cfg.m)))


@dataclass(frozen=True, eq=False)
class Tile:
    """Paths ``lo ..`` of one tile: W's terms (``catalog.w_terms``), the
    increments (None where the run keeps no dW), ``F_k(dX)``, ``|k| <= N +
    M``, and its stochastic part at ``k = 0 .. M``, ``F_l(dW)``, ``|l| <=
    max(N + M, 2M)`` (all from ``catalog.dx_coefficients``), the windows
    (rows, orders 0 .. M, widths) and the worker's flat complex scratch, free
    once the windows are taken.  dW and the scratch are the worker's buffers.
    The coefficients are stored order-major, as ``sfc.coefficients`` returns
    them."""

    lo: int
    terms: tuple
    dw: np.ndarray | None
    f_coef: np.ndarray
    stochastic: np.ndarray
    i_coef: np.ndarray
    est: np.ndarray
    complex_scratch: np.ndarray


def _tile_buffers(
    cfg: ExperimentConfig, widths: tuple[int, ...], keep_dw: bool = True
) -> tuple[int, int, int]:
    """Rows per tile, the (rows, m) float arrays of a worker and the length
    of its flat complex scratch: the rfft spectrum (whose real view also
    holds W's m + 1 floats a row) or the band-M windows' products, whichever
    is longer.  dW and ``(f + alpha W) dW`` share one array unless
    ``keep_dw``."""
    rows = tile_rows(cfg)
    complex_size = rows * max(cfg.m // 2 + 1, (2 * max(max(widths), cfg.M) + 1) * (cfg.M + 1))
    return rows, 2 if keep_dw else 1, complex_size


def _workers(cfg: ExperimentConfig, rows: int) -> int:
    """Threads that work a run's tiles: one at ``m <= _ONE_WORKER_MAX_M``,
    else ``resolve_threads()``, at most one a tile.

    On a 2-vCPU host a second worker made every measured run at m <= 1024
    slower, whatever the rows or the tile count, and most runs at m >= 1536
    faster; a helper also holds its own tile buffers.  The crossover table is
    in CHANGES.md, under "Start a tile helper only where it can win".
    """
    if cfg.m <= _ONE_WORKER_MAX_M:
        return 1
    return min(resolve_threads(), -(-cfg.paths // rows))


def _run_tiles(
    cfg: ExperimentConfig, st: SpecTables, widths: tuple[int, ...], work, *, keep_dw: bool = True
) -> None:
    """Build every tile of paths, with windows at ``widths``, and hand it to
    ``work``, on the threads and buffers of the module docstring."""
    m, M, n_max = cfg.m, cfg.M, max(widths)
    rows, row_arrays, complex_size = _tile_buffers(cfg, widths, keep_dw)
    L = max(n_max + M, 2 * M)  # the dW orders the drift step reads
    half = range(M + 1)
    local = threading.local()

    def one(lo: int) -> None:
        if not hasattr(local, "buffers"):  # this thread's dW, (f + alpha W) dW and scratch
            dw = np.empty((rows, m))
            x = np.empty((rows, m)) if row_arrays == 2 else dw  # written after F(dW)
            local.buffers = dw, x, np.empty(complex_size, dtype=complex)
            local.rng = None
        count = min(cfg.paths, lo + rows) - lo
        *real, complex_scratch = local.buffers
        dw, x = (b[:count] for b in real)
        local.rng = sample_rows(cfg.master_seed, lo, dw, local.rng)
        stochastic = np.empty((count, M + 1), dtype=complex)
        i_coef, terms, f_coef = dx_coefficients(  # orders at columns l + L and k + n_max + M
            st, dw, L, n_max + M, x=x, buffer=complex_scratch, stochastic=stochastic
        )
        est = windows(f_coef, i_coef[:, L - n_max : L + n_max + 1], half, widths, complex_scratch)
        work(Tile(lo, terms, dw if keep_dw else None, f_coef, stochastic, i_coef, est,
                  complex_scratch))

    threads = _workers(cfg, rows)
    pending = iter(range(0, cfg.paths, rows))
    lock = threading.Lock()
    failures: dict[int, BaseException] = {}

    def step() -> bool:
        """Work the next tile; False once none is left or a tile has failed."""
        with lock:
            lo = None if failures else next(pending, None)
        if lo is None:
            return False
        try:
            one(lo)
        except BaseException as exc:  # raised below, once every helper has joined
            with lock:
                failures[lo] = exc
            return False
        return True

    def drain() -> None:
        while step():
            pass

    helpers: list[threading.Thread] = []
    try:
        if step():  # the first tile runs alone
            for _ in range(threads - 1):
                helper = threading.Thread(target=drain)
                helper.start()
                helpers.append(helper)
            drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]


def _require_finite(name: str, half: np.ndarray, lo: int, widths) -> None:
    """Name the first path, then order and width, whose ``half`` (rows,
    orders 0 .. M, widths) is not finite, as the full band ``-M .. M`` would
    show it: order -n mirrors n, so a row's first bad order is minus its
    largest bad n."""
    if np.isfinite(half).all():
        return
    r, i, wi = np.argwhere(~np.isfinite(half[:, ::-1]))[0]
    n = i - (half.shape[1] - 1)
    raise NumericalFailureError(f"non-finite {name} for path {lo + r} (n={n}, N={widths[wi]})")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_fits(what: str, need: int) -> None:
    """Refuse ``what`` where physical memory cannot hold the ``need`` bytes of its arrays."""
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigError(
            f"{what} needs {need:,} bytes, more than the {have:,} bytes of physical memory"
        )


# the spec's tables of m floats: f, g, c, the derivative table's v, the correction
# and the rffts of it and of g, the drift step's ramp, a temporary and one spare
_TABLE_ARRAYS = 10


def _require_run_fits(
    cfg: ExperimentConfig, widths: tuple[int, ...], bytes_per_path: int, keep_dw: bool = True
) -> None:
    """Refuse a run that physical memory cannot hold: its per-path results,
    the spec's tables (at most ``_TABLE_ARRAYS`` arrays of m floats) and the
    buffers of every tile worker, as :func:`_tile_buffers` counts them for
    ``keep_dw``.  It could not finish, so it fails before the tables or any
    tile are built."""
    rows, row_arrays, complex_size = _tile_buffers(cfg, widths, keep_dw)
    workers = _workers(cfg, rows)
    results = cfg.paths * bytes_per_path
    need = results + 8 * _TABLE_ARRAYS * cfg.m + workers * (
        8 * rows * row_arrays * cfg.m + 16 * complex_size
    )
    owners = "tile worker's" if workers == 1 else "tile workers'"
    require_fits(f"{cfg.paths} paths need {results:,} bytes of per-path results, and with the "
                 f"spec's tables and {workers} {owners} buffers the run", need)
