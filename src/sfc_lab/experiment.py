"""Monte Carlo experiments for the coefficient estimator: the convergence
sweep and coefficient identification, on one engine.  Paths run in row tiles
of at most ``block_size`` and 16 rows, and of at most as many as keep one
(rows, m) float array within ``TILE_BYTES``.  Each tile is sampled, takes
the transform of dW, gets dX from the spec's tables (built once per spec and
grid), takes the transform of dX and all its Bohr windows from one
``bohr.band_windows`` call; ``run_identify`` recovers b on the same tile.
Each worker thread fills the same buffers for every tile it builds: W, dW,
dX and a complex scratch, or three where the consumer reads no dW after the
transforms and dX is built in dW's rows.  A :class:`Tile`'s arrays are views
on them, valid only inside the callback that receives it.  Both results keep
the orders ``n = 0 .. M`` of each path only: the sweep its estimates and one
truth row, from which it reduces |estimate - truth| one width at a time, and
identification ``a_hat`` and ``b_hat``.  The increments are real, so
``B_N(-n) = conj(B_N(n))``, the truth's coefficients and b mirror the same
way, and the orders ``n < 0`` of every table are copies.

Determinism contract
--------------------
Results are a pure function of the configuration, and ``run_identify``
keeps the same contract as the sweep:

* every path comes from its own counter-based substream keyed by
  ``(master_seed, path_index)``;
* every step treats each row on its own -- the coefficient transform is one
  real FFT per row, W is one cumsum per row, and each window adds its row's
  products one by one in the same order whatever the rows beside it -- so
  per-path outputs are bitwise independent of the tile a path lands in, of
  ``block_size``, of the worker schedule and of the run's total P (prefix
  property);
* per-path statistics land in arrays indexed by path, and all reductions run
  afterwards as exact sums rounded once, bitwise what ``math.fsum`` gives in
  any order, by one vectorized kernel that both results share.

Tiles run on as many threads as the process may use CPUs, or on
``SFC_LAB_THREADS`` when it is set, except that a run at m <= 1024 starts no
helper: the calling thread and its helpers take the next tile in path order
from one shared counter.  The thread count has no effect on any reported
number.  Wall-clock time is kept on the in-memory result only; serialized
artifacts contain nothing volatile, so identical configurations yield
identical bytes.

Config schema
-------------
Each part of a config file has one owner: ``catalog.make_process`` reads
the process block and ``catalog.process_jsonable`` writes it; ``RUN_FIELDS``
lists the run fields for :func:`config_from_jsonable` and
:func:`config_jsonable`; ``cli`` reads the ``COMMAND_KEYS`` and checks
each of them whichever command runs, so one file serves both commands.
Both results write their CSV and JSON through one writer, each giving only
its rows and its own JSON key.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from hashlib import sha256
from typing import ClassVar, Mapping

import numpy as np

from . import __version__
from .bohr import CLOSED_FORM, BohrConfig, band_windows, drift_coefficients, grid_supports
from .catalog import (
    ProcessSpec,
    SpecTables,
    block_diffusion,
    block_functionals,
    block_true_fourier_a,
    make_process,
    process_jsonable,
    spec_tables,
)
from .errors import ConfigError, NumericalFailureError
from .grid import TimeGrid
from .brownian import sample_rows
from .sfc import coefficients

THREADS_ENV = "SFC_LAB_THREADS"

CSV_HEADER = "process,n,N,m,P,seed,mean_abs_err,lp_err,std_err"
IDENTIFY_CSV_HEADER = (
    "process,n,N,m,P,seed,mode,a_mean_re,a_mean_im,a_se,b_mean_re,b_mean_im,b_se"
)


def _require_int(name: str, value) -> int:
    """``value`` as a Python int (numpy integers too, so it serializes)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one convergence sweep."""

    spec: ProcessSpec
    n_list: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    M: int = 4
    m: int = 4096
    paths: int = 2000
    master_seed: int = 20260819
    p_exponent: float = 2.0
    block_size: int = 256

    def __post_init__(self) -> None:
        try:
            n_list = tuple(self.n_list)  # any sequence, JSON lists too
        except TypeError:
            raise ConfigError(f"n_list must be a sequence of ints, got {self.n_list!r}") from None
        for name in ("M", "m", "paths", "master_seed", "block_size"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        n_list = tuple(_require_int("each n_list entry", N) for N in n_list)
        object.__setattr__(self, "n_list", n_list)
        if len(self.n_list) == 0:
            raise ConfigError("n_list must not be empty")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError(f"n_list must be strictly increasing, got {self.n_list}")
        if self.n_list[0] < 1:
            raise ConfigError(f"averaging widths must be >= 1, got {self.n_list[0]}")
        if self.M < 0:
            raise ConfigError(f"M must be >= 0, got {self.M}")
        if not grid_supports(self.m, max(self.n_list), self.M):
            raise ConfigError(
                f"m={self.m} too coarse: need m >= 8 (max N + M) = "
                f"{8 * (max(self.n_list) + self.M)}"
            )
        if self.paths < 100:
            raise ConfigError(f"paths must be >= 100, got {self.paths}")
        p = self.p_exponent
        real = isinstance(p, (int, float, np.integer, np.floating)) and not isinstance(p, bool)
        if not (real and math.isfinite(p) and p >= 1.0):
            raise ConfigError(f"p_exponent must be a finite real >= 1, got {p!r}")
        object.__setattr__(self, "p_exponent", p.item() if isinstance(p, np.generic) else p)
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if not 0 <= self.master_seed <= 2**64 - 1:
            raise ConfigError(f"master_seed must fit in uint64, got {self.master_seed}")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(-self.M, self.M + 1))

    @cached_property
    def _hash(self) -> str:
        """:func:`config_hash`, computed once per config."""
        payload = json.dumps(config_jsonable(self), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode()).hexdigest()


# The run fields of a config file: JSON key -> ExperimentConfig field.
RUN_FIELDS = {
    "N_list": "n_list",
    "M": "M",
    "m": "m",
    "paths": "paths",
    "master_seed": "master_seed",
    "p_exponent": "p_exponent",
    "block_size": "block_size",
}
# Keys of a config file that a command reads (cli) and the run does not.
COMMAND_KEYS = ("mode", "slope_band", "slope_band_orders")


def config_jsonable(cfg: ExperimentConfig) -> dict:
    """Canonical plain-data form of a configuration (hash input): the
    process block from ``catalog.process_jsonable``, then the run fields."""
    data = {"process": process_jsonable(cfg.spec)}
    for key, name in RUN_FIELDS.items():
        value = getattr(cfg, name)
        data[key] = list(value) if isinstance(value, tuple) else value
    return data


def config_from_jsonable(data: Mapping) -> ExperimentConfig:
    """Build a config from plain data (the CLI's JSON schema): the process
    block goes to ``catalog.make_process``, the run fields of
    ``RUN_FIELDS`` to :class:`ExperimentConfig`; the ``COMMAND_KEYS`` are
    left to the command that reads them, and any other key is rejected.

    Malformed values of any type or shape raise :class:`ConfigError`.
    """
    try:
        data = dict(data)
        proc = dict(data.pop("process", {}))
        stray = set(data) - set(RUN_FIELDS) - set(COMMAND_KEYS)
        if stray:
            raise ConfigError(f"unknown config keys: {sorted(stray)}")
        run = {name: data[key] for key, name in RUN_FIELDS.items() if key in data}
        return ExperimentConfig(spec=make_process(proc.pop("kind", None), proc), **run)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from None


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical JSON of :func:`config_jsonable`; a config
    computes it once, for the CLI's line and its report alike."""
    return cfg._hash


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


@dataclass(frozen=True)
class DecayFit:
    """Log-log least squares: ``log err ~ intercept + slope * log(2N+1)``."""

    slope: float
    half_width: float
    intercept: float


def fit_loglog(widths: np.ndarray, errors: np.ndarray) -> DecayFit:
    """Least-squares slope of log(errors) against log(widths).

    ``half_width`` is the one-sigma standard error of the slope from the fit
    residuals (zero when only two points are given or the fit is exact).
    """
    widths = np.asarray(widths, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if widths.shape != errors.shape or widths.ndim != 1 or widths.size < 2:
        raise ValueError("need matching 1-d arrays with at least two points")
    if np.any(errors <= 0) or np.any(widths <= 0):
        raise ValueError("log fit requires positive widths and errors")
    x = np.log(widths)
    y = np.log(errors)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    if x.size > 2:
        s2 = float(np.sum(resid**2)) / (x.size - 2)
        half = math.sqrt(s2 / sxx)
    else:
        half = 0.0
    return DecayFit(slope=slope, half_width=half, intercept=intercept)


class _Report:
    """The two artifacts of a run, written the same way for every result:
    the CSV has the columns of ``csv_header``, one line per entry of
    ``rows``, numbers printed as ``repr``; the JSON holds the version, the
    config and its hash, the rows and the result's own keys
    (``_json_extra``)."""

    csv_header: ClassVar[str]

    def _row(self, n: int, N: int, **values) -> dict:
        cfg = self.config
        return dict(process=cfg.spec.label, n=n, N=N, m=cfg.m, P=cfg.paths, seed=cfg.master_seed,
                    **values)

    def csv_text(self) -> str:
        keys = self.csv_header.split(",")
        lines = [self.csv_header]
        for row in self.rows:
            lines.append(",".join(v if isinstance(v, str) else repr(v) for v in map(row.get, keys)))
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        return {
            "version": __version__,
            "config_hash": config_hash(self.config),
            "config": config_jsonable(self.config),
            "rows": self.rows,
            **self._json_extra(),
        }

    def json_text(self) -> str:
        return json.dumps(self.json_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True, eq=False)
class ExperimentResult(_Report):
    """Aggregated errors of the estimator, per order n and width N.

    Tables are indexed ``[order_index, width_index]`` with orders ascending
    (-M .. M) and widths in ``config.n_list`` order.  ``abs_errors`` and
    ``estimates`` are the per-path tensors (paths, widths, orders) of
    |estimate - truth| and of the raw estimates, built on each access from
    what the result keeps per path: the estimates at the orders ``n = 0 ..
    M`` and one truth row of those orders (``B_N(-n) = conj(B_N(n))``, and
    the truth mirrors the same way, so ``|err(-n)| = |err(n)|``).  They and
    ``runtime_seconds`` stay out of every serialization so identical
    configurations serialize identically.
    """

    csv_header: ClassVar[str] = CSV_HEADER
    config: ExperimentConfig
    mean_abs_err: np.ndarray = field(repr=False)
    lp_err: np.ndarray = field(repr=False)
    std_err: np.ndarray = field(repr=False)
    _estimates: np.ndarray = field(repr=False)  # (paths, widths, orders 0 .. M)
    _truth: np.ndarray = field(repr=False)  # (paths, orders 0 .. M)
    runtime_seconds: float = 0.0
    _fits: dict[int, DecayFit] = field(default_factory=dict, init=False, repr=False)  # by order

    @cached_property
    def rows(self) -> list[dict]:
        return [
            self._row(
                n,
                N,
                mean_abs_err=float(self.mean_abs_err[oi, wi]),
                lp_err=float(self.lp_err[oi, wi]),
                std_err=float(self.std_err[oi, wi]),
            )
            for oi, n in enumerate(self.config.orders)
            for wi, N in enumerate(self.config.n_list)
        ]

    @property
    def abs_errors(self) -> np.ndarray:
        return _mirror(np.abs(self._estimates - self._truth[:, None, :]), axis=-1)

    @property
    def estimates(self) -> np.ndarray:
        return _mirror(self._estimates, axis=-1)

    def _json_extra(self) -> dict:
        return {"decay": {str(n): asdict(fit_decay(self, n)) for n in self.config.orders}}


def _mirror(half: np.ndarray, axis: int) -> np.ndarray:
    """The orders ``-M .. M`` along ``axis`` from the orders ``0 .. M`` of
    ``half``: entry -n is entry n, conjugated when complex."""
    M = half.shape[axis] - 1
    full = np.take(half, np.abs(np.arange(-M, M + 1)), axis=axis)
    if np.iscomplexobj(full):
        negative = np.moveaxis(full, axis, 0)[:M]
        np.conjugate(negative, out=negative)
    return full


def fit_decay(result: ExperimentResult, n: int = 0) -> DecayFit:
    """Decay fit of the sample L^p error against 2N+1 for one order n,
    fitted once per result, for the CLI's lines and the report alike."""
    cfg = result.config
    if abs(n) > cfg.M:
        raise ValueError(f"order {n} outside |n| <= {cfg.M}")
    if n not in result._fits:
        widths = np.array([2 * N + 1 for N in cfg.n_list], dtype=float)
        result._fits[n] = fit_loglog(widths, result.lp_err[n + cfg.M])
    return result._fits[n]


TILE_BYTES = 256 * 1024  # one (rows, m) float64 array of a tile fits in this
_TILE_MAX_ROWS = 16  # taller tiles grow synthesized identify's temporaries and gain no time
_ONE_WORKER_MAX_M = 1024  # a run at m up to this works its tiles on one thread (see _workers)


def tile_rows(cfg: ExperimentConfig) -> int:
    """Rows per tile: one (rows, m) float array in ``TILE_BYTES``, at most 16
    rows and ``block_size``: 16 rows at m=1024, 8 at 4096, 2 at 16384.
    Whether helpers start turns on m, not on the rows or the tile count
    (:func:`_workers`)."""
    return min(cfg.block_size, _TILE_MAX_ROWS, max(1, TILE_BYTES // (8 * cfg.m)))


@dataclass(frozen=True, eq=False)
class Tile:
    """Paths ``lo ..`` of one tile: W's nodes and increments, dX, ``F_k(dX)``
    (``|k| <= N + M``), ``F_l(dW)`` (``|l| <= max(N + M, 2M)``, the orders
    that the drift step reads; the windows and the truth take the centre)
    and the windows (rows, orders -M .. M, widths), with the worker's flat
    complex scratch, which holds an rfft spectrum of the rows or any window's
    products, and ``scratch``, its real view (rows, m).  Once the
    coefficients are taken, dX's rows and both scratch arrays are free.
    ``dw`` is None where the run keeps no dW (:func:`_run_tiles`): dX then
    lies in dW's rows, and a consumer that reads dW fails instead of reading
    dX.  W, dW, dX and the scratch are views on the worker's buffers, which
    its next tile overwrites: they are valid only inside the callback, so
    keep a copy of what must outlive it.  The coefficients and the windows
    are the tile's own; the coefficients are stored order-major, as
    ``sfc.coefficients`` returns them."""

    lo: int
    w: np.ndarray
    dw: np.ndarray | None
    dx: np.ndarray
    f_coef: np.ndarray
    i_coef: np.ndarray
    est: np.ndarray
    scratch: np.ndarray
    complex_scratch: np.ndarray


def _tile_buffers(
    cfg: ExperimentConfig, widths: tuple[int, ...], keep_dw: bool = True
) -> tuple[int, int, int]:
    """Rows per tile, the (rows, m) float arrays of a worker besides W, and
    the length of its flat complex scratch: the rfft spectrum (which also
    covers the real view's m floats a row) or the band-M windows' products,
    whichever is longer.  dW and dX share one array unless ``keep_dw``: the
    sweep and synthesized identify without a lower triangle read no dW after
    its transform, while closed-form identify transforms ``dX - a dW +
    correction`` and the synthesized step with a lower triangle ``i dW``."""
    rows = tile_rows(cfg)
    complex_size = rows * max(cfg.m // 2 + 1, (2 * max(max(widths), cfg.M) + 1) * (cfg.M + 1))
    return rows, 2 if keep_dw else 1, complex_size


def _workers(cfg: ExperimentConfig, rows: int) -> int:
    """Threads that work a run's tiles: one at ``m <= _ONE_WORKER_MAX_M``,
    else ``resolve_threads()``, at most one a tile.

    Two workers against one, as the speed ratio of medians over 10 fresh
    processes a side on a 2-vCPU host, at P=100 unless noted, with N = m/16
    (N=256 at m=4096): synthesized identify, closed form and the sweep.

    - m=512, 16-row tiles: 0.59x (synthesized), 0.68x (sweep).
    - m=1024, 16 rows: 0.85-0.86x, 0.86-0.93x, 0.86-0.93x; 0.87x and 0.90x
      at P=400, 0.89x for the sweep at P=2000 (125 tiles).  8 rows: 0.92x
      (closed form); 4 rows: 0.69x (sweep).
    - m=1536, 16 rows: 0.97x, 1.13x, 1.13x.
    - m=2048, 16 rows (7 tiles): 1.14x, 1.21x, 1.06x; 1.10x and 1.26x at
      P=200.  4 rows: 0.92x (sweep).
    - m=4096, 8 rows: 1.35x (closed form), 1.28x at P=200.  4 rows: 1.07x,
      1.26x, 1.14x; 2 rows: 1.34x (closed form).

    So two lost at every m <= 1024 measured, whatever the rows or the tile
    count, and won at m >= 1536 but for the synthesized step at m=1536 and
    4-row sweep tiles at m=2048, which keep two workers.  A helper also
    holds its own tile buffers, which a run at m <= 1024 does not allocate.
    Hosts with more than two CPUs were not measured.
    """
    if cfg.m <= _ONE_WORKER_MAX_M:
        return 1
    return min(resolve_threads(), -(-cfg.paths // rows))


def _run_tiles(
    cfg: ExperimentConfig, st: SpecTables, widths: tuple[int, ...], work, *, keep_dw: bool = True
) -> None:
    """Build every tile of paths and hand it to ``work``.

    The calling thread works the first tile alone, so that the run's
    one-time costs are paid once; then it and ``resolve_threads() - 1``
    helper threads (fewer when there are fewer tiles, and none at m <= 1024,
    where a second worker made every measured run slower: :func:`_workers`)
    each take the next tile start from one shared counter until none is
    left.  A worker whose tile raises takes no further tile, and the others
    take none past the current start either; every helper is joined before
    the failing tile with the lowest path index raises, so a failure is
    reported as the one-thread run reports it.

    Each worker thread allocates its buffers and its generator at its first
    tile and fills them in place for every later one, so a tile makes no array
    of a tile's size: dW and W (drawn by ``brownian.sample_rows``), dX, and one
    flat complex scratch.  The dW transform is taken first, so where the
    consumer reads no dW (``keep_dw=False``: the sweep, and synthesized
    identify without a lower triangle, :func:`_tile_buffers`) dX is built in
    dW's rows, the worker holds three buffers, and the tile's ``dw`` is None.
    The scratch's real view holds a and then the drift's ``b / m`` until dX
    is complete; then it holds the rfft spectrum of each transform and the
    window products, of a width N or of the band M (each transform copies its
    orders out of it first).  The drift step writes its transform input (``dX
    - a dW + correction`` or ``i dW``) into dX's rows.  Besides, a sweep tile
    allocates the two coefficient arrays it keeps, and for the windows the
    gather of I (2N + 1 complex numbers a row), numpy's 8 KiB multiply buffer
    and the windows themselves.

    Threads overlap the sampling and the transforms, and little else.  Each
    stage of a sweep tile at the perfbench config (8 rows, m=4096), run alone
    on two threads of a 2-vCPU host, went at this multiple of its one-thread
    rate: sampling with X 1.7x, the two transforms 1.7-1.8x, the windows
    0.9x, the truth and the store 0.7x.  The last two are many short numpy
    loops and calls, whose overhead does not overlap.
    """
    m, n_max = cfg.m, max(widths)
    rows, row_arrays, complex_size = _tile_buffers(cfg, widths, keep_dw)
    L = max(n_max + cfg.M, 2 * cfg.M)  # the dW orders the drift step reads
    local = threading.local()

    def buffers() -> tuple[np.ndarray, ...]:
        """This thread's W, dW, dX and complex scratch."""
        if not hasattr(local, "buffers"):
            dw = np.empty((rows, m))
            local.buffers = (
                np.empty((rows, m + 1)),
                dw,
                np.empty((rows, m)) if row_arrays == 2 else dw,  # dX goes after F(dW)
                np.empty(complex_size, dtype=complex),
            )
            local.rng = None
        return local.buffers

    def one(lo: int) -> None:
        count = min(cfg.paths, lo + rows) - lo
        *real, complex_scratch = buffers()
        w, dw, dx = (b[:count] for b in real)
        scratch = complex_scratch.view(float)[: count * m].reshape(count, m)
        spectrum = complex_scratch[: count * (m // 2 + 1)].reshape(count, m // 2 + 1)
        local.rng = sample_rows(cfg.master_seed, lo, dw, w, local.rng)
        i_coef = coefficients(dw, L, spectrum)  # order l at column l + L
        _, _, dx = block_functionals(st, w, out=(scratch, scratch, dx))
        f_coef = coefficients(dx, n_max + cfg.M, spectrum)  # order k at column k + n_max + M
        est = band_windows(f_coef, i_coef[:, L - n_max : L + n_max + 1], cfg.M, widths,
                           complex_scratch)
        work(Tile(lo, w, dw if keep_dw else None, dx, f_coef, i_coef, est, scratch,
                  complex_scratch))

    starts = range(0, cfg.paths, rows)
    threads = _workers(cfg, rows)
    pending = iter(starts)
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
        # the first tile runs alone: it pays the run's one-time costs (lazy
        # imports, FFT plans) without a helper contending for them
        if step():
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


def _require_finite(name: str, values: np.ndarray, lo: int, orders, widths) -> None:
    """Name the first path (then order, width) whose ``values`` (rows, orders,
    widths) are not finite."""
    if np.isfinite(values).all():
        return
    r, oi, wi = np.argwhere(~np.isfinite(values))[0]
    raise NumericalFailureError(
        f"non-finite {name} for path {lo + r} (n={orders[oi]}, N={widths[wi]})"
    )


_SUM_ROWS = 1 << 25  # rows per bucket pass: every bucket total stays an integer below 2**53
_SUM_COLUMNS = 8  # columns per pass: all 63 of a 2000-path sweep at once add 8% to its peak RSS


def _column_fsum(x: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each column of a (P, C) float array:
    bitwise ``math.fsum`` of the column, in a fixed number of numpy passes.

    ``np.frexp`` writes each value as ``mant * 2**e``, and ``mant * 2**27``
    splits exactly into its floor, an integer of at most 27 bits, and a
    fraction, a multiple of 2**-26 in [0, 1).  ``np.bincount`` adds each part
    per column and exponent; over at most ``_SUM_ROWS`` rows those totals are
    multiples of 1 and of 2**-26 below 2**52 and 2**25, so they are exact in
    float64, and ``np.ldexp`` scales them by ``2**(e - 27)`` exactly,
    subnormals included.  The buckets then hold the column's exact sum, and
    one short ``math.fsum`` over them rounds it as fsum over the column
    would.  A column holding an infinity or a NaN sums to ``np.sum`` of it;
    the magnitudes of a finite column must sum to a finite float.
    """
    finite = np.isfinite(x)
    if not finite.all():
        sums = _column_fsum(np.where(finite, x, 0.0))
        bad = ~finite.all(axis=0)
        sums[bad] = np.sum(x[:, bad], axis=0)
        return sums
    columns = x.shape[1]
    buckets = []
    for r in range(0, len(x), _SUM_ROWS):
        mant, exp = np.frexp(x[r : r + _SUM_ROWS])
        mant *= 2.0**27
        whole = np.floor(mant)
        mant -= whole
        e_min = int(exp.min())
        n_exp = int(exp.max()) - e_min + 1
        index = (exp + (np.arange(columns) * n_exp - e_min)).ravel()
        scale = np.arange(e_min - 27, e_min - 27 + n_exp)
        for part in (whole, mant):
            totals = np.bincount(index, weights=part.ravel(), minlength=columns * n_exp)
            buckets.append(np.ldexp(totals.reshape(columns, n_exp), scale))
    return np.array([math.fsum(row) for row in np.concatenate(buckets, axis=1).tolist()])


def _path_statistics(values: np.ndarray, p: float | None = None) -> np.ndarray:
    """Per column of ``values`` (paths, C), from exact sums (:func:`_column_fsum`):
    row 0 the mean, ``fsum(x) / P``; row 1 the sample variance, ``fsum((x -
    mean)**2) / (P - 1)``; given p, row 2 the mean of ``x**p``.  The squares
    are ``np.square``, one rounded multiply; other powers ``np.power``.  A
    term that overflows gives an infinite statistic for the caller to name.
    The one reduction kernel of both results, a few columns per pass to keep
    the temporaries small."""
    P, C = values.shape
    stats = np.empty((2 if p is None else 3, C))
    for c in range(0, C, _SUM_COLUMNS):
        cols = slice(c, c + _SUM_COLUMNS)
        x = np.ascontiguousarray(values[:, cols])
        stats[0, cols] = mean = _column_fsum(x) / P
        with np.errstate(over="ignore"):
            stats[1, cols] = _column_fsum(np.square(x - mean)) / (P - 1)
            if p is not None:
                stats[2, cols] = _column_fsum(np.square(x) if p == 2 else np.power(x, p)) / P
    return stats


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# the spec's tables of m floats: f, g, c, the derivative table's u and v,
# the correction, the drift step's ramp and one temporary
_TABLE_ARRAYS = 8


def _require_run_fits(
    cfg: ExperimentConfig, widths: tuple[int, ...], bytes_per_path: int, keep_dw: bool = True
) -> None:
    """Refuse a run that physical memory cannot hold: its per-path results,
    the spec's tables (at most ``_TABLE_ARRAYS`` arrays of m floats) and the
    buffers of every tile worker, as :func:`_tile_buffers` counts them for
    ``keep_dw`` (four, or three where dX is built in dW's rows).  It could
    not finish, so it fails before the tables or any tile are built."""
    rows, row_arrays, complex_size = _tile_buffers(cfg, widths, keep_dw)
    workers = _workers(cfg, rows)
    results = cfg.paths * bytes_per_path
    need = results + 8 * _TABLE_ARRAYS * cfg.m + workers * (
        8 * rows * (row_arrays * cfg.m + cfg.m + 1) + 16 * complex_size
    )
    have = _physical_memory()
    if have is not None and need > have:
        owners = "tile worker's" if workers == 1 else "tile workers'"
        raise ConfigError(
            f"{cfg.paths} paths need {results:,} bytes of per-path results, and with the "
            f"spec's tables and {workers} {owners} buffers the run needs {need:,} bytes, "
            f"more than the {have:,} bytes of physical memory"
        )


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the sweep; see the module docstring for the determinism contract."""
    started = time.perf_counter()
    M, widths = cfg.M, len(cfg.n_list)
    _require_run_fits(cfg, cfg.n_list, (widths + 1) * (M + 1) * 16, keep_dw=False)
    st = spec_tables(cfg.spec, TimeGrid(cfg.m))
    half = range(M + 1)  # the orders kept; n < 0 mirrors them
    estimates = np.zeros((cfg.paths, widths, M + 1), dtype=complex)
    truth = np.zeros((cfg.paths, M + 1), dtype=complex)

    def work(tile: Tile) -> None:
        est = tile.est[:, M:]
        true = block_true_fourier_a(st, tile.w, half, tile.i_coef)
        err = np.abs(est - true[:, :, None])
        # |err(-n)| = |err(n)|: searched from n = M down, labelled -M .. 0, the
        # first non-finite entry is the one the full band -M .. M shows first
        _require_finite("estimate", err[:, ::-1], tile.lo, cfg.orders[: M + 1], cfg.n_list)
        hi = tile.lo + len(err)
        estimates[tile.lo : hi] = est.transpose(0, 2, 1)
        truth[tile.lo : hi] = true

    _run_tiles(cfg, st, cfg.n_list, work, keep_dw=False)  # the truth reads I, not dW

    p = cfg.p_exponent
    stats = np.empty((3, widths, M + 1))
    for wi in range(widths):  # the errors of one width at a time, as the tiles found them
        stats[:, wi] = _path_statistics(np.abs(estimates[:, wi] - truth), p)
    mean_abs, var, power = _mirror(stats, axis=-1).transpose(0, 2, 1)
    lp = power ** (1.0 / p)
    se = np.sqrt(var / cfg.paths)
    failures = {
        f"L^p error overflows at p={p}": ~np.isfinite(lp),
        f"L^p error underflows to 0 at p={p}": (lp == 0) & (mean_abs > 0),
        "standard error overflows": ~np.isfinite(se),
    }
    for name, bad in failures.items():
        if bad.any():
            oi, wi = np.argwhere(bad)[0]
            raise NumericalFailureError(f"{name} (n={cfg.orders[oi]}, N={cfg.n_list[wi]})")
    return ExperimentResult(
        config=cfg,
        mean_abs_err=mean_abs,
        lp_err=lp,
        std_err=se,
        _estimates=estimates,
        _truth=truth,
        runtime_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True, eq=False)
class IdentifyResult(_Report):
    """Per-path estimates of both coefficient processes at width
    ``N = max(config.n_list)``: ``a_hat`` and ``b_hat`` have shape (paths,
    orders), orders ascending, built on each access from the orders ``n = 0
    .. M`` that the result keeps (both are exact conjugates at ``n < 0``, as
    ``band_windows`` and ``drift_coefficients`` build them).  They stay out
    of :meth:`json_dict`."""

    csv_header: ClassVar[str] = IDENTIFY_CSV_HEADER
    config: ExperimentConfig
    mode: str
    _a_hat: np.ndarray = field(repr=False)  # (paths, orders 0 .. M)
    _b_hat: np.ndarray = field(repr=False)  # (paths, orders 0 .. M)

    @property
    def a_hat(self) -> np.ndarray:
        return _mirror(self._a_hat, axis=-1)

    @property
    def b_hat(self) -> np.ndarray:
        return _mirror(self._b_hat, axis=-1)

    @cached_property
    def rows(self) -> list[dict]:
        """Per order: the complex sample mean and the scalar standard error
        ``sqrt((var(re) + var(im)) / paths)`` of each coefficient, reduced
        once and shared by both artifacts.  Only the orders ``n = 0 .. M``
        are reduced; at ``-n`` the imaginary column is negated, so the mean
        is the conjugate and both variances, and the standard error, are the
        same, exactly.  (An exact sum of zero is +0 either way, hence ``0 -
        mean``; only a nonzero sum below P times the least subnormal would
        round to a zero of the other sign.)"""
        cfg = self.config
        # columns re, im of each order of a, then of b
        parts = np.concatenate([self._a_hat, self._b_hat], axis=1).view(float)
        mean, var = _path_statistics(parts).reshape(2, 2, cfg.M + 1, 2)
        se = _mirror(np.sqrt((var[..., 0] + var[..., 1]) / cfg.paths), axis=-1)
        mean = _mirror(mean, axis=1)
        mean[:, : cfg.M, 1] = 0.0 - mean[:, : cfg.M, 1]  # the conjugates at n < 0
        rows = []
        for oi, n in enumerate(cfg.orders):
            row = self._row(n, max(cfg.n_list), mode=self.mode)
            for ci, name in enumerate("ab"):
                if not math.isfinite(se[ci, oi]):
                    raise NumericalFailureError(f"{name}_se overflows (n={n}, N={row['N']})")
                row[f"{name}_mean_re"], row[f"{name}_mean_im"] = mean[ci, oi].tolist()
                row[f"{name}_se"] = float(se[ci, oi])
            rows.append(row)
        return rows

    def _json_extra(self) -> dict:
        return {"mode": self.mode}


def run_identify(cfg: ExperimentConfig, mode: str) -> IdentifyResult:
    """Estimate a and recover b on every path, at width N = max(cfg.n_list).

    The paths run on the sweep's tiles, so ``a_hat`` is bitwise the sweep's
    estimate at width N and the determinism contract is the sweep's.  Each
    tile takes b from ``bohr.drift_coefficients``, the drift step that
    ``recover_b`` takes too, on the tile's ``F_k(dX)``, ``|k| <= N + M``, and
    ``I_l = F_l(dW)``, ``|l| <= max(N + M, 2M)``, so ``b_hat`` is bitwise its
    value per path.  Only the closed form builds the true a at the nodes; the
    synthesized step reads coefficient rows and the truth's coefficients.
    """
    N = BohrConfig(N=max(cfg.n_list), M=cfg.M, mode=mode).N
    # the closed form transforms dX - a dW + correction, and the synthesized
    # step i dW where a's derivative table has a lower triangle (alpha != 0)
    keep_dw = mode == CLOSED_FORM or cfg.spec.record.alpha != 0
    _require_run_fits(cfg, (N,), 2 * (cfg.M + 1) * 16, keep_dw)
    st = spec_tables(cfg.spec, TimeGrid(cfg.m))
    a_hat = np.empty((cfg.paths, cfg.M + 1), dtype=complex)  # n < 0 mirrors n > 0
    b_hat = np.empty_like(a_hat)

    def work(tile: Tile) -> None:
        a = tile.est[:, :, 0]
        _require_finite("a_hat", tile.est, tile.lo, cfg.orders, (N,))
        # the true a at the left tags, which only the closed form reads
        diffusion = block_diffusion(st, tile.w, tile.scratch) if mode == CLOSED_FORM else None
        # F(dX) is taken, so the drift step's transform input goes into dX's rows
        b = drift_coefficients(
            st, mode, tile.w, tile.dw, tile.dx, diffusion, a, tile.f_coef, tile.i_coef,
            out=(tile.dx, tile.complex_scratch),
        )
        _require_finite("b_hat", b[:, :, None], tile.lo, cfg.orders, (N,))
        a_hat[tile.lo : tile.lo + len(a)] = a[:, cfg.M :]
        b_hat[tile.lo : tile.lo + len(a)] = b[:, cfg.M :]

    _run_tiles(cfg, st, (N,), work, keep_dw=keep_dw)
    return IdentifyResult(config=cfg, mode=mode, _a_hat=a_hat, _b_hat=b_hat)
