"""Monte Carlo experiments for the coefficient estimator: the convergence
sweep and coefficient identification, on one engine.  Paths run in row tiles
of at most ``block_size`` rows, and of at most as many as keep one (rows, m)
float array within ``TILE_BYTES``.  Each tile is sampled, gets X from tables
built once per run, one transform each of dX and dW and all its Bohr windows
from one ``bohr.band_windows`` call; ``run_identify`` recovers b on the same
tile.  Each worker thread fills the same buffers for every tile it builds,
so a :class:`Tile`'s arrays are views on them, valid only inside the
callback that receives it.

Determinism contract
--------------------
Results are a pure function of the configuration, and ``run_identify``
keeps the same contract as the sweep:

* every path comes from its own counter-based substream keyed by
  ``(master_seed, path_index)``;
* every step treats each row on its own -- the coefficient transform is one
  real FFT per row, and the windows' cumsum runs along each row -- so
  per-path outputs are bitwise independent of the tile a path lands in, of
  ``block_size``, of the worker schedule and of the run's total P (prefix
  property);
* per-path statistics land in arrays indexed by path, and all reductions run
  afterwards in ascending path order with exactly rounded (compensated)
  summation via ``math.fsum``.

``SFC_LAB_THREADS`` caps how many tiles are processed concurrently and has
no effect on any reported number.  Wall-clock time is kept on the in-memory
result only; serialized artifacts contain nothing volatile, so identical
configurations yield identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import sha256
from typing import Mapping

import numpy as np

from . import __version__
from .bohr import BohrConfig, band_windows, drift_coefficients, grid_supports
from .catalog import (
    ProcessSpec,
    SpecTables,
    TrigPoly,
    block_functionals,
    block_true_fourier_a,
    make_process,
    spec_tables,
)
from .errors import ConfigError, NumericalFailureError
from .grid import TimeGrid
from .brownian import SeedSpec, substream
from .sfc import coefficients

THREADS_ENV = "SFC_LAB_THREADS"

CSV_HEADER = "process,n,N,m,P,seed,mean_abs_err,lp_err,std_err"
IDENTIFY_CSV_HEADER = (
    "process,n,N,m,P,seed,mode,a_mean_re,a_mean_im,a_se,b_mean_re,b_mean_im,b_se"
)


def _csv_text(header: str, rows) -> str:
    """The header's columns, one line per row; numbers print as ``repr``."""
    keys = header.split(",")
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in map(row.get, keys)))
    return "\n".join(lines) + "\n"


def _json_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


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
        for name in ("M", "m", "paths", "master_seed", "block_size"):
            _require_int(name, getattr(self, name))
        for N in self.n_list:
            _require_int("each n_list entry", N)
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
        if self.block_size < 1:
            raise ConfigError(f"block_size must be >= 1, got {self.block_size}")
        if not 0 <= self.master_seed <= 2**64 - 1:
            raise ConfigError(f"master_seed must fit in uint64, got {self.master_seed}")

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(-self.M, self.M + 1))


def _table_jsonable(table) -> object:
    if table is None:
        return None
    if isinstance(table, TrigPoly):
        return {"coeffs": {str(k): [c.real, c.imag] for k, c in table.coeffs}}
    return {"values": [float(v) for v in np.asarray(table)]}


def table_from_jsonable(obj) -> object:
    """Inverse of the table serialization used in configs and reports."""
    if obj is None:
        return None
    if "coeffs" in obj:
        return TrigPoly.from_mapping(
            {int(k): complex(v[0], v[1]) for k, v in obj["coeffs"].items()}
        )
    return np.asarray(obj["values"], dtype=float)


def config_jsonable(cfg: ExperimentConfig) -> dict:
    """Canonical plain-data form of a configuration (hash input)."""
    return {
        "process": {
            "kind": cfg.spec.kind,
            "f": _table_jsonable(cfg.spec.f),
            "drift": cfg.spec.drift_kind,
            "g": _table_jsonable(cfg.spec.g),
        },
        "N_list": list(cfg.n_list),
        "M": cfg.M,
        "m": cfg.m,
        "paths": cfg.paths,
        "master_seed": cfg.master_seed,
        "p_exponent": cfg.p_exponent,
        "block_size": cfg.block_size,
    }


def config_from_jsonable(data: Mapping) -> ExperimentConfig:
    """Build a config from plain data (the CLI's JSON schema).

    Malformed values of any type or shape raise :class:`ConfigError`.
    """
    try:
        return _config_from_jsonable(dict(data))
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"malformed config: {exc!r}") from None


def _config_from_jsonable(data: dict) -> ExperimentConfig:
    proc = dict(data.pop("process", {}))
    kind = proc.pop("kind", None)
    if kind is None:
        raise ConfigError("config needs process.kind")
    params: dict = {}
    if proc.get("f") is not None:
        params["f"] = table_from_jsonable(proc["f"])
    drift = proc.get("drift", "none")
    if proc.get("g") is not None:
        params["g"] = table_from_jsonable(proc["g"])
        params["drift"] = drift
    elif drift not in (None, "none"):
        raise ConfigError(f"drift {drift!r} requires a table g")
    spec = make_process(kind, params)
    kwargs = {}
    for src, dst in (
        ("N_list", "n_list"),
        ("M", "M"),
        ("m", "m"),
        ("paths", "paths"),
        ("master_seed", "master_seed"),
        ("p_exponent", "p_exponent"),
        ("block_size", "block_size"),
    ):
        if src in data:
            value = data.pop(src)
            kwargs[dst] = tuple(value) if dst == "n_list" else value
    known_extra = {"mode", "slope_band", "slope_band_orders"}
    stray = set(data) - known_extra
    if stray:
        raise ConfigError(f"unknown config keys: {sorted(stray)}")
    return ExperimentConfig(spec=spec, **kwargs)


def config_hash(cfg: ExperimentConfig) -> str:
    payload = json.dumps(config_jsonable(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode()).hexdigest()


def resolve_threads() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None or raw.strip() == "":
        return 1
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


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Aggregated errors of the estimator, per order n and width N.

    Tables are indexed ``[order_index, width_index]`` with orders ascending
    (-M .. M) and widths in ``config.n_list`` order.  ``abs_errors`` and
    ``estimates`` keep the per-path tensors (paths, widths, orders) of
    |estimate - truth| and of the raw estimates; they and ``runtime_seconds``
    stay out of every serialization so identical configurations serialize
    identically.
    """

    config: ExperimentConfig
    mean_abs_err: np.ndarray = field(repr=False)
    lp_err: np.ndarray = field(repr=False)
    std_err: np.ndarray = field(repr=False)
    abs_errors: np.ndarray = field(repr=False)
    estimates: np.ndarray = field(repr=False)
    runtime_seconds: float = 0.0

    def row_iter(self):
        cfg = self.config
        for oi, n in enumerate(cfg.orders):
            for wi, N in enumerate(cfg.n_list):
                yield {
                    "process": cfg.spec.label,
                    "n": n,
                    "N": N,
                    "m": cfg.m,
                    "P": cfg.paths,
                    "seed": cfg.master_seed,
                    "mean_abs_err": float(self.mean_abs_err[oi, wi]),
                    "lp_err": float(self.lp_err[oi, wi]),
                    "std_err": float(self.std_err[oi, wi]),
                }

    def csv_text(self) -> str:
        return _csv_text(CSV_HEADER, self.row_iter())

    def json_dict(self) -> dict:
        decay = {}
        for oi, n in enumerate(self.config.orders):
            fit = fit_decay(self, n)
            decay[str(n)] = {
                "slope": fit.slope,
                "half_width": fit.half_width,
                "intercept": fit.intercept,
            }
        return {
            "version": __version__,
            "config_hash": config_hash(self.config),
            "config": config_jsonable(self.config),
            "rows": list(self.row_iter()),
            "decay": decay,
        }

    def json_text(self) -> str:
        return _json_text(self.json_dict())


def fit_decay(result: ExperimentResult, n: int = 0) -> DecayFit:
    """Decay fit of the sample L^p error against 2N+1 for one order n."""
    cfg = result.config
    if abs(n) > cfg.M:
        raise ValueError(f"order {n} outside |n| <= {cfg.M}")
    widths = np.array([2 * N + 1 for N in cfg.n_list], dtype=float)
    return fit_loglog(widths, result.lp_err[n + cfg.M])


TILE_BYTES = 128 * 1024  # one (rows, m) float64 array of a tile fits in this


def tile_rows(cfg: ExperimentConfig) -> int:
    """Rows per tile: one (rows, m) float array in ``TILE_BYTES``, at most ``block_size``."""
    return min(cfg.block_size, max(1, TILE_BYTES // (8 * cfg.m)))


@dataclass(frozen=True, eq=False)
class Tile:
    """Paths ``lo ..`` of one tile: W's nodes and increments, a at the left
    tags, dX, ``F_k(dX)`` (``|k| <= N + M``), ``F_l(dW)`` (``|l| <= N``) and
    the windows (rows, orders, widths).  W, dW, a and dX are views on the
    worker's buffers, which its next tile overwrites: they are valid only
    inside the callback, so keep a copy of what must outlive it."""

    lo: int
    w: np.ndarray
    dw: np.ndarray
    a: np.ndarray
    dx: np.ndarray
    f_coef: np.ndarray
    i_coef: np.ndarray
    est: np.ndarray


def _run_tiles(cfg: ExperimentConfig, st: SpecTables, widths: tuple[int, ...], work) -> None:
    """Build every tile of paths and hand it to ``work``, on up to
    ``SFC_LAB_THREADS`` threads; the first failing tile in path order raises.

    Each worker thread allocates its buffers and its generator at its first
    tile and fills them in place for every later one, so a tile makes no
    array of a tile's size: xi (turned into dW in place), W, a, dX, the
    drift's scratch, the rfft spectrum both transforms share and the window
    products.
    """
    m, n_max, rows = cfg.m, max(widths), tile_rows(cfg)
    local = threading.local()

    def buffers() -> tuple[np.ndarray, ...]:
        """This thread's xi, a, scratch, dX, W, spectrum and window products."""
        if not hasattr(local, "buffers"):
            local.buffers = (
                *(np.empty((rows, m)) for _ in range(4)),
                np.zeros((rows, m + 1)),  # column 0 stays W_0 = 0
                np.empty((rows, m // 2 + 1), dtype=complex),
                np.empty((rows, cfg.M + 1, 2 * n_max + 1), dtype=complex),
            )
            local.rng = None
        return local.buffers

    def one(lo: int) -> None:
        count = min(cfg.paths, lo + rows) - lo
        xi, a, scratch, dx, w, spectrum, products = (b[:count] for b in buffers())
        for r in range(count):
            local.rng = substream(SeedSpec(cfg.master_seed, lo + r), local.rng)
            local.rng.standard_normal(out=xi[r])
        dw = np.divide(xi, np.sqrt(m), out=xi)
        np.cumsum(dw, axis=1, out=w[:, 1:])
        a, _, dx = block_functionals(st, w, out=(a, scratch, dx))
        f_coef = coefficients(dx, n_max + cfg.M, spectrum)  # order k at column k + n_max + M
        i_coef = coefficients(dw, n_max, spectrum)
        est = band_windows(f_coef, i_coef, cfg.M, widths, products)
        work(Tile(lo, w, dw, a, dx, f_coef, i_coef, est))

    starts = range(0, cfg.paths, rows)
    threads = min(resolve_threads(), len(starts))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, starts))
    else:
        for lo in starts:
            one(lo)


def _require_finite(name: str, values: np.ndarray, lo: int, orders, widths) -> None:
    """Name the first path (then order, width) whose ``values`` (rows, orders,
    widths) are not finite."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, oi, wi = bad[0]
        raise NumericalFailureError(
            f"non-finite {name} for path {lo + r} (n={orders[oi]}, N={widths[wi]})"
        )


def _mean_var(vals: list[float]) -> tuple[float, float]:
    """Exactly rounded mean and sample variance, summed in path order."""
    mean = math.fsum(vals) / len(vals)
    return mean, math.fsum([(v - mean) ** 2 for v in vals]) / (len(vals) - 1)


def run_convergence(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the sweep; see the module docstring for the determinism contract."""
    started = time.perf_counter()
    st = spec_tables(cfg.spec, TimeGrid(cfg.m))
    abs_err = np.zeros((cfg.paths, len(cfg.n_list), len(cfg.orders)))
    estimates = np.zeros((cfg.paths, len(cfg.n_list), len(cfg.orders)), dtype=complex)

    def work(tile: Tile) -> None:
        truth = block_true_fourier_a(st, tile.w, cfg.orders, tile.i_coef)
        err = np.abs(tile.est - truth[:, :, None])
        _require_finite("estimate", err, tile.lo, cfg.orders, cfg.n_list)
        hi = tile.lo + len(err)
        abs_err[tile.lo : hi] = err.transpose(0, 2, 1)
        estimates[tile.lo : hi] = tile.est.transpose(0, 2, 1)

    _run_tiles(cfg, st, cfg.n_list, work)

    p = cfg.p_exponent
    shape = (len(cfg.orders), len(cfg.n_list))
    mean_abs = np.zeros(shape)
    lp = np.zeros(shape)
    se = np.zeros(shape)
    for oi in range(len(cfg.orders)):
        for wi in range(len(cfg.n_list)):
            vals = abs_err[:, wi, oi].tolist()
            mean, var = _mean_var(vals)
            mean_abs[oi, wi] = mean
            lp[oi, wi] = (math.fsum([v**p for v in vals]) / cfg.paths) ** (1.0 / p)
            se[oi, wi] = math.sqrt(var / cfg.paths)
    return ExperimentResult(
        config=cfg,
        mean_abs_err=mean_abs,
        lp_err=lp,
        std_err=se,
        abs_errors=abs_err,
        estimates=estimates,
        runtime_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True, eq=False)
class IdentifyResult:
    """Per-path estimates of both coefficient processes at width
    ``N = max(config.n_list)``: ``a_hat`` and ``b_hat`` have shape (paths,
    orders), orders ascending.  They stay out of :meth:`json_dict`."""

    config: ExperimentConfig
    mode: str
    a_hat: np.ndarray = field(repr=False)
    b_hat: np.ndarray = field(repr=False)

    @cached_property
    def rows(self) -> list[dict]:
        """Per order: the complex sample mean and the scalar standard error
        ``sqrt((var(re) + var(im)) / paths)`` of each coefficient, reduced
        once and shared by both artifacts."""
        cfg = self.config
        rows = []
        for oi, n in enumerate(cfg.orders):
            row = dict(process=cfg.spec.label, n=n, N=max(cfg.n_list), m=cfg.m, P=cfg.paths)
            row.update(seed=cfg.master_seed, mode=self.mode)
            for name, vals in (("a", self.a_hat[:, oi]), ("b", self.b_hat[:, oi])):
                row[f"{name}_mean_re"], var_re = _mean_var(vals.real.tolist())
                row[f"{name}_mean_im"], var_im = _mean_var(vals.imag.tolist())
                row[f"{name}_se"] = math.sqrt((var_re + var_im) / cfg.paths)
            rows.append(row)
        return rows

    def json_dict(self) -> dict:
        return {
            "version": __version__,
            "config_hash": config_hash(self.config),
            "config": config_jsonable(self.config),
            "mode": self.mode,
            "rows": self.rows,
        }

    def csv_text(self) -> str:
        return _csv_text(IDENTIFY_CSV_HEADER, self.rows)

    def json_text(self) -> str:
        return _json_text(self.json_dict())


def run_identify(cfg: ExperimentConfig, mode: str) -> IdentifyResult:
    """Estimate a and recover b on every path, at width N = max(cfg.n_list).

    The paths run on the sweep's tiles, so ``a_hat`` is bitwise the sweep's
    estimate at width N and the determinism contract is the sweep's.  Each
    tile takes b from ``bohr.drift_coefficients``, the drift step that
    ``recover_b`` takes too, so ``b_hat`` is bitwise its value per path.
    """
    N = BohrConfig(N=max(cfg.n_list), M=cfg.M, mode=mode).N
    st = spec_tables(cfg.spec, TimeGrid(cfg.m))
    a_hat = np.empty((cfg.paths, len(cfg.orders)), dtype=complex)
    b_hat = np.empty_like(a_hat)

    def work(tile: Tile) -> None:
        a = tile.est[:, :, 0]
        _require_finite("a_hat", tile.est, tile.lo, cfg.orders, (N,))
        b = drift_coefficients(
            st, mode, tile.w, tile.dw, tile.dx, tile.a, a, tile.f_coef, tile.i_coef
        )
        _require_finite("b_hat", b[:, :, None], tile.lo, cfg.orders, (N,))
        a_hat[tile.lo : tile.lo + len(a)] = a
        b_hat[tile.lo : tile.lo + len(a)] = b

    _run_tiles(cfg, st, (N,), work)
    return IdentifyResult(config=cfg, mode=mode, a_hat=a_hat, b_hat=b_hat)
