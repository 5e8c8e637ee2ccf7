"""Monte Carlo experiments for the coefficient estimator: the convergence
sweep and coefficient identification, on one tile engine (``engine``, which
states how paths are tiled, threaded and buffered).  ``run_identify``
recovers b on the sweep's tiles.  Both results keep the orders ``n = 0 ..
M`` of each path only: the sweep its estimates and one truth row, from which
it reduces |estimate - truth| one width at a time, and identification
``a_hat`` and ``b_hat``.  The increments are real, so ``B_N(-n) =
conj(B_N(n))``, the truth's coefficients and b mirror the same way, and the
orders ``n < 0`` of every table are copies (``sfc.mirror``).

Determinism contract
--------------------
Results are a pure function of the configuration, and ``run_identify``
keeps the same contract as the sweep:

* every path comes from its own counter-based substream keyed by
  ``(master_seed, path_index)``;
* every step treats each row on its own -- the coefficient transform is one
  real FFT per row, W_tau and W_1 are one sum of a row of dW each, W (built
  for ADAPTED_W and BRIDGE only) is one cumsum per row, and each window adds
  its row's products one by one in the same order whatever the rows beside
  it -- so per-path outputs are bitwise independent of the tile a path lands
  in, of ``block_size``, of the thread count and worker schedule and of the
  run's total P (prefix property);
* per-path statistics land in arrays indexed by path, and all reductions run
  afterwards as exact sums rounded once, bitwise what ``math.fsum`` gives in
  any order, by one vectorized kernel that both results share.

One property checks the contract,
``tests/test_experiment.py::test_per_path_results_ignore_threads_tiles_and_prefix``:
both results at one thread, default tiles and P paths against 2-3 threads,
2-16-row tiles and a prefix of the paths, bitwise per path, and against the
one-path calls ``identify_a`` and ``recover_b``.

Wall-clock time is kept on the in-memory result only; serialized artifacts
contain nothing volatile, so identical configurations yield identical bytes.

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
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from hashlib import sha256
from typing import ClassVar, Mapping

import numpy as np

from . import __version__
from .bohr import SYNTHESIZED, BohrConfig, drift_coefficients, grid_supports
from .catalog import ProcessSpec, block_true_fourier_a, make_process, process_jsonable, spec_tables
from .engine import Tile, _require_finite, _require_run_fits, _run_tiles
from .errors import ConfigError, NumericalFailureError
from .grid import TimeGrid
from .sfc import mirror

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
        return dict(process=cfg.spec.kind, n=n, N=N, m=cfg.m, P=cfg.paths, seed=cfg.master_seed,
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
        return mirror(np.abs(self._estimates - self._truth[:, None, :]))

    @property
    def estimates(self) -> np.ndarray:
        return mirror(self._estimates)

    def _json_extra(self) -> dict:
        return {"decay": {str(n): asdict(fit_decay(self, n)) for n in self.config.orders}}


def _require_decay_widths(cfg: ExperimentConfig) -> None:
    """Refuse a decay fit, and so a sweep's JSON report, over fewer than two widths."""
    if len(cfg.n_list) < 2:
        raise ConfigError(f"a decay slope needs at least two widths, got N_list={list(cfg.n_list)}")


def fit_decay(result: ExperimentResult, n: int = 0) -> DecayFit:
    """Decay fit of the sample L^p error against 2N+1 for one order n,
    fitted once per result, for the CLI's lines and the report alike."""
    cfg = result.config
    _require_decay_widths(cfg)
    if abs(n) > cfg.M:
        raise ValueError(f"order {n} outside |n| <= {cfg.M}")
    if n not in result._fits:
        widths = np.array([2 * N + 1 for N in cfg.n_list], dtype=float)
        result._fits[n] = fit_loglog(widths, result.lp_err[n + cfg.M])
    return result._fits[n]


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
        true = block_true_fourier_a(st, tile.terms, half, tile.i_coef)
        err = np.abs(tile.est - true[:, :, None])
        _require_finite("estimate", err, tile.lo, cfg.n_list)  # |err(-n)| = |err(n)|
        hi = tile.lo + len(err)
        estimates[tile.lo : hi] = tile.est.transpose(0, 2, 1)
        truth[tile.lo : hi] = true

    _run_tiles(cfg, st, cfg.n_list, work, keep_dw=False)  # the truth reads I, not dW

    p = cfg.p_exponent
    stats = np.empty((3, widths, M + 1))
    for wi in range(widths):  # the errors of one width at a time, as the tiles found them
        stats[:, wi] = _path_statistics(np.abs(estimates[:, wi] - truth), p)
    mean_abs, var, power = mirror(stats).transpose(0, 2, 1)
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
    .. M`` that the result keeps (both are exact conjugates at ``n < 0``).
    They stay out of :meth:`json_dict`."""

    csv_header: ClassVar[str] = IDENTIFY_CSV_HEADER
    config: ExperimentConfig
    mode: str
    _a_hat: np.ndarray = field(repr=False)  # (paths, orders 0 .. M)
    _b_hat: np.ndarray = field(repr=False)  # (paths, orders 0 .. M)

    @property
    def a_hat(self) -> np.ndarray:
        return mirror(self._a_hat)

    @property
    def b_hat(self) -> np.ndarray:
        return mirror(self._b_hat)

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
        se = mirror(np.sqrt((var[..., 0] + var[..., 1]) / cfg.paths))
        mean = mirror(mean, axis=1)
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
    value per path.  Neither mode builds a or dX at the nodes, and the closed
    form reads only the tile's coefficients.
    """
    N = BohrConfig(N=max(cfg.n_list), M=cfg.M, mode=mode).N
    # the synthesized step transforms i dW where a's table has a lower triangle
    keep_dw = mode == SYNTHESIZED and cfg.spec.record.alpha != 0
    _require_run_fits(cfg, (N,), 2 * (cfg.M + 1) * 16, keep_dw)
    st = spec_tables(cfg.spec, TimeGrid(cfg.m))
    a_hat = np.empty((cfg.paths, cfg.M + 1), dtype=complex)  # n < 0 mirrors n > 0
    b_hat = np.empty_like(a_hat)

    def work(tile: Tile) -> None:
        a = tile.est[:, :, 0]
        _require_finite("a_hat", tile.est, tile.lo, (N,))
        # F(dW) is taken, so the synthesized step's i dW goes into dW's rows
        b = drift_coefficients(
            st, mode, tile.terms, tile.dw, a, tile.f_coef, tile.i_coef, stochastic=tile.stochastic,
            out=(tile.dw, tile.complex_scratch),
        )
        _require_finite("b_hat", b[:, :, None], tile.lo, (N,))
        a_hat[tile.lo : tile.lo + len(a)] = a
        b_hat[tile.lo : tile.lo + len(a)] = b

    _run_tiles(cfg, st, (N,), work, keep_dw=keep_dw)
    return IdentifyResult(config=cfg, mode=mode, _a_hat=a_hat, _b_hat=b_hat)
