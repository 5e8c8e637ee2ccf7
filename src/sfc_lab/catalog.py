"""Catalog of processes dX = b dt + a dW with known closed forms.

Every catalog diffusion is affine in the path, ``a(t) = f(t) + alpha W_t +
beta W_tau``, so each kind is one record ``(f, alpha, beta, tau)``:

==================  =======  =====  ====  ===  ==========
kind                f        alpha  beta  tau  a(t)
==================  =======  =====  ====  ===  ==========
CONST               1        0      0     --   1
DET                 table f  0      0     --   f(t)
ADAPTED_W           0        1      0     --   W_t
NONCAUSAL_W1        0        0      1     1    W_1
NONCAUSAL_BRIDGE    0        -1     1     1    W_1 - W_t
NONCAUSAL_MIDPOINT  0        0      1     1/2  W_{1/2}
==================  =======  =====  ====  ===  ==========

Everything is written once from the record.  With the derivative table
``D_r a_i = (alpha 1[r < i] + beta 1[r < tau m]) / sqrt(m)`` -- a strict lower
triangle plus a rank-one term (a ``malliavin.DerivativeTable``; tau must be a
grid node) -- every kind has the one increment, with ``D_i a_i`` the table's
diagonal,

    dX_i = a_i dW_i - D_i a_i / sqrt(m) + b_i / m,

the discrete divergence of a plus the left Riemann drift.  Summed, the
stochastic part is the discrete Ito sum ``sum_{i < k} W_i dW_i`` for W_t and
``W_tau W_t - min(t, tau)`` for ``W_tau``, and X reproduces
``div(a conj(e_n))`` and the Fourier coefficients of a exactly on every path,
for every kind.

The drift ``b(t) = g(t)`` or ``W_1 g(t)`` (an anticipating drift of chaos
order 1, ``D_s b(t) = g(t)``) contributes the left Riemann accumulator
``(1/m) sum_{i: t_i < t} b(t_i)`` to X.  The same left tagging as every other
sum keeps the algebraic identities exact at the grid level; for
trigonometric-polynomial data, Fourier quantities agree with the continuum
values exactly by discrete orthogonality.  A :class:`TrigPoly` table reaches
the left tags through ``sfc.synthesize``, the inverse of the coefficient
transform; a node table is used as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Number
from typing import Mapping, Sequence

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigError
from .grid import TimeGrid
from .malliavin import DerivativeTable
from .sfc import coefficients, synthesize

CONST = "CONST"
DET = "DET"
ADAPTED_W = "ADAPTED_W"
NONCAUSAL_W1 = "NONCAUSAL_W1"
NONCAUSAL_BRIDGE = "NONCAUSAL_BRIDGE"
NONCAUSAL_MIDPOINT = "NONCAUSAL_MIDPOINT"

DRIFT_NONE = "none"
DRIFT_DET = "det"
DRIFT_W1 = "w1"
# b(t) = g(t) (g0 + g1 W_1): the weights (g0, g1) of each drift shape.
DRIFT_RECORDS = {DRIFT_NONE: (0.0, 0.0), DRIFT_DET: (1.0, 0.0), DRIFT_W1: (0.0, 1.0)}
DRIFT_KINDS = tuple(DRIFT_RECORDS)


def _is_bool(x) -> bool:
    return isinstance(x, (bool, np.bool_))


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial ``sum_k c_k exp(2 pi i k t)``.

    Stored as a sorted tuple of (frequency, coefficient) pairs with the
    conjugate symmetry ``c_{-k} = conj(c_k)`` enforced, so its values are
    real; they are taken at the left tags by ``sfc.synthesize``, like every
    other polynomial of the package.
    """

    coeffs: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        table = dict(self.coeffs)
        for k, c in table.items():
            if not np.isfinite(c):  # NaN would pass the symmetry test below
                raise ConfigError(f"coefficients must be finite; c[{k}]={c}")
        for k, c in table.items():
            mate = table.get(-k, 0.0)
            if abs(np.conj(c) - mate) > 1e-12:
                raise ConfigError(
                    f"coefficients must be conjugate-symmetric for a real polynomial; "
                    f"c[{k}]={c}, c[{-k}]={mate}"
                )

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, complex]) -> "TrigPoly":
        """From {frequency: coefficient}: integer keys (a bool is neither a
        frequency nor a coefficient) and finite numeric values."""
        for k, v in mapping.items():
            integer = isinstance(k, (int, np.integer)) and not _is_bool(k)
            if not (integer and isinstance(v, Number) and not _is_bool(v)):
                raise ConfigError(
                    f"a frequency mapping takes integer keys to numbers, got {mapping!r}"
                )
        return cls(tuple(sorted((int(k), complex(v)) for k, v in mapping.items())))

    def coeff(self, n: int) -> complex:
        return dict(self.coeffs).get(n, 0.0 + 0.0j)

    @property
    def max_freq(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=0)


def cosine(freq: int = 1, amplitude: float = 1.0) -> TrigPoly:
    """``amplitude * cos(2 pi freq t)`` as a TrigPoly."""
    half = amplitude / 2.0
    return TrigPoly.from_mapping({freq: half, -freq: half})


def constant(value: float = 1.0) -> TrigPoly:
    return TrigPoly.from_mapping({0: value})


# The spec supplies the deterministic part f itself (DET).
SPEC_TABLE = "spec.f"


@dataclass(frozen=True)
class AffineKind:
    """``a(t) = f(t) + alpha W_t + beta W_tau``; ``f`` is a fixed table,
    ``SPEC_TABLE`` when each spec carries its own, or None for zero."""

    f: TrigPoly | str | None = None
    alpha: float = 0.0
    beta: float = 0.0
    tau: float = 0.0


KIND_RECORDS = {
    CONST: AffineKind(f=constant(1.0)),
    DET: AffineKind(f=SPEC_TABLE),
    ADAPTED_W: AffineKind(alpha=1.0),
    NONCAUSAL_W1: AffineKind(beta=1.0, tau=1.0),
    NONCAUSAL_BRIDGE: AffineKind(alpha=-1.0, beta=1.0, tau=1.0),
    NONCAUSAL_MIDPOINT: AffineKind(beta=1.0, tau=0.5),
}

CATALOG_KINDS = tuple(KIND_RECORDS)


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """One catalog entry: kind, deterministic tables, drift shape.

    ``f`` and ``g`` may be :class:`TrigPoly` (exact Fourier data) or plain
    node tables of length m (left Riemann truth).  The spec owns its grid
    tables: :func:`spec_tables` builds them once per m and keeps them here.
    """

    kind: str
    f: TrigPoly | np.ndarray | None = None
    drift_kind: str = DRIFT_NONE
    g: TrigPoly | np.ndarray | None = None
    _tables: dict[int, SpecTables] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KIND_RECORDS:
            raise ConfigError(f"unknown process kind {self.kind!r}; choose from {CATALOG_KINDS}")
        if self.drift_kind not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift kind {self.drift_kind!r}; choose from {DRIFT_KINDS}")
        takes_f = self.record.f is SPEC_TABLE
        if takes_f and self.f is None:
            raise ConfigError(f"{self.kind} requires a diffusion table f")
        if not takes_f and self.f is not None:
            raise ConfigError(f"{self.kind} does not take a diffusion table f")
        if self.drift_kind != DRIFT_NONE and self.g is None:
            raise ConfigError(f"drift kind {self.drift_kind!r} requires a drift table g")
        if self.drift_kind == DRIFT_NONE and self.g is not None:
            raise ConfigError("drift table g supplied but drift kind is 'none'")

    @property
    def label(self) -> str:
        return self.kind

    @property
    def record(self) -> AffineKind:
        return KIND_RECORDS[self.kind]

    @property
    def f_table(self) -> TrigPoly | np.ndarray | None:
        """The deterministic part f of a, or None when it is zero."""
        return self.f if self.record.f is SPEC_TABLE else self.record.f


def _coerce_table(name: str, value) -> TrigPoly | np.ndarray:
    if isinstance(value, Mapping) and all(isinstance(k, str) for k in value):
        value = _table_from_json(name, value)
    if isinstance(value, TrigPoly):
        return value
    if isinstance(value, Mapping):
        return _trig_poly(name, value)
    if isinstance(value, (Sequence, np.ndarray)):
        return _node_table(name, value)
    raise ConfigError(f"{name} must be a TrigPoly, a frequency->coefficient mapping, or a node table")


def _node_table(name: str, values) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} node table must hold numbers, got {values!r}") from None
    if arr.ndim != 1 or arr.size < 2:
        raise ConfigError(f"{name} node table must be a 1-d array over the grid")
    if any(map(_is_bool, values)):
        raise ConfigError(f"{name} node table must hold numbers, not booleans")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ConfigError(f"{name} node table must hold finite numbers, got {arr[bad[0]]} "
                          f"at node {bad[0]}")
    return arr


def _trig_poly(name: str, mapping: Mapping) -> TrigPoly:
    """:meth:`TrigPoly.from_mapping` for the table ``name``, which its errors name."""
    try:
        return TrigPoly.from_mapping(mapping)
    except ConfigError as exc:
        raise ConfigError(f"{name} table: {exc}") from None


def _table_from_json(name: str, obj: Mapping) -> TrigPoly | np.ndarray:
    """A table from its JSON form, ``{"coeffs": {"k": [re, im]}}`` or
    ``{"values": [...]}``: every mapping whose keys are strings (a frequency
    mapping has integer keys)."""
    if set(obj) == {"values"}:
        return _node_table(name, obj["values"])
    coeffs = obj.get("coeffs") if set(obj) == {"coeffs"} else None
    if not isinstance(coeffs, Mapping):
        raise ConfigError(
            f'{name} must be {{"coeffs": {{"k": [re, im]}}}} or {{"values": [...]}}, got {obj!r}'
        )
    table = {}
    for k, v in coeffs.items():
        pair = isinstance(v, (list, tuple)) and len(v) == 2
        if not (pair and all(isinstance(x, (int, float)) and not _is_bool(x) for x in v)):
            raise ConfigError(f"{name} coefficient {k!r} must be an [re, im] pair, got {v!r}")
        try:
            table[int(k) if isinstance(k, str) else k] = complex(*v)
        except ValueError:
            raise ConfigError(f"{name} frequency {k!r} is not an integer") from None
    return _trig_poly(name, table)


def _table_jsonable(table: TrigPoly | np.ndarray | None) -> dict | None:
    if table is None:
        return None
    if isinstance(table, TrigPoly):
        return {"coeffs": {str(k): [c.real, c.imag] for k, c in table.coeffs}}
    return {"values": [float(v) for v in table]}


def make_process(kind: str, params: Mapping | None = None) -> ProcessSpec:
    """Build a validated :class:`ProcessSpec`; the one reader of a process
    block, in code and in config files alike (:func:`process_jsonable` is
    its inverse).

    Parameters
    ----------
    kind : str
        One of ``CATALOG_KINDS``.
    params : mapping, optional
        Keys: ``"f"`` (DET only), ``"drift"`` (one of ``"none"``, ``"det"``,
        ``"w1"``; ``"det"`` when only ``"g"`` is given), ``"g"`` (required
        when drift is not ``"none"``).  A table may be a TrigPoly, an
        {int frequency: coefficient} mapping, a node array, or one of the
        JSON forms ``{"coeffs": {"k": [re, im]}}`` and ``{"values": [...]}``.
        Any other key raises :class:`ConfigError`.
    """
    params = dict(params or {})
    f = params.pop("f", None)
    g = params.pop("g", None)
    drift = params.pop("drift", DRIFT_NONE if g is None else DRIFT_DET)
    if params:
        raise ConfigError(f"unknown process parameters: {sorted(params)}")
    f = _coerce_table("f", f) if f is not None else None
    g = _coerce_table("g", g) if g is not None else None
    return ProcessSpec(kind=kind, f=f, drift_kind=drift, g=g)


def process_jsonable(spec: ProcessSpec) -> dict:
    """The process block of a config file, as :func:`make_process` reads it."""
    return {
        "kind": spec.kind,
        "f": _table_jsonable(spec.f),
        "drift": spec.drift_kind,
        "g": _table_jsonable(spec.g),
    }


def spec_for(kind: str, extra: Mapping | None = None) -> ProcessSpec:
    """Catalog entry with enough data to instantiate (f = cos(2 pi t) if needed)."""
    params = dict(extra or {})
    if KIND_RECORDS.get(kind, AffineKind()).f is SPEC_TABLE:
        params.setdefault("f", cosine())
    return make_process(kind, params)


@dataclass(frozen=True, eq=False)
class PathFunctionals:
    """A catalog entry evaluated along one path: the diffusion and drift at
    the left tags and the increments dX that feed every coefficient sum.
    Its :attr:`tables` are the spec's own, built once per spec and grid."""

    spec: ProcessSpec
    path: BrownianPath
    a_nodes: np.ndarray = field(repr=False)
    b_nodes: np.ndarray = field(repr=False)
    dx: np.ndarray = field(repr=False)

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def tables(self) -> SpecTables:
        return spec_tables(self.spec, self.grid)

    @property
    def x_nodes(self) -> np.ndarray:
        """X at every node, ``x_nodes[0] == 0``."""
        return np.concatenate(([0.0], np.cumsum(self.dx)))


def _table_nodes(name: str, table, m: int) -> np.ndarray:
    """A table at the m left tags: a TrigPoly through the inverse transform."""
    if isinstance(table, TrigPoly):
        K = table.max_freq
        if K == 0:  # a constant is exact at every m; the irfft's scaling is not
            return np.full(m, table.coeff(0).real)
        if m <= 2 * K:
            raise ConfigError(f"grid too coarse for {name}: need m > {2 * K}, got m={m}")
        return synthesize(np.array([table.coeff(k) for k in range(-K, K + 1)]), m)
    arr = np.asarray(table, dtype=float)
    if arr.shape != (m,):
        raise ConfigError(
            f"{name} node table has length {arr.shape[0]} but the path grid has m={m} cells"
        )
    return arr


def _tau_node(spec: ProcessSpec, m: int) -> int:
    """Index j with ``t_j = tau``; tau must be a node of the grid."""
    j = spec.record.tau * m
    if j != int(j):
        raise ConfigError(f"{spec.kind} needs t = {spec.record.tau} to be a grid node; got m={m}")
    return int(j)


@dataclass(frozen=True, eq=False)
class SpecTables:
    """What a spec fixes on one grid, built once per spec and grid and kept
    by the spec (:func:`spec_tables`): f and g at the left tags (None when
    absent), the node index of tau (0 when beta == 0), the drift derivative
    ``c_i = d b_i / d xi_r`` (the same for every r) and the table ``d a_i /
    d xi_r``: ``alpha / sqrt(m)`` on the strict lower triangle plus ``1 v^T``,
    ``v_r = beta 1[r < tau m] / sqrt(m)``, the same on every path."""

    spec: ProcessSpec
    grid: TimeGrid
    f: np.ndarray | None = field(repr=False)
    g: np.ndarray | None = field(repr=False)
    tau: int
    c: np.ndarray = field(repr=False)
    da: DerivativeTable = field(repr=False)
    _order_terms: dict[range | tuple, tuple] = field(default_factory=dict, init=False, repr=False)
    _drift_terms: dict[tuple[int, int], tuple] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def correction(self) -> np.ndarray:
        """``D_i a_i / sqrt(m)``, the divergence's correction that dX
        subtracts and closed-form drift recovery adds back, computed on
        first use and kept with the tables."""
        return self.da.diag() / np.sqrt(self.grid.m)


def spec_tables(spec: ProcessSpec, grid: TimeGrid) -> SpecTables:
    """The one :class:`SpecTables` of ``spec`` on grids of ``grid.m`` cells:
    built on the first request and kept on the spec, so every later call,
    from any path, run or residual, returns the same object.  A table that
    does not fit the grid raises :class:`ConfigError` and nothing is kept."""
    m, rec = grid.m, spec.record
    if m in spec._tables:
        return spec._tables[m]
    s = 1.0 / np.sqrt(m)
    f = None if spec.f_table is None else _table_nodes("f", spec.f_table, m)
    g = None if spec.g is None else _table_nodes("g", spec.g, m)
    g1 = DRIFT_RECORDS[spec.drift_kind][1]
    c = g1 * g / np.sqrt(m) if g1 else np.zeros(m)
    tau = _tau_node(spec, m) if rec.beta else 0
    v = np.zeros(m)
    v[:tau] = s * rec.beta
    da = DerivativeTable(np.ones(m), v, s * rec.alpha)
    st = spec._tables[m] = SpecTables(spec, grid, f, g, tau, c, da)
    return st


def block_drift(st: SpecTables, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Drift values b(t_i) at the left tags, given W (..., m + 1); shape (..., m),
    written into ``out`` when given."""
    b = np.empty(w.shape[:-1] + (st.grid.m,)) if out is None else out
    if st.g is None:
        b.fill(0.0)
    else:
        g0, g1 = DRIFT_RECORDS[st.spec.drift_kind]
        np.multiply(g0 + g1 * w[..., -1:], st.g, out=b)
    return b


def block_diffusion(st: SpecTables, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Diffusion ``a = alpha W_t + f + beta W_tau`` at the left tags, given W
    (..., m + 1); shape (..., m), written into ``out`` when given."""
    rec = st.spec.record
    a = np.empty(w.shape[:-1] + (st.grid.m,)) if out is None else out
    if rec.alpha:
        np.multiply(rec.alpha, w[..., :-1], out=a)
    else:
        a.fill(0.0)
    if st.f is not None:
        a += st.f
    if rec.beta:
        a += rec.beta * w[..., st.tau : st.tau + 1]
    return a


def block_functionals(
    st: SpecTables, w: np.ndarray, out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms given the Brownian nodes W (..., m + 1): the diffusion a,
    the drift b and ``dX = a dW - diag(Da) / sqrt(m) + b / m``, each (..., m).

    ``out``, three (..., m) arrays, receives a, b and dX in place of new
    arrays; the drift's share ``b / m`` of dX is then divided in b's place,
    so that b comes back as ``b / m``.  b is built only after ``a dW`` has
    used a up, so ``out`` may pass a and b as one array, which then holds
    ``b / m``.
    """
    m = st.grid.m
    if w.shape[-1:] != (m + 1,):
        raise ConfigError(f"W must have shape (..., {m + 1}), got {w.shape}")
    a_out, b_out, dx_out = (None, None, None) if out is None else out
    a = block_diffusion(st, w, a_out)
    dx = np.subtract(w[..., 1:], w[..., :-1], out=dx_out)
    dx *= a
    b = block_drift(st, w, b_out)
    dx -= st.correction
    dx += np.divide(b, m, out=b_out)
    return a, b, dx


def eval_functionals(spec: ProcessSpec, path: BrownianPath) -> PathFunctionals:
    """Evaluate a catalog entry along one path (X(0) = 0 always)."""
    a, b, dx = block_functionals(spec_tables(spec, path.grid), path.values)
    return PathFunctionals(spec=spec, path=path, a_nodes=a, b_nodes=b, dx=dx)


# ---------------------------------------------------------------------------
# per-path truth values


def _order_terms(st: SpecTables, orders: Sequence[int]) -> tuple:
    """What :func:`block_true_fourier_a` takes from the orders alone: the
    orders as a read-only int array, the largest |n|, f's coefficient row
    (None when f is zero), ``z``, the divisor ``1 - z`` (1 at n = 0) and the
    mask n = 0; built once per tables and orders and kept on the tables, so a
    run's tiles share them.  A range or a tuple is its own key, so a caller
    that passes one fixed for the run pays neither an array nor a key per
    call; other sequences are keyed by their tuple of ints."""
    key = orders if isinstance(orders, (range, tuple)) else tuple(np.asarray(orders).tolist())
    terms = st._order_terms.get(key)
    if terms is None:
        m = st.grid.m
        ords = np.array(orders, dtype=int)
        ords.flags.writeable = False
        top = int(np.max(np.abs(ords), initial=0))
        table = st.spec.f_table
        if isinstance(table, TrigPoly):
            f_row = np.array([table.coeff(n) for n in ords.tolist()], dtype=complex)
        elif table is not None:
            f_row = coefficients(st.f, top)[ords + top] / m
        else:
            f_row = None
        one_minus_z = -np.expm1(-2j * np.pi * ords / m)
        is_zero = ords == 0
        divisor = np.where(is_zero, 1.0, one_minus_z)
        terms = (ords, top, f_row, 1 - one_minus_z, divisor, is_zero)
        st._order_terms[key] = terms
    return terms


def block_true_fourier_a(
    st: SpecTables, w: np.ndarray, orders: Sequence[int], i_coef: np.ndarray | None = None
) -> np.ndarray:
    """Fourier coefficients of a against conj(e_n), given W (..., m + 1);
    shape (..., orders), stored order-major as :func:`sfc.coefficients`
    stores its rows.

    ``f_n + alpha F_n(W at the left tags) / m + beta W_tau delta_{n0}``: the
    f term is exact for TrigPoly data and the left Riemann sum for a node
    table, and the W_t term is the left Riemann sum along the path, like
    every other integral of the package.  Summation by parts gives that sum
    from the dW coefficients ``I_n``: ``F_n(W) = (z I_n - I_0) / (1 - z)``
    with ``z = e^{-2 pi i n/m}`` for n != 0, and ``sum_i W_i`` for n = 0.
    ``i_coef`` (..., 2L + 1), with I_l in column ``l + L``, supplies them when
    it covers every order, as a sweep tile's does; otherwise they are the
    coefficients of W's increments.  Pass the orders as a range or a tuple
    that is fixed for the run, and every call after the first finds their
    terms at once (:func:`_order_terms`).

    The sums run on the transpose, one contiguous row an order, as
    ``i_coef`` stores I: each order's terms broadcast along its row, and the
    result needs no transposed copy to come out order-major.
    """
    m = st.grid.m
    rec = st.spec.record
    ords, top, f_row, z, divisor, is_zero = _order_terms(st, orders)
    by_order = (slice(None),) + (None,) * (w.ndim - 1)  # an order's term against every row
    out = np.zeros(ords.shape + w.shape[-2::-1], dtype=complex)  # (orders, ..)
    if f_row is not None:
        out += f_row[by_order]
    if rec.alpha:
        if i_coef is None or i_coef.shape[-1] < 2 * top + 1:
            i_coef = coefficients(np.diff(w, axis=-1), top)
        L = (i_coef.shape[-1] - 1) // 2
        # (z I_n - I_0) / (1 - z), then alpha (.. / m), in one temporary
        i_rows = i_coef.T
        w_coef = i_rows[ords + L]
        np.multiply(z[by_order], w_coef, out=w_coef)
        w_coef -= i_rows[L]
        w_coef /= divisor[by_order]
        w_coef[is_zero] = w[..., :-1].sum(axis=-1).T
        w_coef /= m
        out += np.multiply(rec.alpha, w_coef, out=w_coef)
    if rec.beta:
        out += rec.beta * (w[..., st.tau].T * is_zero[by_order])
    return out.T


def true_fourier_a(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """Per-path coefficient ``(1/m) sum_i a(t_i) conj(e_n(t_i))`` (DET given
    TrigPoly data: its exact coefficient, which the sum equals)."""
    return complex(block_true_fourier_a(spec_tables(spec, path.grid), path.values, [n])[0])
