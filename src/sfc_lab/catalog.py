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
triangle plus one row v repeated on every row (a ``malliavin.DerivativeTable``;
tau must be a grid node) -- every kind has the one increment, with ``D_i a_i``
the table's diagonal,

    dX_i = a_i dW_i - D_i a_i / sqrt(m) + b_i / m,

the discrete divergence of a plus the left Riemann drift.  Summed, the
stochastic part is the discrete Ito sum ``sum_{i < k} W_i dW_i`` for W_t and
``W_tau W_t - min(t, tau)`` for ``W_tau``, and X reproduces
``div(a conj(e_n))`` and the Fourier coefficients of a exactly on every path,
for every kind.  Given W, dX is linear in dW, so :func:`dx_coefficients`, the
first step of every run's tiles and every one-path view, takes ``F(dX)`` from
``F(dW)``, ``W_tau`` and ``W_1`` (sums of dW, :func:`w_terms`) and at most
one transform, of ``(f + alpha W) dW``, which W1, MIDPOINT and CONST do not
need: only ADAPTED_W and BRIDGE (alpha != 0) build W at every node.

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
from functools import cached_property, lru_cache
from numbers import Number
from typing import Mapping, Sequence

import numpy as np

from .brownian import BrownianPath, wiener_nodes
from .errors import ConfigError
from .grid import TimeGrid
from .malliavin import DerivativeTable
from .sfc import coefficients, mirror, synthesize

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
    """A catalog entry bound to one path: the one-path views take what they read
    from the path and the spec's :attr:`tables`, built once per spec and grid."""

    spec: ProcessSpec
    path: BrownianPath

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def tables(self) -> SpecTables:
        return spec_tables(self.spec, self.grid)


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
        raise ConfigError(f"{name} node table has length {arr.shape[0]} but the path grid "
                          f"has m={m} cells")
    return arr


@dataclass(frozen=True, eq=False)
class SpecTables:
    """What a spec fixes on one grid, built once per spec and grid and kept
    by the spec (:func:`spec_tables`): f and g at the left tags (None when
    absent), the node index of tau (0 when beta == 0), the drift derivative
    ``c_i = d b_i / d xi_r`` (the same for every r) and the table ``d a_i /
    d xi_r``: ``alpha / sqrt(m)`` on the strict lower triangle plus the row
    ``v_r = beta 1[r < tau m] / sqrt(m)`` on every row, the same on every path."""

    spec: ProcessSpec
    grid: TimeGrid
    f: np.ndarray | None = field(repr=False)
    g: np.ndarray | None = field(repr=False)
    tau: int
    c: np.ndarray = field(repr=False)
    da: DerivativeTable = field(repr=False)

    @cached_property
    def correction(self) -> np.ndarray:
        """``D_i a_i / sqrt(m)``, the divergence's correction that dX
        subtracts and closed-form drift recovery adds back, computed on
        first use and kept with the tables."""
        return self.da.v / np.sqrt(self.grid.m)

    @cached_property
    def correction_spectrum(self) -> np.ndarray:
        """``F_k(correction)``, ``k = 0 .. m // 2`` (its rfft), kept the same way."""
        return np.fft.rfft(self.correction)

    @cached_property
    def g_spectrum(self) -> np.ndarray | None:
        return None if self.g is None else np.fft.rfft(self.g)  # F_k(g), k = 0 .. m // 2


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
    tau = rec.tau * m if rec.beta else 0  # the node index of tau, which must be a node
    if tau != int(tau):
        raise ConfigError(f"{spec.kind} needs t = {rec.tau} to be a grid node; got m={m}")
    tau = int(tau)
    v = np.zeros(m)
    v[:tau] = s * rec.beta
    spec._tables[m] = SpecTables(spec, grid, f, g, tau, c, DerivativeTable(v, s * rec.alpha))
    return spec._tables[m]


def block_drift(st: SpecTables, w: np.ndarray) -> np.ndarray:
    """Drift values b(t_i) at the left tags, given W (..., m + 1); shape (..., m)."""
    if st.g is None:
        return np.zeros(w.shape[:-1] + (st.grid.m,))
    g0, g1 = DRIFT_RECORDS[st.spec.drift_kind]
    return np.multiply(g0 + g1 * w[..., -1:], st.g)


def block_diffusion(st: SpecTables, w: np.ndarray) -> np.ndarray:
    """Diffusion ``a = alpha W_t + f + beta W_tau`` at the left tags, given W
    (..., m + 1); shape (..., m)."""
    rec = st.spec.record
    if rec.alpha:
        a = np.multiply(rec.alpha, w[..., :-1])
    else:
        a = np.zeros(w.shape[:-1] + (st.grid.m,))
    if st.f is not None:
        a += st.f
    if rec.beta:
        a += rec.beta * w[..., st.tau : st.tau + 1]
    return a


def w_terms(st: SpecTables, dw: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """What the record reads of the path besides ``(f + alpha W) dW``, shape
    (..): ``beta W_tau`` and ``W_1`` as sums of dW (..., m), and ``sum_i W_i``
    over the left tags from W (..., m + 1) where alpha != 0 (else None)."""
    rec, w_1 = st.spec.record, dw.sum(axis=-1)
    w_tau = w_1 if st.tau == st.grid.m else dw[..., : st.tau].sum(axis=-1)
    return rec.beta * w_tau, w_1, w[..., :-1].sum(axis=-1) if rec.alpha else None


def dx_coefficients(
    st: SpecTables, dw: np.ndarray, L: int, K: int, *, x: np.ndarray | None = None,
    buffer: np.ndarray | None = None, stochastic: np.ndarray | None = None,
) -> tuple:
    """The first step of every run and one-path view, for one path dW (m,) or
    rows of them (..., m): ``I = F(dW)``, ``|l| <= L``, W's terms
    (:func:`w_terms`) and ``F_k(dX)``, ``|k| <= K <= L``, both stored
    order-major as :func:`sfc.coefficients` stores its rows.  Given W, dX is
    linear in dW:

        F(dX) = F((f + alpha W) dW) + beta W_tau I - F(correction) + ((g0 + g1 W_1) / m) F(g)

    Only alpha != 0 builds W, in the real view of ``buffer`` (a flat complex
    scratch, which takes every transform) or a new array, and W's terms are
    read before ``(f + alpha W) dW`` goes into ``x`` (dW itself, say; a new
    array when None), with ``alpha W`` formed in place on W.  That term's
    transform is the only one besides I: W1 and MIDPOINT skip it (the term is
    0), and so does CONST (the term is dW, whose transform is I; ``_table_nodes``
    fills f = 1 exactly).  ``stochastic`` (..., M + 1) receives ``F((f +
    alpha W) dW) + beta W_tau I`` at ``0 .. M``, for the closed form.
    """
    m, rec = st.grid.m, st.spec.record
    i_coef = coefficients(dw, L, buffer)  # order l at column l + L
    w = None
    if rec.alpha:  # (f + alpha W) dW reads W at every node
        shape = dw.shape[:-1] + (m + 1,)
        w = np.empty(shape) if buffer is None else buffer.view(float)[: dw.size // m * (m + 1)]
        w = w.reshape(shape)
        wiener_nodes(dw.reshape(-1, m), w.reshape(-1, m + 1))
    terms = w_terms(st, dw, w)
    w_tau, w_1, _ = terms
    i_rows = i_coef.T[L - K : L + K + 1]  # (2K + 1, ..), one contiguous row an order
    by_order = (slice(None),) + (None,) * (i_coef.ndim - 1)  # an order's term against every row
    term = np.empty_like(i_rows) if buffer is None else buffer[: i_rows.size].reshape(i_rows.shape)
    if not rec.alpha and st.f is None:  # W1, MIDPOINT: (f + alpha W) dW is 0
        coef = np.multiply(i_rows, w_tau.T)
    else:
        if rec.alpha or not (st.f == 1.0).all():  # DET, ADAPTED_W, BRIDGE
            factor = st.f
            if rec.alpha:  # the last read of W before the transform reuses the scratch
                factor = np.multiply(rec.alpha, w[..., :-1], out=w[..., :-1])
                if st.f is not None:
                    factor += st.f
            coef = coefficients(np.multiply(factor, dw, out=x), K, buffer).T
        else:  # CONST: (f + alpha W) dW is dW, whose transform is I
            coef = i_rows.copy()
        if rec.beta:
            coef += np.multiply(i_rows, w_tau.T, out=term)
    if stochastic is not None:
        stochastic[...] = coef[K : K + stochastic.shape[-1]].T
    if rec.beta:  # the correction is beta 1[i < tau m] / m
        coef -= mirror(st.correction_spectrum[: K + 1])[by_order]
    if st.g is not None:
        g0, g1 = DRIFT_RECORDS[st.spec.drift_kind]
        term[...] = mirror(st.g_spectrum[: K + 1])[by_order]  # a copy broadcasts unbuffered
        term *= (g0 + g1 * w_1.T) / m
        coef += term
    return i_coef, terms, coef.T


def eval_functionals(spec: ProcessSpec, path: BrownianPath) -> PathFunctionals:
    """Bind a catalog entry to one path (X(0) = 0) once its tables fit the grid."""
    spec_tables(spec, path.grid)
    return PathFunctionals(spec=spec, path=path)


# ---------------------------------------------------------------------------
# per-path truth values


# Two entries: a run takes one key, and a one-path loop that alternates two
# orders two; each keeps its tables, and so the spec, alive once dropped.
@lru_cache(maxsize=2)
def _order_terms(st: SpecTables, orders: range | tuple[int, ...]) -> tuple:
    """What :func:`block_true_fourier_a` takes from the orders alone: the
    orders as a read-only int array, the largest |n|, f's coefficient row
    (None when f is zero), ``z``, the divisor ``1 - z`` (1 at n = 0) and the
    mask n = 0.  A per-run cache: the tables hash by identity, so each spec
    and grid has its own entries, and a run's tiles share them (read-only)."""
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
    return ords, top, f_row, 1 - one_minus_z, divisor, is_zero


def block_true_fourier_a(
    st: SpecTables, terms: tuple, orders: Sequence[int], i_coef: np.ndarray
) -> np.ndarray:
    """Fourier coefficients of a against conj(e_n), given W's terms
    (:func:`w_terms`) and ``I_l = F_l(dW)``, ``|l| <= L`` for L >= every |n|
    (``i_coef`` (..., 2L + 1)); shape (..., orders), stored order-major.

    ``f_n + alpha F_n(W at the left tags) / m + beta W_tau delta_{n0}``: the
    f term is exact for TrigPoly data and the left Riemann sum for a node
    table, and the W_t term is the left Riemann sum along the path, which
    summation by parts takes from I: ``F_n(W) = (z I_n - I_0) / (1 - z)``
    with ``z = e^{-2 pi i n/m}`` for n != 0, and ``sum_i W_i`` for n = 0.
    The terms of a range or a tuple of orders are built once per tables
    (:func:`_order_terms`); any other sequence is taken as its tuple.

    The sums run on the transpose, one contiguous row an order, as
    ``i_coef`` stores I, so the result needs no transposed copy.
    """
    m, rec, L = st.grid.m, st.spec.record, (i_coef.shape[-1] - 1) // 2
    ords, top, f_row, z, divisor, is_zero = _order_terms(
        st, orders if isinstance(orders, range) else tuple(orders))
    w_tau, _, total = terms
    by_order = (slice(None),) + (None,) * (i_coef.ndim - 1)  # an order's term against every row
    out = np.zeros(ords.shape + i_coef.shape[-2::-1], dtype=complex)  # (orders, ..)
    if f_row is not None:
        out += f_row[by_order]
    if rec.alpha:
        if L < top:
            raise ValueError(f"the dW coefficients cover |l| <= {L}; order {top} needs more")
        # (z I_n - I_0) / (1 - z), then alpha (.. / m), in one temporary
        i_rows = i_coef.T
        w_coef = i_rows[ords + L]
        np.multiply(z[by_order], w_coef, out=w_coef)
        w_coef -= i_rows[L]
        w_coef /= divisor[by_order]
        w_coef[is_zero] = total.T
        w_coef /= m
        out += np.multiply(rec.alpha, w_coef, out=w_coef)
    if rec.beta:
        out += w_tau.T * is_zero[by_order]
    return out.T


def true_fourier_a(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """Per-path coefficient ``(1/m) sum_i a(t_i) conj(e_n(t_i))`` (DET given
    TrigPoly data: its exact coefficient, which the sum equals)."""
    st, dw = spec_tables(spec, path.grid), path.increments
    i_coef, terms = coefficients(dw, abs(n)), w_terms(st, dw, path.values)
    return complex(block_true_fourier_a(st, terms, [n], i_coef)[0])
