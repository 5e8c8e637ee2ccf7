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

Everything is written once from the record.  The stochastic part of X is
the anticipating (Skorokhod) integral of a,
``sum_{t_i < t} f(t_i) dW_i + alpha (W_t^2 - t)/2 + beta (W_tau W_t - min(t, tau))``:
the Ito formula for W_t, and ``F W_t`` minus the time integral of
``D F = 1_{[0, tau]}`` for the constant-in-time ``F = W_tau`` (tau must be a
grid node).  The derivative table ``D_r a_i = (alpha 1[r < i] +
beta 1[r < tau m]) / sqrt(m)`` is a strict lower triangle plus a rank-one
term (a ``malliavin.DerivativeTable``).  Kinds with ``alpha == 0`` reproduce
``div(a conj(e_n))`` and their Fourier coefficients exactly; the W_t term
adds a quadratic-variation defect and takes trapezoid quadrature for truth.

The drift ``b(t) = g(t)`` or ``W_1 g(t)`` (an anticipating drift of chaos
order 1, ``D_s b(t) = g(t)``) contributes the left Riemann accumulator
``(1/m) sum_{i: t_i < t} b(t_i)`` to X.  The same left tagging as every other
sum keeps the algebraic identities exact at the grid level; for
trigonometric-polynomial data, Fourier quantities agree with the continuum
values exactly by discrete orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigError
from .grid import TimeGrid, eval_basis
from .malliavin import DerivativeTable, FunctionalArray
from .sfc import coefficients

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


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial ``sum_k c_k exp(2 pi i k t)``.

    Stored as a sorted tuple of (frequency, coefficient) pairs with the
    conjugate symmetry ``c_{-k} = conj(c_k)`` enforced, so sampled values
    are real.
    """

    coeffs: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        table = dict(self.coeffs)
        for k, c in table.items():
            mate = table.get(-k, 0.0)
            if abs(np.conj(c) - mate) > 1e-12:
                raise ConfigError(
                    f"coefficients must be conjugate-symmetric for a real polynomial; "
                    f"c[{k}]={c}, c[{-k}]={mate}"
                )

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, complex]) -> "TrigPoly":
        items = tuple(sorted((int(k), complex(v)) for k, v in mapping.items()))
        return cls(items)

    def coeff(self, n: int) -> complex:
        return dict(self.coeffs).get(n, 0.0 + 0.0j)

    @property
    def max_freq(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=0)

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, c in self.coeffs:
            out += c * eval_basis(k, t)
        return out.real


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

# Kinds whose X algebra and Fourier coefficients of a are exact (to rounding);
# ``alpha W_t`` carries an O(m^{-1/2}) quadratic-variation defect.
EXACT_ALGEBRA_KINDS = tuple(kind for kind, rec in KIND_RECORDS.items() if rec.alpha == 0)


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """One catalog entry: kind, deterministic tables, drift shape.

    ``f`` and ``g`` may be :class:`TrigPoly` (exact Fourier data) or plain
    node tables of length m (quadrature-only truth).
    """

    kind: str
    f: TrigPoly | np.ndarray | None = None
    drift_kind: str = DRIFT_NONE
    g: TrigPoly | np.ndarray | None = None

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
    if isinstance(value, TrigPoly):
        return value
    if isinstance(value, Mapping):
        return TrigPoly.from_mapping(value)
    if isinstance(value, (Sequence, np.ndarray)):
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError(f"{name} node table must be a 1-d array over the grid")
        return arr
    raise ConfigError(f"{name} must be a TrigPoly, a frequency->coefficient mapping, or a node table")


def make_process(kind: str, params: Mapping | None = None) -> ProcessSpec:
    """Build a validated :class:`ProcessSpec`.

    Parameters
    ----------
    kind : str
        One of ``CATALOG_KINDS``.
    params : mapping, optional
        Keys: ``"f"`` (DET only), ``"drift"`` (one of ``"none"``, ``"det"``,
        ``"w1"``), ``"g"`` (required when drift is not ``"none"``).  Tables
        may be TrigPoly, {frequency: coefficient} mappings, or node arrays.
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


def spec_for(kind: str, extra: Mapping | None = None) -> ProcessSpec:
    """Catalog entry with enough data to instantiate (f = cos(2 pi t) if needed)."""
    params = dict(extra or {})
    if KIND_RECORDS.get(kind, AffineKind()).f is SPEC_TABLE:
        params.setdefault("f", cosine())
    return make_process(kind, params)


@dataclass(frozen=True, eq=False)
class PathFunctionals:
    """A catalog entry evaluated along one path.

    Node arrays are cached on construction: the diffusion and drift at the
    left tags, and X at every node (``x_nodes[0] == 0``).
    """

    spec: ProcessSpec
    path: BrownianPath
    a_nodes: np.ndarray = field(repr=False)
    b_nodes: np.ndarray = field(repr=False)
    x_nodes: np.ndarray = field(repr=False)

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def dx(self) -> np.ndarray:
        """Increments ``X_{i+1} - X_i`` feeding every coefficient sum."""
        return np.diff(self.x_nodes)


def _table_nodes(name: str, table, t: np.ndarray, m: int) -> np.ndarray:
    if isinstance(table, TrigPoly):
        if m <= 2 * table.max_freq:
            raise ConfigError(
                f"grid too coarse for {name}: need m > {2 * table.max_freq}, got m={m}"
            )
        return table.sample(t)
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
    """What a spec fixes on one grid, built once per run: f and g at the left
    tags (None when absent), the node index of tau (0 when beta == 0), the
    drift derivative ``c_i = d b_i / d xi_r`` (the same for every r) and the
    table ``d a_i / d xi_r``: ``alpha / sqrt(m)`` on the strict lower triangle
    plus ``1 v^T``, ``v_r = beta 1[r < tau m] / sqrt(m)``, the same on every path."""

    spec: ProcessSpec
    grid: TimeGrid
    f: np.ndarray | None = field(repr=False)
    g: np.ndarray | None = field(repr=False)
    tau: int
    c: np.ndarray = field(repr=False)
    da: DerivativeTable = field(repr=False)


def spec_tables(spec: ProcessSpec, grid: TimeGrid) -> SpecTables:
    t, m, rec = grid.left_nodes, grid.m, spec.record
    s = 1.0 / np.sqrt(m)
    f = None if spec.f_table is None else _table_nodes("f", spec.f_table, t, m)
    g = None if spec.g is None else _table_nodes("g", spec.g, t, m)
    g1 = DRIFT_RECORDS[spec.drift_kind][1]
    c = g1 * g / np.sqrt(m) if g1 else np.zeros(m)
    tau = _tau_node(spec, m) if rec.beta else 0
    v = np.zeros(m)
    v[:tau] = s * rec.beta
    return SpecTables(spec, grid, f, g, tau, c, DerivativeTable(np.ones(m), v, s * rec.alpha))


def _block_drift(st: SpecTables, w_block: np.ndarray) -> np.ndarray:
    """Drift values b(t_i) for a block of paths; shape (B, m)."""
    if st.g is None:
        return np.zeros((w_block.shape[0], st.grid.m))
    g0, g1 = DRIFT_RECORDS[st.spec.drift_kind]
    return (g0 + g1 * w_block[:, -1:]) * st.g


def block_diffusion(st: SpecTables, w_block: np.ndarray) -> np.ndarray:
    """Diffusion ``a = f + alpha W_t + beta W_tau`` at the left tags; shape (B, m)."""
    rec = st.spec.record
    a = np.zeros((w_block.shape[0], st.grid.m))
    if st.f is not None:
        a += st.f
    if rec.alpha:
        a += rec.alpha * w_block[:, :-1]
    if rec.beta:
        a += rec.beta * w_block[:, st.tau][:, None]
    return a


def block_functionals(st: SpecTables, w_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms for a block of paths, given the Brownian nodes ``w_block``
    (B, m + 1): the drift (B, m) at the left tags and X (B, m + 1) at every
    node.  The diffusion is :func:`block_diffusion`, for callers that need it."""
    m = st.grid.m
    if w_block.ndim != 2 or w_block.shape[1] != m + 1:
        raise ConfigError(f"w_block must have shape (B, {m + 1}), got {w_block.shape}")
    rec = st.spec.record
    t_all = st.grid.nodes
    b = _block_drift(st, w_block)
    x = np.zeros((w_block.shape[0], m + 1))  # the drift accumulator, then each term of X in place
    np.cumsum(b, axis=1, out=x[:, 1:])
    x[:, 1:] /= m
    if st.f is not None:
        x[:, 1:] += np.cumsum(np.diff(w_block, axis=1) * st.f, axis=1)
    if rec.alpha:
        x += 0.5 * rec.alpha * (np.square(w_block) - t_all)
    if rec.beta:
        w_tau = rec.beta * w_block[:, st.tau][:, None]
        x += w_tau * w_block - rec.beta * np.minimum(t_all, rec.tau)
    return b, x


def eval_functionals(spec: ProcessSpec, path: BrownianPath) -> PathFunctionals:
    """Evaluate a catalog entry along one path (X(0) = 0 always)."""
    st = spec_tables(spec, path.grid)
    w = path.values[None, :]
    b, x = block_functionals(st, w)
    a = block_diffusion(st, w)
    return PathFunctionals(spec=spec, path=path, a_nodes=a[0], b_nodes=b[0], x_nodes=x[0])


# ---------------------------------------------------------------------------
# derivative tables


def diffusion_array(spec: ProcessSpec, path: BrownianPath) -> FunctionalArray:
    """Diffusion values with the table ``d a_i / d xi_r`` (``SpecTables.da``)."""
    st = spec_tables(spec, path.grid)
    return FunctionalArray(values=block_diffusion(st, path.values[None, :])[0], partials=st.da)


def drift_partial_const(spec: ProcessSpec, path: BrownianPath) -> np.ndarray:
    """The direction-independent drift derivative ``d b_i / d xi_r``: zero for
    deterministic drifts, ``g(t_i)/sqrt(m)`` for the ``W_1 * g`` drift."""
    return spec_tables(spec, path.grid).c


def drift_array(spec: ProcessSpec, path: BrownianPath) -> FunctionalArray:
    """Drift values with the rank-one derivative table ``c 1^T``."""
    st = spec_tables(spec, path.grid)
    b = _block_drift(st, path.values[None, :])[0]
    return FunctionalArray(values=b, partials=DerivativeTable(u=st.c, v=np.ones(st.grid.m)))


# ---------------------------------------------------------------------------
# per-path truth values


def block_true_fourier_a(st: SpecTables, w_block: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Fourier coefficients of a against conj(e_n), one row per path.

    ``f_n + alpha * trapezoid_n(W) + beta * W_tau * delta_{n0}``.  The f
    term is exact for TrigPoly data and the left Riemann sum for a node
    table; the W_t term uses trapezoid quadrature along the sampled path.
    Since ``W_0 = 0`` and ``conj(e_n(t_0)) = conj(e_n(t_m)) = 1``, the
    trapezoid rule for W is ``(F_n(W at the left tags) + W_1 / 2) / m``.
    """
    m = st.grid.m
    rec = st.spec.record
    orders = np.asarray(orders, dtype=int)
    top = int(np.max(np.abs(orders), initial=0))
    cols = orders + top
    out = np.zeros((w_block.shape[0], orders.size), dtype=complex)
    table = st.spec.f_table
    if isinstance(table, TrigPoly):
        out += np.array([table.coeff(int(n)) for n in orders], dtype=complex)
    elif table is not None:
        out += coefficients(st.f, top)[cols] / m
    if rec.alpha:
        w1 = w_block[:, -1:]
        out += rec.alpha * ((coefficients(w_block[:, :-1], top)[:, cols] + w1 / 2) / m)
    if rec.beta:
        out += rec.beta * (w_block[:, st.tau : st.tau + 1] * (orders == 0))
    return out


def true_fourier_a(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """Per-path coefficient ``integral_0^1 a(t) conj(e_n(t)) dt``.

    Exact for kinds in ``EXACT_ALGEBRA_KINDS`` (DET given TrigPoly data);
    trapezoid quadrature along the path otherwise.
    """
    st = spec_tables(spec, path.grid)
    return complex(block_true_fourier_a(st, path.values[None, :], [n])[0, 0])
