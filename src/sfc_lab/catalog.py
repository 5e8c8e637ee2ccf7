"""Catalog of processes dX = b dt + a dW with known closed forms.

Each entry fixes a diffusion coefficient a(t, omega), an optional drift
b(t, omega), and the node values of the integrated process X.  The stochastic
part of X is the anticipating (Skorokhod) integral of a, for which every
entry admits elementary algebra:

==================  ======================  ==========================================
kind                a(t)                    X stochastic part at node t
==================  ======================  ==========================================
CONST               1                       W_t
DET                 f(t)                    sum_{i: t_i < t} f(t_i) dW_i
ADAPTED_W           W_t                     (W_t^2 - t) / 2
NONCAUSAL_W1        W_1                     W_1 W_t - t
NONCAUSAL_BRIDGE    W_1 - W_t               W_1 W_t - (W_t^2 + t) / 2
NONCAUSAL_MIDPOINT  W_{1/2}                 W_{1/2} W_t - min(t, 1/2)
==================  ======================  ==========================================

Derivations: the integral of a constant-in-time functional F over [0, t] is
F W_t minus the time integral of its derivative, t * DF; this gives the
NONCAUSAL_W1 row (DF = 1) and the NONCAUSAL_MIDPOINT row (DF = 1 on
[0, 1/2], hence min(t, 1/2)).  NONCAUSAL_BRIDGE is the W1 row minus the
ADAPTED_W row by linearity.  ADAPTED_W is the usual Ito formula.

The drift contributes the left Riemann accumulator
``(1/m) sum_{i: t_i < t} b(t_i)`` to X.  Using the same left tagging as every
other sum keeps the catalog's algebraic identities exact at the grid level;
for the trigonometric-polynomial drifts used throughout, reported Fourier
quantities agree with the continuum values exactly by discrete orthogonality.

Drift shapes: ``none``, deterministic ``g(t)``, and ``W_1 * g(t)`` (an
anticipating drift of chaos order 1).

Derivative tables are exact: ``D_s a(t)`` is 0 (CONST, DET), ``1_{s <= t}``
(ADAPTED_W), ``1`` (NONCAUSAL_W1), ``1 - 1_{s <= t}`` (NONCAUSAL_BRIDGE),
``1_{s <= 1/2}`` (NONCAUSAL_MIDPOINT); for the ``W_1 * g`` drift,
``D_s b(t) = g(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigError
from .grid import TimeGrid, eval_basis
from .malliavin import FunctionalArray
from .sfc import coefficients

CONST = "CONST"
DET = "DET"
ADAPTED_W = "ADAPTED_W"
NONCAUSAL_W1 = "NONCAUSAL_W1"
NONCAUSAL_BRIDGE = "NONCAUSAL_BRIDGE"
NONCAUSAL_MIDPOINT = "NONCAUSAL_MIDPOINT"

CATALOG_KINDS = (CONST, DET, ADAPTED_W, NONCAUSAL_W1, NONCAUSAL_BRIDGE, NONCAUSAL_MIDPOINT)

DRIFT_NONE = "none"
DRIFT_DET = "det"
DRIFT_W1 = "w1"
DRIFT_KINDS = (DRIFT_NONE, DRIFT_DET, DRIFT_W1)

# Kinds whose X-node algebra reproduces div(a e) + drift quadrature exactly
# (floating point only); the remaining kinds carry an O(m^{-1/2}) defect from
# the quadratic variation.
EXACT_ALGEBRA_KINDS = (CONST, DET, NONCAUSAL_W1, NONCAUSAL_MIDPOINT)

# Kinds whose per-path Fourier coefficient of a is exact; the others fall
# back to trapezoid quadrature on the sampled path.
EXACT_FOURIER_A_KINDS = (CONST, DET, NONCAUSAL_W1, NONCAUSAL_MIDPOINT)


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


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """One catalog entry: kind, deterministic tables, drift shape.

    ``f`` and ``g`` may be :class:`TrigPoly` (exact Fourier data) or plain
    node tables of length m (quadrature-only truth).  ``a_chaos_order``
    records the Wiener-chaos order of the diffusion coefficient; catalog
    kinds are all 0 or 1, and the field exists so downstream modes can
    refuse entries they cannot handle.
    """

    kind: str
    f: TrigPoly | np.ndarray | None = None
    drift_kind: str = DRIFT_NONE
    g: TrigPoly | np.ndarray | None = None
    a_chaos_order: int = field(default=0)

    def __post_init__(self) -> None:
        if self.kind not in CATALOG_KINDS:
            raise ConfigError(f"unknown process kind {self.kind!r}; choose from {CATALOG_KINDS}")
        if self.drift_kind not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift kind {self.drift_kind!r}; choose from {DRIFT_KINDS}")
        if self.kind == DET and self.f is None:
            raise ConfigError("DET requires a diffusion table f")
        if self.kind != DET and self.f is not None:
            raise ConfigError(f"{self.kind} does not take a diffusion table f")
        if self.drift_kind != DRIFT_NONE and self.g is None:
            raise ConfigError(f"drift kind {self.drift_kind!r} requires a drift table g")
        if self.drift_kind == DRIFT_NONE and self.g is not None:
            raise ConfigError("drift table g supplied but drift kind is 'none'")
        if self.a_chaos_order not in (0, 1, 2):
            raise ConfigError(f"a_chaos_order must be 0, 1, or 2, got {self.a_chaos_order}")

    @property
    def label(self) -> str:
        return self.kind


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
    chaos = 0 if kind in (CONST, DET) else 1
    return ProcessSpec(kind=kind, f=f, drift_kind=drift, g=g, a_chaos_order=chaos)


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
    if table is None:
        raise ConfigError(f"{name} table missing")
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


def _block_drift(spec: ProcessSpec, w_block: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Drift values b(t_i) for a block of paths; shape (B, m)."""
    B = w_block.shape[0]
    m = grid.m
    if spec.drift_kind == DRIFT_NONE:
        return np.zeros((B, m))
    g_nodes = _table_nodes("g", spec.g, grid.left_nodes, m)
    if spec.drift_kind == DRIFT_DET:
        return np.broadcast_to(g_nodes, (B, m)).copy()
    w1 = w_block[:, -1]
    return w1[:, None] * g_nodes[None, :]


def block_functionals(
    spec: ProcessSpec, w_block: np.ndarray, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized closed forms for a block of paths.

    Parameters
    ----------
    spec : ProcessSpec
    w_block : ndarray, shape (B, m + 1)
        Brownian node values, one path per row.
    grid : TimeGrid

    Returns
    -------
    (a, b, x) : ndarrays of shapes (B, m), (B, m), (B, m + 1)
        Diffusion and drift at the left tags; X at every node.
    """
    m = grid.m
    if w_block.ndim != 2 or w_block.shape[1] != m + 1:
        raise ConfigError(f"w_block must have shape (B, {m + 1}), got {w_block.shape}")
    t_left = grid.left_nodes
    t_all = grid.nodes
    w_left = w_block[:, :-1]
    b = _block_drift(spec, w_block, grid)

    if spec.kind == CONST:
        a = np.ones_like(w_left)
        x_stoch = w_block.copy()
    elif spec.kind == DET:
        f_nodes = _table_nodes("f", spec.f, t_left, m)
        a = np.broadcast_to(f_nodes, w_left.shape).copy()
        incr = np.diff(w_block, axis=1) * f_nodes[None, :]
        x_stoch = np.concatenate([np.zeros((w_block.shape[0], 1)), np.cumsum(incr, axis=1)], axis=1)
    elif spec.kind == ADAPTED_W:
        a = w_left.copy()
        x_stoch = 0.5 * (w_block**2 - t_all[None, :])
    elif spec.kind == NONCAUSAL_W1:
        w1 = w_block[:, -1:]
        a = np.broadcast_to(w1, w_left.shape).copy()
        x_stoch = w1 * w_block - t_all[None, :]
    elif spec.kind == NONCAUSAL_BRIDGE:
        w1 = w_block[:, -1:]
        a = w1 - w_left
        x_stoch = w1 * w_block - 0.5 * (w_block**2 + t_all[None, :])
    elif spec.kind == NONCAUSAL_MIDPOINT:
        if m % 2 != 0:
            raise ConfigError(f"{NONCAUSAL_MIDPOINT} needs an even m so t = 1/2 is a node; got m={m}")
        wh = w_block[:, m // 2][:, None]
        a = np.broadcast_to(wh, w_left.shape).copy()
        x_stoch = wh * w_block - np.minimum(t_all, 0.5)[None, :]
    else:  # pragma: no cover - guarded in ProcessSpec
        raise ConfigError(f"unknown kind {spec.kind!r}")

    drift_prefix = np.concatenate(
        [np.zeros((w_block.shape[0], 1)), np.cumsum(b, axis=1) / m], axis=1
    )
    return a, b, x_stoch + drift_prefix


def eval_functionals(spec: ProcessSpec, path: BrownianPath) -> PathFunctionals:
    """Evaluate a catalog entry along one path (X(0) = 0 always)."""
    a, b, x = block_functionals(spec, path.values[None, :], path.grid)
    return PathFunctionals(spec=spec, path=path, a_nodes=a[0], b_nodes=b[0], x_nodes=x[0])


# ---------------------------------------------------------------------------
# derivative tables


def diffusion_array(spec: ProcessSpec, path: BrownianPath) -> FunctionalArray:
    """Diffusion values with the full (m, m) table ``d a_i / d xi_r``."""
    m = path.grid.m
    pf_a = block_functionals(spec, path.values[None, :], path.grid)[0][0]
    s = 1.0 / np.sqrt(m)
    if spec.kind in (CONST, DET):
        partials = np.zeros((m, m))
    elif spec.kind == ADAPTED_W:
        partials = np.tril(np.full((m, m), s), k=-1)
    elif spec.kind == NONCAUSAL_W1:
        partials = np.full((m, m), s)
    elif spec.kind == NONCAUSAL_BRIDGE:
        partials = np.triu(np.full((m, m), s), k=0)
    else:  # NONCAUSAL_MIDPOINT
        partials = np.zeros((m, m))
        partials[:, : m // 2] = s
    return FunctionalArray(values=pf_a.astype(float), partials=partials)


def drift_partial_const(spec: ProcessSpec, path: BrownianPath) -> np.ndarray:
    """The direction-independent drift derivative ``d b_i / d xi_r``.

    Every catalog drift has a derivative that does not depend on the
    direction r: zero for deterministic drifts, ``g(t_i)/sqrt(m)`` for the
    ``W_1 * g`` drift.  Returned as the length-m vector over i.
    """
    m = path.grid.m
    if spec.drift_kind != DRIFT_W1:
        return np.zeros(m)
    g_nodes = _table_nodes("g", spec.g, path.grid.left_nodes, m)
    return g_nodes / np.sqrt(m)


def drift_array(spec: ProcessSpec, path: BrownianPath) -> FunctionalArray:
    """Drift values with the full (m, m) derivative table."""
    m = path.grid.m
    b = _block_drift(spec, path.values[None, :], path.grid)[0]
    const = drift_partial_const(spec, path)
    return FunctionalArray(values=b, partials=np.repeat(const[:, None], m, axis=1))


# ---------------------------------------------------------------------------
# per-path truth values


def block_true_fourier_a(
    spec: ProcessSpec, w_block: np.ndarray, grid: TimeGrid, orders: Sequence[int]
) -> np.ndarray:
    """Fourier coefficients of a against conj(e_n), one row per path.

    Exact closed forms where a is constant in time per path (CONST, DET with
    TrigPoly data, NONCAUSAL_W1, NONCAUSAL_MIDPOINT).  ADAPTED_W and
    NONCAUSAL_BRIDGE use trapezoid quadrature along the sampled path, and an
    array-table DET uses the left Riemann sum; both are flagged approximate.
    Since ``W_0 = 0`` and ``conj(e_n(t_0)) = conj(e_n(t_m)) = 1``, the
    trapezoid rule for W is ``(F_n(W at the left tags) + W_1 / 2) / m``.
    """
    m = grid.m
    orders = np.asarray(orders, dtype=int)
    top = int(np.max(np.abs(orders), initial=0))
    cols = orders + top
    at_zero = (orders == 0).astype(complex)
    w1 = w_block[:, -1:]

    if spec.kind == CONST:
        return np.broadcast_to(at_zero, (w_block.shape[0], orders.size)).copy()
    if spec.kind == DET:
        if isinstance(spec.f, TrigPoly):
            row = np.array([spec.f.coeff(int(n)) for n in orders], dtype=complex)
        else:
            f_nodes = _table_nodes("f", spec.f, grid.left_nodes, m)
            row = coefficients(f_nodes, top)[cols] / m
        return np.broadcast_to(row, (w_block.shape[0], orders.size)).copy()
    if spec.kind == NONCAUSAL_W1:
        return w1 * at_zero
    if spec.kind == NONCAUSAL_MIDPOINT:
        if m % 2 != 0:
            raise ConfigError(f"{NONCAUSAL_MIDPOINT} needs an even m; got m={m}")
        return w_block[:, m // 2 : m // 2 + 1] * at_zero
    trapezoid = (coefficients(w_block[:, :-1], top)[:, cols] + w1 / 2) / m
    if spec.kind == ADAPTED_W:
        return trapezoid
    # NONCAUSAL_BRIDGE: W_1 * integral of conj(e_n) contributes only at n = 0.
    return w1 * at_zero - trapezoid


def true_fourier_a(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """Per-path coefficient ``integral_0^1 a(t) conj(e_n(t)) dt``.

    Exact for kinds in ``EXACT_FOURIER_A_KINDS`` (and DET given TrigPoly
    data); trapezoid quadrature along the path otherwise.
    """
    return complex(block_true_fourier_a(spec, path.values[None, :], path.grid, [n])[0, 0])


def true_fourier_b(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """Per-path coefficient of the drift against conj(e_n)."""
    m = path.grid.m
    if spec.drift_kind == DRIFT_NONE:
        return 0.0 + 0.0j
    if isinstance(spec.g, TrigPoly):
        base = spec.g.coeff(n)
    else:
        g_nodes = _table_nodes("g", spec.g, path.grid.left_nodes, m)
        base = complex(coefficients(g_nodes, abs(n))[n + abs(n)]) / m
    if spec.drift_kind == DRIFT_DET:
        return complex(base)
    return complex(path.terminal * base)


# ---------------------------------------------------------------------------
# closed-form stochastic integrals of a * conj(e_n)


def exact_diffusion_sfc(spec: ProcessSpec, path: BrownianPath, n: int) -> complex:
    """The divergence ``div(a conj(e_n))`` via each entry's closed form.

    This is the catalog's exact value of the stochastic integral of
    ``a(t) conj(e_n(t))``, used by drift recovery and as an oracle for the
    coefficient pipeline.
    """
    m = path.grid.m
    t_left = path.grid.left_nodes
    ebar = eval_basis(-n, t_left)
    dw = path.increments
    if spec.kind == CONST:
        return complex(np.dot(ebar, dw))
    if spec.kind == DET:
        f_nodes = _table_nodes("f", spec.f, t_left, m)
        return complex(np.dot(f_nodes * ebar, dw))
    if spec.kind == ADAPTED_W:
        return complex(np.dot(path.values[:-1] * ebar, dw))
    if spec.kind == NONCAUSAL_W1:
        return complex(path.terminal * np.dot(ebar, dw) - np.sum(ebar) / m)
    if spec.kind == NONCAUSAL_BRIDGE:
        adapted = np.dot(path.values[:-1] * ebar, dw)
        return complex(path.terminal * np.dot(ebar, dw) - np.sum(ebar) / m - adapted)
    if spec.kind == NONCAUSAL_MIDPOINT:
        wh = float(path.values[m // 2])
        return complex(wh * np.dot(ebar, dw) - np.sum(ebar[: m // 2]) / m)
    raise ConfigError(f"unknown kind {spec.kind!r}")  # pragma: no cover


def dsfc_partials(spec: ProcessSpec, path: BrownianPath, n: int) -> np.ndarray:
    """Gradient of the coefficient sum ``sum_i conj(e_n(t_i)) dX_i``.

    Returns the length-m vector ``d F_n / d xi_r`` obtained by
    differentiating each entry's closed-form increments.  Available for every
    catalog entry (their X are at most second chaos, so the gradient is
    affine in the increments).
    """
    m = path.grid.m
    s = 1.0 / np.sqrt(m)
    t_left = path.grid.left_nodes
    ebar = eval_basis(-n, t_left)
    dw = path.increments
    w_left = path.values[:-1]

    # Drift accumulator contributes Q(c * ebar) in every direction, where c
    # is the direction-independent drift derivative.
    c = drift_partial_const(spec, path)
    drift_term = np.sum(c * ebar) / m

    if spec.kind == CONST:
        grad = s * ebar
    elif spec.kind == DET:
        f_nodes = _table_nodes("f", spec.f, t_left, m)
        grad = s * f_nodes * ebar
    elif spec.kind == NONCAUSAL_W1:
        ito = np.dot(ebar, dw)
        grad = s * (ito + path.terminal * ebar)
    elif spec.kind == ADAPTED_W:
        # tail_r = sum_{i > r} ebar_i dW_i ; then s * (tail + W_{t_{r+1}} ebar_r)
        prods = ebar * dw
        tail = np.cumsum(prods[::-1])[::-1] - prods
        grad = s * (tail + path.values[1:] * ebar)
    elif spec.kind == NONCAUSAL_BRIDGE:
        prods = ebar * dw
        head = np.cumsum(prods)
        grad = s * (head + (path.terminal - path.values[1:]) * ebar)
    elif spec.kind == NONCAUSAL_MIDPOINT:
        ito = np.dot(ebar, dw)
        wh = float(path.values[m // 2])
        grad = s * wh * ebar
        grad = grad + np.where(np.arange(m) < m // 2, s * ito, 0.0)
    else:  # pragma: no cover
        raise ConfigError(f"unknown kind {spec.kind!r}")
    return grad + drift_term
