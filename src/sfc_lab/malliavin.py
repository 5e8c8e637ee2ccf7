"""Functional calculus on the discrete Wiener space R^m.

A random variable on the discrete space is a function of the standardized
increments ``xi_0 .. xi_{m-1}``.  We carry it together with its partial
derivatives, which is all the structure the integration-by-parts identities
need.

Normalization (worked example)
------------------------------
With ``xi_i = (W_{t_{i+1}} - W_{t_i}) sqrt(m)``, the derivative of a
functional F at time ``t_i`` is ``sqrt(m) * dF/dxi_i``, so the pairing

    <DF, e> = (1/sqrt(m)) * sum_i (dF/dxi_i) e(t_i)

is the left Riemann sum of ``D_t F * e(t)``.  The divergence of a process
``u`` sampled on the left nodes is

    div(u) = sum_i u_i dW_i - (1/sqrt(m)) sum_i du_i/dxi_i,

the Wiener sum minus the trace of the derivative along the diagonal.  Taking
``u_i = W_1`` for every i: the Wiener sum is ``W_1^2`` and each diagonal
derivative is ``dW_1/dxi_i = 1/sqrt(m)``, so the correction totals
``(1/sqrt(m)) * m * (1/sqrt(m)) = 1`` and ``div(u) = W_1^2 - 1`` exactly --
the Skorokhod integral of the terminal value, with no discretization error.
For ``u`` adapted on the left (``u_i`` independent of ``xi_j`` for
``j >= i``) every diagonal derivative vanishes and div(u) is the plain Ito
sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath, wiener_integral


@dataclass(frozen=True)
class DiscreteFunctional:
    """A scalar functional of the increments: value plus gradient.

    ``partials[r]`` holds ``dF/dxi_r``.  The gradient may itself be random
    (it is evaluated on the same path as the value); all identities below
    use it only algebraically.
    """

    value: complex
    partials: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.partials is None:
            raise ValueError("partials are required; pass zeros for a deterministic value")
        if self.partials.ndim != 1:
            raise ValueError(f"partials must be a vector, got shape {self.partials.shape}")


@dataclass(frozen=True)
class DerivativeTable:
    """The m x m table ``P[i, r] = u_i v_r + lower * 1[r < i]``, stored as its parts.

    Every derivative table in the package has this shape: an affine
    diffusion ``f + alpha W_t + beta W_tau`` has ``u = 1``,
    ``v = beta 1[r < tau m] / sqrt(m)`` and ``lower = alpha / sqrt(m)``;
    ``F e`` has ``u = e``, ``v = dF/dxi``; the drift has ``u = c``, ``v = 1``.
    Each operation is O(m); :meth:`dense` is a test oracle.  Sums weighted by
    the Dirichlet kernel read ``u``, ``v`` and ``lower`` directly as Bohr
    windows (``bohr._kernel_trace``).
    """

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    lower: float = 0.0

    def __post_init__(self) -> None:
        if self.u.ndim != 1 or self.u.shape != self.v.shape:
            raise ValueError(f"u, v must be vectors of one shape: {self.u.shape}, {self.v.shape}")

    def diag(self) -> np.ndarray:
        return self.u * self.v

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``P @ x = u (v . x) + lower * sum_{r < i} x_r``."""
        out = self.u * np.dot(self.v, x)
        if self.lower:
            out = out + self.lower * np.concatenate(([0.0], np.cumsum(x[:-1])))
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``P.T @ y = v (u . y) + lower * sum_{i > r} y_i``."""
        out = self.v * np.dot(self.u, y)
        if self.lower:
            out = out + self.lower * np.concatenate((np.cumsum(y[:0:-1])[::-1], [0.0]))
        return out

    def dense(self) -> np.ndarray:
        m = len(self.u)
        return np.outer(self.u, self.v) + self.lower * np.tril(np.ones((m, m)), -1)


@dataclass(frozen=True)
class FunctionalArray:
    """A process on the left nodes: values ``u_i`` and the
    :class:`DerivativeTable` of partials ``du_i/dxi_r`` (row i, direction r)."""

    values: np.ndarray = field(repr=False)
    partials: DerivativeTable = field(repr=False)

    def __post_init__(self) -> None:
        if self.values.ndim != 1:
            raise ValueError(f"values must be a vector, got shape {self.values.shape}")
        if not isinstance(self.partials, DerivativeTable) or len(self.partials.u) != self.m:
            raise ValueError(f"partials must be a DerivativeTable over {self.m} nodes")

    @property
    def m(self) -> int:
        return self.values.shape[0]


def pairing(functional: DiscreteFunctional, e_nodes: np.ndarray, path: BrownianPath) -> complex:
    """Left Riemann sum of ``D_t F * e(t)``: ``(1/sqrt(m)) sum_i dF/dxi_i e(t_i)``."""
    m = path.grid.m
    e_nodes = np.asarray(e_nodes)
    if functional.partials.shape != (m,) or e_nodes.shape != (m,):
        raise ValueError("functional partials and e must live on the grid's left nodes")
    return complex(np.dot(functional.partials, e_nodes) / np.sqrt(m))


def discrete_divergence(u: FunctionalArray, path: BrownianPath) -> complex:
    """Divergence ``sum_i u_i dW_i - (1/sqrt(m)) sum_i du_i/dxi_i``.

    Coincides with the Ito sum for left-adapted integrands and with the
    Skorokhod integral's closed forms for the anticipating ones used here.
    """
    m = path.grid.m
    if u.m != m:
        raise ValueError(f"integrand has {u.m} nodes but path grid has {m}")
    trace = np.sum(u.partials.diag())
    return complex(np.dot(u.values, path.increments) - trace / np.sqrt(m))


def divergence_with_partials(u: FunctionalArray, path: BrownianPath) -> DiscreteFunctional:
    """Divergence with its gradient ``sum_i (du_i/dxi_r) dW_i + u_r / sqrt(m)``.

    The formula drops the second-derivative trace term, so it is exact only
    for deterministic partials (chaos order <= 1), as every table here is.
    """
    m = path.grid.m
    value = discrete_divergence(u, path)
    grad = u.partials.rmatvec(path.increments) + u.values / np.sqrt(m)
    return DiscreteFunctional(value=value, partials=grad)


def _times_e(functional: DiscreteFunctional, e_nodes: np.ndarray) -> FunctionalArray:
    """The process ``F e(t)``: values ``F e_i``, partials ``e_i dF/dxi_r``."""
    return FunctionalArray(
        values=functional.value * e_nodes,
        partials=DerivativeTable(u=e_nodes, v=functional.partials),
    )


def lemma_fdelta_residual(
    functional: DiscreteFunctional, e_nodes: np.ndarray, path: BrownianPath
) -> float:
    """Defect of the factor-out identity ``F * I(e) = div(F e) + <DF, e>``.

    ``I(e)`` is the left Wiener sum of e.  The identity is pure algebra on
    the discrete space, so the return value is rounding noise (<= 1e-10 at
    the meshes used here) whenever the supplied partials are exact.
    """
    e_nodes = np.asarray(e_nodes)
    lhs = functional.value * wiener_integral(path, e_nodes)
    rhs = discrete_divergence(_times_e(functional, e_nodes), path) + pairing(
        functional, e_nodes, path
    )
    return float(abs(lhs - rhs))


def prop1_residual(spec, e_nodes: np.ndarray, path: BrownianPath) -> float:
    """Defect of the product rule for a Wiener integral times a basis sum.

    Checks, for the diffusion coefficient a of ``spec``,

        div(a) * I(e) = div(div(a) e) + div(s -> <D a(s), e>) + (1/m) sum a e

    which is the exact discrete form of multiplying a stochastic integral by
    a first-order one.  Returns |LHS - RHS|.  a and its derivative table
    come from the spec's tables, built once per spec and grid.
    """
    # Container types live here; closed forms live in the catalog.
    from .catalog import block_diffusion, spec_tables

    e_nodes = np.asarray(e_nodes)
    m = path.grid.m
    st = spec_tables(spec, path.grid)
    a = FunctionalArray(values=block_diffusion(st, path.values), partials=st.da)
    div_a = divergence_with_partials(a, path)
    lhs = div_a.value * wiener_integral(path, e_nodes)

    first = discrete_divergence(_times_e(div_a, e_nodes), path)
    # <D a(s), e> at each node s is deterministic (a is affine in W), so its
    # divergence is the plain Wiener sum.
    second = wiener_integral(path, a.partials.matvec(e_nodes) / np.sqrt(m))
    third = np.dot(a.values, e_nodes) / m
    return float(abs(lhs - (first + second + third)))


def prop2_residual(spec, e_nodes: np.ndarray, path: BrownianPath) -> float:
    """Defect of the product rule for a time integral times a basis sum.

    Checks, for the drift coefficient b of ``spec``,

        ((1/m) sum b) * I(e) = div(((1/m) sum b) e) + (1/m) sum_s <D b(s), e>

    i.e. the drift integral times a first-order integral equals a divergence
    plus the double time integral of the derivative.  Returns |LHS - RHS|.
    b comes from the spec's tables, built once per spec and grid; ``d b_i /
    d xi_r = c_i`` for every r, so the integral's gradient is ``sum(c) / m``.
    """
    from .catalog import block_drift, spec_tables

    e_nodes = np.asarray(e_nodes)
    m = path.grid.m
    st = spec_tables(spec, path.grid)
    b_int = DiscreteFunctional(
        value=complex(np.sum(block_drift(st, path.values)) / m),
        partials=np.full(m, np.sum(st.c) / m),
    )
    lhs = b_int.value * wiener_integral(path, e_nodes)
    first = discrete_divergence(_times_e(b_int, e_nodes), path)
    second = pairing(b_int, e_nodes, path)
    return float(abs(lhs - (first + second)))


# ---------------------------------------------------------------------------
# scalar functionals shared by the CLI checks, the tests and the demos


def w1_functionals(path: BrownianPath) -> dict[str, DiscreteFunctional]:
    """W_1, W_1^2 - 1 and the constant 2.5 with their exact gradients."""
    m = path.grid.m
    s = 1.0 / np.sqrt(m)
    w1 = float(path.terminal)
    return {
        "W_1": DiscreteFunctional(value=w1, partials=np.full(m, s)),
        "W_1^2-1": DiscreteFunctional(value=w1 * w1 - 1.0, partials=np.full(m, 2.0 * w1 * s)),
        "const": DiscreteFunctional(value=2.5, partials=np.zeros(m)),
    }
