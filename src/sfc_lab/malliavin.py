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

The identity residuals take blocks of paths from ``brownian.sample_rows`` and
``wiener_nodes`` and stacks of e, with a and b from the spec's tables as in
the sweep; one-path forms are views.  They check algebra, not the tables: the
lemma and the drift rule hold to rounding for any value and gradient, and the
stochastic rule for any table whose ``matvec`` and ``rmatvec`` are transposes.
The tests compare those inputs with ``tests/reference.py``; the commands
that run the residuals still cannot see a wrong table (ROADMAP item 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brownian import BrownianPath


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
    """The m x m table ``P[i, r] = v_r + lower * 1[r < i]``, stored as its parts.

    It is the derivative table of every catalog diffusion ``f + alpha W_t +
    beta W_tau``: ``v = beta 1[r < tau m] / sqrt(m)``, ``lower = alpha / sqrt(m)``.
    Each operation is O(m) per row of its (..., m) input.  Bohr windows read
    ``v`` and ``lower`` (``bohr.remainder_terms``).
    """

    v: np.ndarray = field(repr=False)
    lower: float = 0.0

    def __post_init__(self) -> None:
        if self.v.ndim != 1:
            raise ValueError(f"v must be a vector, got shape {self.v.shape}")

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``P @ x = (v . x) + lower * sum_{r < i} x_r`` for each row of x (..., m)."""
        out = np.repeat((x @ self.v)[..., None], x.shape[-1], axis=-1)
        if self.lower:
            out[..., 1:] += self.lower * np.cumsum(x[..., :-1], axis=-1)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``P.T @ y = v sum_i y_i + lower * sum_{i > r} y_i`` for each row of y (..., m)."""
        out = self.v * np.sum(y, axis=-1)[..., None]
        if self.lower:
            out[..., :-1] += self.lower * np.cumsum(y[..., :0:-1], axis=-1)[..., ::-1]
        return out


def _esum(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``sum_i x_i e_i`` for each row of x (..., m) and of e (K, m): (..., K)."""
    return x @ e.real.T + 1j * (x @ e.imag.T)


def _divergence(values, table: DerivativeTable, dw) -> tuple[np.ndarray, np.ndarray]:
    """``div(u)`` of a process with values (rows, m) and one derivative table,
    and its gradient ``sum_i (du_i/dxi_r) dW_i + u_r / sqrt(m)``: exact for
    deterministic partials (chaos order <= 1), as every table here is."""
    sqrt_m = np.sqrt(dw.shape[-1])
    div = np.sum(values * dw, axis=-1) - np.sum(table.v) / sqrt_m
    return div, table.rmatvec(dw) + values / sqrt_m


def _factor_out(value, partials, e, dw, rest) -> np.ndarray:
    """``|F I(e) - div(F e) - rest|``, (rows, K), for F's values (rows,) and
    partials (rows, m): ``d(F e_i)/dxi_i = e_i dF/dxi_i``."""
    lhs = value[:, None] * _esum(dw, e)
    div = _esum(value[:, None] * dw, e) - _esum(partials, e) / np.sqrt(dw.shape[-1])
    return np.abs(lhs - (div + rest))


def block_lemma_residual(value, partials, e, dw) -> np.ndarray:
    """Defect of the factor-out identity ``F * I(e) = div(F e) + <DF, e>`` on
    each row and each e, for F's values (rows,) and partials (rows, m), e
    (K, m) at the left nodes and dW (rows, m): shape (rows, K).

    ``I(e)`` is the left Wiener sum of e.  The identity is pure algebra on
    the discrete space, so each entry is rounding noise (<= 1e-10 at the
    meshes used here) whenever the supplied partials are exact.
    """
    return _factor_out(value, partials, e, dw, _esum(partials, e) / np.sqrt(dw.shape[-1]))


def block_prop1_residual(st, e, w, dw) -> np.ndarray:
    """Defect of the product rule for a Wiener integral times a basis sum, on
    each row of W (rows, m + 1) and dW (rows, m) and each e (K, m).

    Checks, for the diffusion coefficient a of the tables ``st``,

        div(a) * I(e) = div(div(a) e) + div(s -> <D a(s), e>) + (1/m) sum a e

    which is the exact discrete form of multiplying a stochastic integral by
    a first-order one.
    """
    # Container types live here; closed forms live in the catalog.
    from .catalog import block_diffusion

    m = dw.shape[-1]
    a = block_diffusion(st, w)
    div_a, grad = _divergence(a, st.da, dw)
    # <D a(s), e> at each node s is deterministic (a is affine in W), so its
    # divergence is the plain Wiener sum.
    second = _esum(dw, st.da.matvec(e) / np.sqrt(m))
    third = _esum(a, e) / m
    return _factor_out(div_a, grad, e, dw, second + third)


def block_prop2_residual(st, e, w, dw) -> np.ndarray:
    """Defect of the product rule for a time integral times a basis sum, on
    each row of W (rows, m + 1) and dW (rows, m) and each e (K, m).

    Checks, for the drift coefficient b of the tables ``st``,

        ((1/m) sum b) * I(e) = div(((1/m) sum b) e) + (1/m) sum_s <D b(s), e>

    the factor-out identity for ``F = (1/m) sum b``, whose gradient is
    ``sum(c) / m`` since ``d b_i / d xi_r = c_i`` for every r.
    """
    from .catalog import block_drift

    m = dw.shape[-1]
    value = np.sum(block_drift(st, w), axis=-1) / m
    return block_lemma_residual(value, np.full((len(value), m), np.sum(st.c) / m), e, dw)


def _path_rows(path: BrownianPath, e_nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e as a stack of one, and W and dW of one path as a block of one row."""
    if np.shape(e_nodes) != path.increments.shape:
        raise ValueError(f"e must be sampled at the {path.grid.m} left nodes: {np.shape(e_nodes)}")
    return np.asarray(e_nodes)[None], path.values[None], path.increments[None]


def lemma_fdelta_residual(functional: DiscreteFunctional, e_nodes, path: BrownianPath) -> float:
    """:func:`block_lemma_residual` on one path."""
    e, _, dw = _path_rows(path, e_nodes)
    value = np.array([functional.value])
    return float(block_lemma_residual(value, functional.partials[None], e, dw)[0, 0])


def _rule_on_path(rule, spec, e_nodes, path: BrownianPath) -> float:
    from .catalog import spec_tables

    return float(rule(spec_tables(spec, path.grid), *_path_rows(path, e_nodes))[0, 0])


def prop1_residual(spec, e_nodes: np.ndarray, path: BrownianPath) -> float:
    """:func:`block_prop1_residual` on one path, with the spec's tables."""
    return _rule_on_path(block_prop1_residual, spec, e_nodes, path)


def prop2_residual(spec, e_nodes: np.ndarray, path: BrownianPath) -> float:
    """:func:`block_prop2_residual` on one path, with the spec's tables."""
    return _rule_on_path(block_prop2_residual, spec, e_nodes, path)


# ---------------------------------------------------------------------------
# scalar functionals shared by the CLI checks, the tests and the demos


def block_w1_functionals(w: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """W_1, W_1^2 - 1 and the constant 2.5 on each row of W (rows, m + 1):
    name -> (values (rows,), exact gradients (rows, m) as a read-only view)."""
    m = w.shape[-1] - 1
    s = 1.0 / np.sqrt(m)
    w1 = w[..., -1]
    shape = w1.shape + (m,)
    return {
        "W_1": (w1, np.broadcast_to(s, shape)),
        "W_1^2-1": (w1 * w1 - 1.0, np.broadcast_to((2.0 * w1 * s)[..., None], shape)),
        "const": (np.full(w1.shape, 2.5), np.broadcast_to(0.0, shape)),
    }


def w1_functionals(path: BrownianPath) -> dict[str, DiscreteFunctional]:
    """:func:`block_w1_functionals` on one path."""
    return {
        name: DiscreteFunctional(value=float(values[0]), partials=partials[0])
        for name, (values, partials) in block_w1_functionals(path.values[None]).items()
    }
