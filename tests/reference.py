"""The tests' one reference: every quantity of the package written from its
definition, with direct sums and dense m x m tables.

It reads a spec's record ``(f, alpha, beta, tau)``, its tables f and g and
its drift shape, and a path's W (m + 1) and dW (m).  From ``sfc_lab`` it
takes only ``DRIFT_RECORDS`` and ``TrigPoly``: no transform, kernel, table or
FFT of the package, so a defect in a shared part cannot pass on both sides.
``diffusion``, ``drift`` and ``dx`` take stacks of rows of W and dW;
everything else takes one path.  Dense tables make it O(m^2) a path (O(m^3) for the iterated
divergence), meant for m <= 64.

With ``t_i = i/m``, ``e_n(t) = exp(2 pi i n t)`` and ``s = 1/sqrt(m)``:

* ``a_i = f(t_i) + alpha W_{t_i} + beta W_tau`` and ``b_i = (g0 + g1 W_1)
  g(t_i)``, whose derivatives along ``xi_r = dW_r sqrt(m)`` are the table
  ``P[i, r] = v_r + lower 1[r < i]``, ``v_r = s beta 1[r < tau m]``, ``lower =
  s alpha``, and ``c_i = s g1 g(t_i)`` for every r;
* ``div(u) = sum_i u_i dW_i - s sum_i du_i/dxi_i``, so ``dX_i = a_i dW_i - s
  P[i, i] + b_i / m`` makes ``F_n(dX) = div(a conj(e_n)) + (1/m) sum_i b_i
  conj(e_n(t_i))``, and b is found by subtraction.
"""

import numpy as np

from sfc_lab.catalog import DRIFT_RECORDS, TrigPoly


def basis(n, m):
    """``e_n(t_i)`` at the m left tags: (m,), or a row per order of an array n."""
    return np.exp(2j * np.pi * np.multiply.outer(n, np.arange(m)) / m)


def transform(x, orders):
    """``F_n(x) = sum_i conj(e_n(t_i)) x_i`` along the first axis of x (m,
    ..), shaped like the orders and then x's other axes."""
    return basis(-np.asarray(orders), len(x)) @ x


def nodes(table, m):
    """A table at the m left tags: a TrigPoly by its basis sum, a node table
    as given, None as zeros."""
    if table is None:
        return np.zeros(m)
    if isinstance(table, TrigPoly):
        return sum((c * basis(k, m) for k, c in table.coeffs), np.zeros(m)).real
    return np.asarray(table, dtype=float)


def _tau(spec, m):
    return int(spec.record.tau * m) if spec.record.beta else 0


def diffusion(spec, w):
    """a at the left tags, for each row of W (..., m + 1)."""
    rec, m = spec.record, w.shape[-1] - 1
    return nodes(spec.f_table, m) + rec.alpha * w[..., :-1] + rec.beta * w[..., _tau(spec, m), None]


def drift(spec, w):
    """b at the left tags, for each row of W (..., m + 1)."""
    g0, g1 = DRIFT_RECORDS[spec.drift_kind]
    return (g0 + g1 * w[..., -1:]) * nodes(spec.g, w.shape[-1] - 1)


def drift_derivative(spec, m):
    """``c_i = d b_i / d xi_r``, the same for every r."""
    return DRIFT_RECORDS[spec.drift_kind][1] * nodes(spec.g, m) / np.sqrt(m)


def _v(spec, m):
    return spec.record.beta * (np.arange(m) < _tau(spec, m)) / np.sqrt(m)


def table(spec, m):
    """The dense derivative table ``P[i, r] = d a_i / d xi_r``."""
    return _v(spec, m) + spec.record.alpha / np.sqrt(m) * np.tri(m, k=-1)


def dx(spec, w, dw):
    """dX at the left tags, for each row of W (..., m + 1) and dW (..., m):
    ``P[i, i] = v_i``, since the lower triangle is strict."""
    m = dw.shape[-1]
    return diffusion(spec, w) * dw - _v(spec, m) / np.sqrt(m) + drift(spec, w) / m


def dx_gradient(spec, w, dw):
    """``d dX_i / d xi_r = P[i, r] dW_i + 1[i = r] a_i / sqrt(m) + c_i / m``."""
    m = len(dw)
    return (table(spec, m) * dw[:, None] + np.diag(diffusion(spec, w)) / np.sqrt(m)
            + drift_derivative(spec, m)[:, None] / m)


def div(u, du, dw):
    """``div(u)`` and its gradient ``sum_i (du_i/dxi_r) dW_i + u_r / sqrt(m)``
    (exact when du is deterministic) for values u (..., m) and partials du
    (..., m, m), ``du[.., i, r] = du_i / dxi_r``."""
    s = 1.0 / np.sqrt(len(dw))
    return (u * dw).sum(-1) - s * np.trace(du, axis1=-2, axis2=-1), dw @ du + s * u


def estimate(spec, w, dw, n, N):
    """``B_N(n) = (1/(2N+1)) sum_{|l| <= N} F_{n-l}(dX) F_l(dW)``."""
    ells = np.arange(-N, N + 1)
    return transform(dx(spec, w, dw), n - ells) @ transform(dw, ells) / (2 * N + 1)


def truth(spec, w, orders):
    """``(1/m) sum_i a_i conj(e_n(t_i))``, the left Riemann sum, per order."""
    return transform(diffusion(spec, w), orders) / (w.shape[-1] - 1)


def true_b(spec, w, orders):
    """``(1/m) sum_i b_i conj(e_n(t_i))``, per order."""
    return transform(drift(spec, w), orders) / (w.shape[-1] - 1)


def recovered_b(spec, w, dw, M, N=None):
    """``b_n = F_n(dX) - div(a conj(e_n))``, ``|n| <= M``: a the true diffusion
    with its table (closed form, N None), or the polynomial ``sum_{|q| <= M}
    B_N(q) e_q`` with the dense gradient of the estimator (synthesized)."""
    m, orders = len(dw), np.arange(-M, M + 1)
    if N is None:
        values, partials = diffusion(spec, w), table(spec, m)
    else:
        lags = orders[:, None] - np.arange(-N, N + 1)  # (q, l) -> q - l
        f, i = transform(dx(spec, w, dw), lags), transform(dw, np.arange(-N, N + 1))
        df = basis(-lags, m) @ dx_gradient(spec, w, dw)  # (q, l, r)
        grad = (i @ df + f @ basis(-np.arange(-N, N + 1), m) / np.sqrt(m)) / (2 * N + 1)
        e = basis(orders, m)
        values, partials = f @ i / (2 * N + 1) @ e, e.T @ grad
    ebar = basis(-orders, m)
    divergence, _ = div(values * ebar, partials * ebar[:, :, None], dw)
    return transform(dx(spec, w, dw), orders) - divergence


def kernel(N, m):
    """``K[i, j] = K_N(t_i - t_j) = sum_{|l| <= N} e_l(t_i) conj(e_l(t_j))``."""
    e = basis(np.arange(-N, N + 1), m)
    return (e.T @ e.conj()).real


def remainders(spec, w, dw, n, N):
    """``double_wiener`` (the residual), ``diffusion_derivative``,
    ``drift_wiener`` and ``drift_derivative`` of ``B_N(n) - truth``, over the
    dense kernel: the kernel trace of P integrated against dW, and the drift
    smoothed by the kernel, ``u_j = (1/m) sum_i K[i, j] b_i conj(e_n(t_i))``,
    as a divergence and as the trace of its gradient."""
    m, s = len(dw), 1.0 / np.sqrt(len(dw))
    k, ebar = kernel(N, m), basis(-n, m)
    diffusion_derivative = s * np.sum(ebar * dw * (table(spec, m) * k).sum(1)) / (2 * N + 1)
    u = (drift(spec, w) * ebar) @ k / m
    du = np.repeat(((drift_derivative(spec, m) * ebar) @ k / m)[:, None], m, axis=1)
    drift_wiener = div(u, du, dw)[0] / (2 * N + 1)
    drift_der = s * np.trace(du) / (2 * N + 1)
    rest = estimate(spec, w, dw, n, N) - truth(spec, w, n)
    return np.array([rest - diffusion_derivative - drift_wiener - drift_der,
                     diffusion_derivative, drift_wiener, drift_der])


def iterated(spec, w, dw, n, N):
    """``(1/(2N+1)) div_j(div_i(a_i conj(e_n(t_i)) K[i, j]))``, both
    divergences by definition over the dense tables."""
    m = len(dw)
    k, ebar = kernel(N, m), basis(-n, m)
    u = (diffusion(spec, w) * ebar) * k.T  # u[j, i]
    du = (table(spec, m) * ebar[:, None]) * k.T[:, :, None]  # du[j, i, r]
    return div(*div(u, du, dw), dw)[0] / (2 * N + 1)
