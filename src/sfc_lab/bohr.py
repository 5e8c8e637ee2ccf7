"""Coefficient identification by kernel-averaged products of coefficients.

The estimator for the n-th Fourier coefficient of the diffusion a is the
Bohr-style product of the coefficient sequences of dX and dW,

    B_N(n) = (1/(2N+1)) sum_{|l| <= N} F_{n-l}(dX) * F_l(dW),

which converges to ``integral a(t) conj(e_n(t)) dt`` pathwise in L^2 at rate
O(1/sqrt(2N+1)).  On the discrete space the estimator decomposes exactly --
pure increment algebra, no limits -- into the target coefficient plus four
remainders:

* ``double_wiener``       an iterated stochastic integral of a against the
                          Dirichlet kernel (the dominant O(1/sqrt(2N+1)) term);
* ``diffusion_derivative`` the derivative of a smoothed by the kernel, then
                          integrated against dW;
* ``drift_wiener``        the drift smoothed by the kernel, integrated
                          against dW;
* ``drift_derivative``    the derivative of the drift, double time integral.

``remainder_terms`` evaluates the last three from the catalog's derivative
tables and reads ``double_wiener`` off as the residual, as its contract
states; ``iterated_divergence_term`` computes the same double integral
directly so tests can confirm the decomposition holds term by term and the
residual is not absorbing errors.

Every remainder is a Bohr window.  The kernel matrix
``K[i, j] = K_N(t_i - t_j) = sum_{|l| <= N} conj(e_l(t_i)) e_l(t_j)`` is
circulant of rank 2N + 1, so for real x, y

    sum_i conj(e_n(t_i)) x_i (K y)_i = sum_{|l| <= N} F_{n-l}(x) F_l(y),

which is ``(2N+1)`` times the :func:`windows` entry of the coefficients of x
and y, and every row of K sums to m.  No m x m array is built.  ``windows``
is the one window kernel: the sweep, identification and the remainders all
call it, and ``bohr_product`` and ``identify_a`` are one-path views on it.
It sums the products center-out, ``l = 0, 1, -1, 2, -2, ..``, so width N is
entry 2N of one cumsum: its value does not depend on which other widths run
beside it.  For real increments ``F_{-k} = conj(F_k)`` and ``I_{-l} =
conj(I_l)``, so ``B_N(-n) = conj(B_N(n))``; ``band_windows`` computes the
orders ``0 .. M`` only and fills ``n < 0`` as these exact conjugates, for the
sweep and ``identify_a`` alike.

Drift recovery inverts the coefficient relation
``F_n(dX) = div(a conj(e_n)) + (1/m) sum b conj(e_n)``: subtract the
stochastic part and what is left is the drift coefficient, one transform
``coefficients(dX - a dW + correction, M)`` with the divergence's correction
``correction_i = (d a_i / d xi_i) / sqrt(m)``.  :func:`drift_coefficients`
is that one step, for ``recover_b`` and for ``experiment.run_identify``'s
tiles alike, and holds the choice between the two modes:

* ``closed_form``   the true a and ``SpecTables.correction``, its exact
                    derivative diagonal;
* ``synthesized``   rebuild a from the *estimated* coefficients and subtract
                    the divergence of the synthesized trigonometric
                    polynomial, whose correction :func:`estimator_gradient`
                    returns by differentiating the whole estimation
                    pipeline.  Exact first-order calculus suffices because
                    every catalog diffusion is affine in W.

The correction's gradient of ``B_N(q)`` is a convolution in frequency.  With
``I_l = F_l(dW)``, ``sum_l I_l dF_{q-l}/dxi_r`` is the gradient of
``sum_i h_q(i) dX_i`` at ``h_q = conj(e_q) sum_{|l| <= N} I_l e_l``, and
``sum_l F_{q-l} conj(e_l(t_r)) = sum_{|j| <= N} F_{q+j} e_j(t_r)``: inverse FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import catalog as cat
from .errors import ConfigError
from .malliavin import DerivativeTable
from .sfc import CoefficientSet, coefficients, synthesize

CLOSED_FORM = "closed_form"
SYNTHESIZED = "synthesized"
RECOVERY_MODES = (CLOSED_FORM, SYNTHESIZED)


@dataclass(frozen=True)
class BohrConfig:
    """Estimator settings: averaging width N, target band M, recovery mode."""

    N: int
    M: int = 0
    mode: str = CLOSED_FORM

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.M < 0:
            raise ConfigError(f"M must be >= 0, got {self.M}")
        if self.mode not in RECOVERY_MODES:
            raise ConfigError(f"mode must be one of {RECOVERY_MODES}, got {self.mode!r}")


def grid_supports(m: int, N: int, M: int) -> bool:
    """Mesh rule for identification: m >= 8 (N + M)."""
    return m >= 8 * (N + M)


def windows(
    f_coef: np.ndarray,
    i_coef: np.ndarray,
    orders: Sequence[int],
    widths: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``B_N(n) = (1/(2N+1)) sum_{|l| <= N} F_{n-l} I_l`` for every row, order
    n and width N, shape (..., orders, widths): the one window kernel.

    ``f_coef`` (..., 2K + 1) holds ``F_k`` and ``i_coef`` (..., 2L + 1) holds
    ``I_l`` in column ``k + K`` and ``l + L``; it needs ``max N <= L`` and
    ``L + max |n| <= K``.  The products run center-out, ``l = 0, 1, -1, 2,
    -2, ..``, so one cumsum serves every order and width N is its entry 2N:
    no difference of two prefix sums, and a width's value does not depend on
    which other widths are asked for.  ``out``, complex (..., orders, 2L + 1),
    receives the products and their cumsum in place of a new array.  Rows
    never mix, so a row's windows do not depend on the rows beside it.
    """
    K = (f_coef.shape[-1] - 1) // 2
    L = (i_coef.shape[-1] - 1) // 2
    orders = np.asarray(orders)
    widths = np.asarray(widths)
    if not 0 <= widths.min() <= widths.max() <= L or L + np.abs(orders).max() > K:
        raise ValueError(
            f"dW coefficients cover |l| <= {L} and dX coefficients |k| <= {K}; widths "
            f"{widths.tolist()} at orders {orders.tolist()} need |l| <= N and |k| <= N + |n|"
        )
    j = np.arange(2 * L + 1)
    ells = (j + 1) // 2 * np.where(j % 2, 1, -1)  # 0, 1, -1, 2, -2, ...
    # the indices are in range: mode "clip" only keeps take from buffering ``out``
    prod = np.take(f_coef, orders[:, None] - ells + K, axis=-1, out=out, mode="clip")
    prod *= np.take(i_coef, ells + L, axis=-1)[..., None, :]
    np.cumsum(prod, axis=-1, out=prod)
    return prod[..., 2 * widths] / (2 * widths + 1)


def band_windows(
    f_coef: np.ndarray,
    i_coef: np.ndarray,
    M: int,
    widths: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`windows` at the orders ``-M .. M`` of real increments, shape
    (..., 2M + 1, widths): computed for ``n = 0 .. M`` (``out`` sized for
    M + 1 orders), and ``B_N(-n) = conj(B_N(n))`` exactly, because
    ``F_{-k} = conj(F_k)`` and ``I_{-l} = conj(I_l)``."""
    half = windows(f_coef, i_coef, range(M + 1), widths, out)
    return np.concatenate([np.conj(half[..., :0:-1, :]), half], axis=-2)


def bohr_product(
    dx_coeffs: CoefficientSet, dw_coeffs: CoefficientSet, n: int, N: int
) -> complex:
    """``(1/(2N+1)) sum_{|l| <= N} dx_coeffs(n - l) dw_coeffs(l)``, one
    :func:`windows` entry.

    Raises ``ValueError`` if either set lacks a required order.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    L = dw_coeffs.max_order
    i_coef = dw_coeffs.values[max(L - N, 0) : L + N + 1]  # |l| <= N, or all if N > L
    return complex(windows(dx_coeffs.values, i_coef, [n], [N])[0, 0])


def identify_a(pf: cat.PathFunctionals, cfg: BohrConfig) -> CoefficientSet:
    """Estimate the Fourier coefficients of a for all |n| <= cfg.M."""
    m = pf.grid.m
    if not grid_supports(m, cfg.N, cfg.M):
        raise ValueError(f"grid too coarse: m={m} < 8 (N + M) = {8 * (cfg.N + cfg.M)}")
    f_coef = coefficients(pf.dx, cfg.N + cfg.M)
    i_coef = coefficients(pf.path.increments, cfg.N)
    values = band_windows(f_coef, i_coef, cfg.M, [cfg.N])[:, 0]
    return CoefficientSet(max_order=cfg.M, values=values)


def estimator_gradient(
    st: cat.SpecTables, w: np.ndarray, dw: np.ndarray, f_coef: np.ndarray, i_coef: np.ndarray
) -> np.ndarray:
    """The divergence's correction ``(d a_hat(t_r)/d xi_r) / sqrt(m)`` of the
    synthesized a, from the diagonal ``d a_hat(t_r)/d xi_r = sum_{|q| <= M}
    e_q(t_r) d a_hat_q/d xi_r`` of ``a_hat_q = (1/(2N+1)) sum_{|l| <= N}
    F_{q-l} I_l``, ``I_l = F_l(dW)``, for one path or each row of a block:
    ``i_coef`` holds I_l for ``|l| <= N`` and ``f_coef`` holds F_k for
    ``|k| <= N + M``.

    * ``sum_l I_l dF_{q-l}/dxi_r`` is the gradient of ``sum_i h_q(i) dX_i``
      at ``h_q = conj(e_q) S``, with ``S = sum_{|l| <= N} I_l e_l`` real and
      one inverse FFT of the dW window.  For ``dX = a dW - diag / sqrt(m) +
      b / m`` with its deterministic diagonal, that gradient is ``s [a h +
      alpha tail + beta 1[r < tau m] sum_i h_i dW_i] + sum_i c_i h_i / m``
      (``s = 1/sqrt(m)``, ``a`` at the left tag ``t_r``, ``tail_r = sum_{i >
      r} h_i dW_i``, ``c`` the drift derivative).  Weighted by ``e_q(t_r)``
      and summed over q: ``h_q(r)`` gives ``(2M+1) S_r``; each ``sum_i h_q(i)
      x_i`` gives the band ``|q| <= M`` of ``x S``, one transform and back;
      the tails give ``sum_{i > r} D_M(t_i - t_r) S_i dW_i`` with ``D_M`` the
      kernel's lag row, one zero-padded FFT correlation.
    * ``dI_l/dxi_r = conj(e_l(t_r))/sqrt(m)`` and ``sum_l F_{q-l}
      conj(e_l(t_r)) = sum_{|j| <= N} F_{q+j} e_j(t_r)``, an inverse FFT of
      the dX window; weighted by ``e_q(t_r)`` and summed over q, the windows
      add up to ``sum_k n_k F_k e_k`` with ``n_k = #{|q| <= M : |k - q| <= N}``.

    Every array is one (m,) row per path, and every sum is real, because
    ``a_hat_{-q} = conj(a_hat_q)``.
    """
    m = st.grid.m
    rec = st.spec.record
    N = (i_coef.shape[-1] - 1) // 2
    M = (f_coef.shape[-1] - 1) // 2 - N
    s = synthesize(i_coef, m)
    y = s * dw
    d_dx = (2 * M + 1) * s * cat.block_diffusion(st, w) / np.sqrt(m)
    d_dx += synthesize(coefficients(st.c * s, M), m) / m
    if rec.beta:
        d_dx += st.da.v * synthesize(coefficients(y, M), m)
    if rec.alpha:
        lags = synthesize(np.ones(2 * M + 1), m)
        lags[0] = 0.0
        spectrum = np.fft.rfft(y, 2 * m) * np.conj(np.fft.rfft(lags, 2 * m))
        d_dx += st.da.lower * np.fft.irfft(spectrum, 2 * m)[..., :m]
    k = np.arange(-(N + M), N + M + 1)
    counts = np.minimum(k + N, M) - np.maximum(k - N, -M) + 1
    d_dw = synthesize(counts * f_coef, m) / np.sqrt(m)
    return (d_dx + d_dw) / (2 * N + 1) / np.sqrt(m)


def drift_coefficients(
    st: cat.SpecTables,
    mode: str,
    w: np.ndarray,
    dw: np.ndarray,
    dx: np.ndarray,
    a: np.ndarray,
    a_hat: np.ndarray,
    f_coef: np.ndarray,
    i_coef: np.ndarray,
) -> np.ndarray:
    """``b_n = F_n(dX) - div(a conj(e_n)) = F_n(dX - a dW + correction)`` for
    ``|n| <= M``, one path or each row of a block: the drift step of both
    modes.  ``closed_form`` takes the true a at the left tags with
    ``SpecTables.correction``; ``synthesized`` the polynomial of the estimated
    coefficients ``a_hat`` (..., 2M + 1) with the correction that
    :func:`estimator_gradient` takes from W, dW, ``f_coef`` and ``i_coef``.
    """
    if mode == CLOSED_FORM:
        correction = st.correction
    else:
        a = synthesize(a_hat, dx.shape[-1])
        correction = estimator_gradient(st, w, dw, f_coef, i_coef)
    return coefficients(dx - a * dw + correction, (f_coef.shape[-1] - i_coef.shape[-1]) // 2)


def recover_b(
    pf: cat.PathFunctionals, a_hat: CoefficientSet, cfg: BohrConfig
) -> CoefficientSet:
    """Recover the drift coefficients ``b_n = F_n(dX) - div(a conj(e_n))``,
    ``|n| <= cfg.M``, of one path: :func:`drift_coefficients` in ``cfg.mode``."""
    dw = pf.path.increments
    f_coef = coefficients(pf.dx, cfg.N + cfg.M)
    i_coef = coefficients(dw, cfg.N)
    b = drift_coefficients(
        pf.tables, cfg.mode, pf.path.values, dw, pf.dx, pf.a_nodes, a_hat.values, f_coef, i_coef
    )
    return CoefficientSet(cfg.M, b)


@dataclass(frozen=True)
class RemainderTerms:
    """The four-term error decomposition of ``B_N(n) - true coefficient``."""

    double_wiener: complex
    diffusion_derivative: complex
    drift_wiener: complex
    drift_derivative: complex

    @property
    def total(self) -> complex:
        return (
            self.double_wiener
            + self.diffusion_derivative
            + self.drift_wiener
            + self.drift_derivative
        )


def _require_mesh(m: int, N: int, n: int) -> None:
    if not grid_supports(m, N, abs(n)):
        raise ValueError(f"grid too coarse: m={m} < 8 (N + |n|) = {8 * (N + abs(n))}")


def _window(x: np.ndarray, y: np.ndarray, n: int, N: int) -> complex:
    """``B(x, y) = (1/(2N+1)) sum_i conj(e_n(t_i)) x_i (K y)_i``, the
    :func:`windows` entry of the coefficients of x and y."""
    return complex(windows(coefficients(x, N + abs(n)), coefficients(y, N), [n], [N])[0, 0])


def _coefficient(x: np.ndarray, n: int) -> complex:
    """``F_n(x) = sum_i conj(e_n(t_i)) x_i``."""
    return complex(coefficients(x, abs(n))[n + abs(n)])


def _kernel_trace(table: DerivativeTable, y: np.ndarray, n: int, N: int) -> complex:
    """``(1/(2N+1)) sum_i conj(e_n(t_i)) y_i sum_r P[i, r] K[i, r]`` for a real table P.

    The rank-one part is the window ``B(u y, v)``.  The strict lower triangle
    adds ``lower S_i`` with ``S_i = sum_{1 <= d <= i} K_N(d/m)``, a cumsum of
    the kernel's lag row, which is one inverse FFT of the all-ones window.
    """
    out = _window(table.u * y, table.v, n, N)
    if table.lower:
        lags = synthesize(np.ones(2 * N + 1), len(y))
        prefix = np.concatenate(([0.0], np.cumsum(lags[1:])))
        out += table.lower * _coefficient(prefix * y, n) / (2 * N + 1)
    return out


def _direct_terms(
    pf: cat.PathFunctionals, n: int, N: int
) -> tuple[complex, complex, complex]:
    """The three directly computable remainders (all but double_wiener)."""
    m = pf.grid.m
    s = 1.0 / np.sqrt(m)
    dw = pf.path.increments

    # diffusion derivative: (1/sqrt(m)) conj(e_n(t_i)) sum_j (da_i/dxi_j) K[i, j]
    # integrated dW in the i slot.  Catalog diffusions have deterministic derivative
    # tables, so the divergence is the plain Wiener sum.
    diffusion_derivative = s * _kernel_trace(pf.tables.da, dw, n, N)

    # derivative of the drift, double time integral: every row of K sums to m.
    drift_derivative = s * _coefficient(pf.tables.c, n) / (2 * N + 1)

    # drift smoothed by the kernel, integrated dW in the j slot; its divergence
    # correction is the drift derivative.
    drift_wiener = _window(pf.b_nodes / m, dw, n, N) - drift_derivative
    return diffusion_derivative, drift_wiener, drift_derivative


def remainder_terms(pf: cat.PathFunctionals, n: int, N: int) -> RemainderTerms:
    """Evaluate the four-term decomposition at order n and width N.

    The three structured terms come from the catalog's closed forms; the
    double stochastic integral is the residual
    ``B_N(n) - true coefficient - (other three)``, per the decomposition's
    exactness on the discrete space.  Memory is O(m): every term is a window.
    """
    _require_mesh(pf.grid.m, N, n)
    estimate = _window(pf.dx, pf.path.increments, n, N)
    truth = complex(cat.block_true_fourier_a(pf.tables, pf.path.values, [n])[0])
    diffusion_derivative, drift_wiener, drift_derivative = _direct_terms(pf, n, N)
    double_wiener = (
        estimate - truth - diffusion_derivative - drift_wiener - drift_derivative
    )
    return RemainderTerms(
        double_wiener=complex(double_wiener),
        diffusion_derivative=diffusion_derivative,
        drift_wiener=drift_wiener,
        drift_derivative=drift_derivative,
    )


def iterated_divergence_term(pf: cat.PathFunctionals, n: int, N: int) -> complex:
    """Direct evaluation of the double stochastic integral remainder.

    Computes ``(1/(2N+1)) div_j( div_i( a_i conj(e_n(t_i)) K_N(t_i - t_j) ) )``
    with full divergence corrections in both slots (exact because catalog
    diffusions are affine in W); used as the independent oracle for the
    residual-based ``double_wiener``.

    The inner divergence paired with dW is the window ``B(z, dW)`` with
    ``z = a dW - diag(Da)/sqrt(m)``.  The outer correction is the kernel
    trace of ``Da`` against ``dW`` plus the kernel's peak ``K[j, j] = 2N+1``
    times ``a_j conj(e_n(t_j))/sqrt(m)``, summed.
    """
    m = pf.grid.m
    _require_mesh(m, N, n)
    dw = pf.path.increments
    z = pf.a_nodes * dw - pf.tables.correction
    outer = _window(z, dw, n, N) - _kernel_trace(pf.tables.da, dw, n, N) / np.sqrt(m)
    return complex(outer - _coefficient(pf.a_nodes, n) / m)
