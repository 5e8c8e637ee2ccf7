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
residual is not absorbing errors.  The two share only one kernel trace.

Every remainder is a Bohr window.  The kernel matrix
``K[i, j] = K_N(t_i - t_j) = sum_{|l| <= N} conj(e_l(t_i)) e_l(t_j)`` is
circulant of rank 2N + 1, so for real x, y

    sum_i conj(e_n(t_i)) x_i (K y)_i = sum_{|l| <= N} F_{n-l}(x) F_l(y),

which is ``(2N+1)`` times the :func:`windows` entry of the coefficients of x
and y, and every row of K sums to m.  The strict lower triangle of a
derivative table weighs ``dW_i`` by the prefix sum of the kernel's lag row,
a geometric series per frequency: the window of ``I = F(dW)`` against fixed
ratios, plus one coefficient.  No m x m array is built.  ``windows``
is the one window kernel: the sweep, identification and the remainders all
call it, and ``bohr_product`` and ``identify_a`` are one-path views on it.
It adds the products center-out, ``l = 0, 1, -1, 2, -2, ..``, one by one,
and width N is the running total after entry 2N: its value does not depend
on which other widths run beside it.  For real increments ``F_{-k} =
conj(F_k)`` and ``I_{-l} = conj(I_l)``, so ``B_N(-n) = conj(B_N(n))``: the
tiles, ``identify_a`` and the drift step take the orders ``0 .. M`` only,
and ``sfc.mirror`` fills ``n < 0`` as these exact conjugates where a full
band is read.

Drift recovery inverts the coefficient relation
``F_n(dX) = div(a conj(e_n)) + (1/m) sum b conj(e_n)``: subtract the
stochastic part and what is left is the drift coefficient.
:func:`drift_coefficients` is that one step, for ``recover_b`` and for
``experiment.run_identify``'s tiles alike, and holds the choice between the
two modes:

* ``closed_form``   ``F_n(dX) - F_n(a dW) + F_n(correction)``, with the true
                    a's own ``F(a dW)``, which ``catalog.dx_coefficients``
                    finds beside ``F(dX)``: no transform of its own;
* ``synthesized``   the divergence of the trigonometric polynomial of the
                    *estimated* coefficients, whose correction is the
                    gradient of the whole estimation pipeline.  Exact
                    first-order calculus suffices because every catalog
                    diffusion is affine in W.

The synthesized step transforms only ``i dW``, where a's table has a lower
triangle.  With ``S = sum_{|l| <= N} I_l e_l``, ``F_n(S x) = sum_{|l| <= N}
I_l F_{n-l}(x)`` is a window, and every term of the correction's band ``|n|
<= M`` is a window or a constant of the run: neither the polynomial nor its
gradient is formed at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import catalog as cat
from .errors import ConfigError
from .sfc import CoefficientSet, coefficients, mirror

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


def _require_grid(m: int, N: int, M: int, band: str = "M") -> None:
    """Refuse a one-path view on a grid that fails :func:`grid_supports`."""
    if not grid_supports(m, N, M):
        raise ValueError(f"grid too coarse: m={m} < 8 (N + {band}) = {8 * (N + M)}")


_MULTIPLY_BUFFER = 512  # elements: numpy's ufunc buffer while windows multiplies (default 8192)


@lru_cache(maxsize=16)
def _window_plan(
    K: int, L: int, orders: tuple[int, ...], widths: tuple[int, ...]
) -> tuple:
    """:func:`windows`' gather indices into ``f_coef`` and ``i_coef``
    (center-out entry j first), its segments ``(width index, start, 2N + 1)``
    in ascending N and the widths ``2N + 1``.  A per-run cache, keyed by the
    shape, orders and widths, so a run's tiles share them (read-only)."""
    orders_ = np.asarray(orders, dtype=int)
    widths_ = np.asarray(widths, dtype=int)
    if not 0 <= widths_.min() <= widths_.max() <= L or L + np.abs(orders_).max() > K:
        raise ValueError(
            f"dW coefficients cover |l| <= {L} and dX coefficients |k| <= {K}; widths "
            f"{widths_.tolist()} at orders {orders_.tolist()} need |l| <= N and |k| <= N + |n|"
        )
    j = np.arange(2 * L + 1)
    ells = (j + 1) // 2 * np.where(j % 2, 1, -1)  # 0, 1, -1, 2, -2, ...
    f_index, i_index, norms = orders_ - ells[:, None] + K, ells + L, 2 * widths_ + 1
    segments, start = [], 0
    for wi in np.argsort(widths_, kind="stable").tolist():
        segments.append((wi, start, int(norms[wi])))
        start = int(norms[wi]) - 1  # the next segment starts on this running total
    for index in (f_index, i_index, norms):
        index.flags.writeable = False
    return f_index, i_index, tuple(segments), norms


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
    ``L + max |n| <= K``.  The products lie l axis first, center-out ``l = 0,
    1, -1, 2, -2, ..``, in a (2L + 1, orders, rows) array, the leading axes
    flattened into rows.  ``F`` is gathered by whole order rows of its (2K +
    1, rows) transpose, which is a view when ``f_coef`` is stored order-major
    as :func:`sfc.coefficients` stores it; ``I`` is gathered the same way,
    and the multiply broadcasts it over the orders.  Every ``f_coef`` of the
    package is stored that way and costs no copy: the sweep's and identify's
    come from that function, and the synthesized drift step
    (:func:`drift_coefficients`) builds its ``carried`` row and its
    ``pairs`` order-major too.  numpy runs the broadcast
    multiply through a ufunc buffer of as many elements as the products, up
    to its default 8192 (128 KiB); every call caps it at ``_MULTIPLY_BUFFER``
    elements (8 KiB), for the calling thread only (``np.setbufsize``).  The
    widths go in ascending N, each one reduce along the l axis over its new
    entries, starting from the total of the width before: the additions of
    one cumsum, in its order, read at entry 2N.  So a width's value does not
    depend on which other widths are asked for, and no difference of two
    prefix sums is taken.  Each width reduces into its contiguous slab of a
    (widths, orders, rows) array, and the result is that array's transpose,
    a view that is not C-contiguous.  The reduce over whole (orders, rows)
    slabs adds them one entry at a time; a single sequence (one order, one
    row) would be added pairwise, so it takes a cumsum.  These are many
    short numpy loops, so a second thread gains little on this stage (the
    rates are in CHANGES.md, under "Sweep memory, part two").  ``out``, a
    C-contiguous complex array of at least as many elements as the
    products, in any shape (a tile's rfft spectrum, say), receives them in
    place of a new array.  Rows never mix, so a row's windows do not depend
    on the rows beside it.
    """
    K = (f_coef.shape[-1] - 1) // 2
    L = (i_coef.shape[-1] - 1) // 2
    f_index, i_index, segments, norms = _window_plan(K, L, tuple(orders), tuple(widths))
    lead = f_coef.shape[:-1]
    f_by_k = np.ascontiguousarray(f_coef.reshape(-1, 2 * K + 1).T)  # gathers whole rows
    if out is not None:
        shape = f_index.shape + f_by_k.shape[1:]
        out = out.reshape(-1)[: math.prod(shape)].reshape(shape)
    # the indices are in range: mode "clip" only keeps take from buffering ``out``
    prod = np.take(f_by_k, f_index, axis=0, out=out, mode="clip")  # (2L + 1, orders, rows)
    i_by_l = np.take(i_coef.reshape(-1, 2 * L + 1).T, i_index, axis=0)[:, None, :]
    bufsize = np.setbufsize(_MULTIPLY_BUFFER)
    try:
        prod *= i_by_l
    finally:
        np.setbufsize(bufsize)
    del i_by_l  # freed before the windows are allocated
    est = np.empty((len(norms),) + prod.shape[1:], dtype=complex)  # (widths, orders, rows)
    for wi, start, stop in segments:
        if start:
            prod[start] = est[prev]
        if prod[0].size > 1:
            np.add.reduce(prod[start:stop], axis=0, out=est[wi])
        else:  # a reduce of a single sequence adds pairwise; cumsum adds in order
            est[wi] = np.cumsum(prod[start:stop], axis=0)[-1]
        prev = wi
    est /= norms[:, None, None]
    return est.T.reshape(lead + est.shape[1::-1])


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
    _require_grid(pf.grid.m, cfg.N, cfg.M)
    K = cfg.N + cfg.M
    i_coef, _, f_coef = cat.dx_coefficients(pf.tables, pf.path.increments, K, K)
    half = windows(f_coef, i_coef[cfg.M : cfg.M + 2 * cfg.N + 1], range(cfg.M + 1), [cfg.N])
    return CoefficientSet(max_order=cfg.M, values=mirror(half[:, 0]))


def _ratios(m: int, L: int) -> np.ndarray:
    """``r_p = 1/(1 - e^{-2 pi i p/m}) = 1/2 - (i/2) cot(pi p/m)``, ``0 < |p| <=
    L``, in column ``p + L`` and 0 at p = 0, with no cancellation in ``1 - e^..``."""
    cot = 1.0 / np.tan(np.pi * np.arange(1, L + 1) / m)
    return np.concatenate([0.5 + 0.5j * cot[::-1], [0.0], 0.5 - 0.5j * cot])


# Two entries, as for ``catalog._order_terms``: a run takes one key, and each
# entry keeps its tables, and through them the spec, alive.
@lru_cache(maxsize=2)
def _drift_plan(st: cat.SpecTables, N: int, M: int) -> tuple:
    """The synthesized drift step's constants at the orders ``n = 0 .. M``:
    the gain ``1 + counts_n/(2N+1)`` of ``F_n(dX)``, ``F(c)``, ``|k| <= N + M``
    (None when c = 0), ``(2M+1) (F(v) + lower r)``, ``|p| <= 2M`` (None when
    the table is zero), ``lower rho_n``, ``rho_n = sum_{|l| <= M} r_{n-l}``,
    and the ramp i (both None if lower = 0).  A per-run cache: the tables
    hash by identity, so a run's tiles share one plan (read-only)."""
    m, da = st.grid.m, st.da
    n = np.arange(M + 1)
    counts = np.minimum(n + N, M) - np.maximum(n - N, -M) + 1
    f_c = coefficients(st.c, N + M) if st.c.any() else None
    ratios = _ratios(m, 2 * M)
    pair = lag = ramp = None
    if da.lower or da.v.any():
        pair = (2 * M + 1) * (coefficients(da.v, 2 * M) + da.lower * ratios)
    if da.lower:
        lag = da.lower * np.array([ratios[k + M : k + 3 * M + 1].sum() for k in n])
        ramp = np.arange(m, dtype=float)
    return 1 + counts / (2 * N + 1), f_c, pair, lag, ramp


def drift_coefficients(
    st: cat.SpecTables,
    mode: str,
    terms: tuple,
    dw: np.ndarray | None,
    a_hat: np.ndarray,
    f_coef: np.ndarray,
    i_coef: np.ndarray,
    *,
    stochastic: np.ndarray | None = None,
    out: tuple[np.ndarray | None, np.ndarray] | None = None,
) -> np.ndarray:
    """``b_n = F_n(dX) - div(a conj(e_n))`` for ``n = 0 .. M``, the orders of
    ``a_hat`` (..., M + 1), one path or each row of a block: the drift step
    of both modes, from W's terms (``catalog.w_terms``), ``F_k = F_k(dX)``,
    ``|k| <= N + M`` (``f_coef``), and ``I_l = F_l(dW)``, ``|l| <= max(N + M,
    2M)`` (``i_coef``).  At ``n < 0`` both a and b are the conjugates
    (``sfc.mirror``).

    ``closed_form`` (a_hat unused) is ``F_n(dX) - F_n(a dW) + F_n(correction)``
    in coefficient space: ``stochastic`` (..., M + 1) is the
    record's own ``F_n(a dW)`` from :func:`catalog.dx_coefficients`.

    ``synthesized`` subtracts ``F_n(a_hat dW)``, the window of I against a_hat,
    and adds ``F_n`` of ``(d a_hat(t_r)/d xi_r) / sqrt(m)``: for ``S = sum_{|l|
    <= N} I_l e_l`` and ``s = 1/sqrt(m)``, ``s/(2N+1)`` times ``(2M+1) s S a +
    S c + v sum_{|j| <= M} F_j(S dW) e_j + lower sum_{i > r} D_M(t_i - t_r) S_i
    dW_i + s sum_k counts_k F_k e_k`` (c the drift derivative, ``D_M`` the
    kernel's lag row, ``counts_k = #{|q| <= M : |k - q| <= N}``).  ``F_n(S x)``
    is the window of I against ``F(x)``: the first two terms and the tails'
    ``F_n(i S dW)`` are one window against ``(2M+1) s F(a) + F(c) + lower F(i
    dW)``, ``F(a)`` m times the truth's; the rank-one part and the rest of the
    tails, ``sum_{|l| <= M} r_{n-l} (F_l(S dW) - F_n(S dW))``, are one window
    of ``F(S dW)`` against ``F(v) + lower r``, less ``lower rho_n F_n(S dW)``;
    the last term is ``counts_n F_n / (2N+1)``.  Only ``i dW`` reads ``dw``,
    which may be None without a lower triangle.  ``out``, a real array shaped
    like dW (dW itself, say) and a flat complex one, receives ``i dW`` and
    serves as scratch.
    """
    K, M = (f_coef.shape[-1] - 1) // 2, a_hat.shape[-1] - 1
    if mode == CLOSED_FORM:
        b = f_coef[..., K : K + M + 1] - stochastic
        b += st.correction_spectrum[: M + 1]
        return b
    m, L, N = st.grid.m, (i_coef.shape[-1] - 1) // 2, K - M
    scratch, buffer = (None, None) if out is None else out
    gain, f_c, pair, lag, ramp = _drift_plan(st, N, M)
    i_band, half = i_coef[..., L - N : L + N + 1], range(M + 1)
    # both f operands of the windows below are order-major, as coefficients
    # stores its rows, so that windows gathers them without a transposed copy;
    # carried's sums run on its transpose, where an order's term is a column
    carried = cat.block_true_fourier_a(st, terms, range(-K, K + 1), i_coef)
    by_order = carried.T
    by_order *= (2 * M + 1) * np.sqrt(m)
    if f_c is not None:
        by_order += f_c.reshape(f_c.shape + (1,) * (i_coef.ndim - 1))
    if ramp is not None:
        ramp_coef = coefficients(np.multiply(ramp, dw, out=scratch), K, buffer).T
        by_order += np.multiply(st.da.lower, ramp_coef, out=ramp_coef)
    correction = windows(carried, i_band, half, [N], buffer)[..., 0]
    if pair is not None:
        y = windows(i_coef, i_band, half, [N], buffer)[..., 0]  # F(S dW) / (2N+1)
        pairs = np.empty(pair.shape + y.shape[-2::-1], dtype=complex).T
        pairs[...] = pair
        correction += windows(pairs, mirror(y), half, [M], buffer)[..., 0]
        if lag is not None:
            correction -= lag * y
    correction /= np.sqrt(m)
    b = gain * f_coef[..., K : K + M + 1]
    b -= (2 * M + 1) * windows(i_coef, mirror(a_hat), half, [M], buffer)[..., 0]
    b += correction
    return b


def recover_b(pf: cat.PathFunctionals, a_hat: CoefficientSet, cfg: BohrConfig) -> CoefficientSet:
    """Recover the drift coefficients ``b_n = F_n(dX) - div(a conj(e_n))``,
    ``|n| <= cfg.M``, of one path: :func:`drift_coefficients` in ``cfg.mode``,
    on a tile's transforms, on a grid that meets :func:`grid_supports`, as
    :func:`identify_a` does.  ``a_hat`` must hold the same orders; its
    orders ``n < 0`` are read as the conjugates of ``n > 0``."""
    if a_hat.max_order != cfg.M:
        raise ValueError(f"a_hat has max_order {a_hat.max_order}, but cfg.M is {cfg.M}")
    _require_grid(pf.grid.m, cfg.N, cfg.M)
    st, dw, M, K = pf.tables, pf.path.increments, cfg.M, cfg.N + cfg.M
    stoch = np.empty(M + 1, dtype=complex)
    i_coef, terms, f_coef = cat.dx_coefficients(st, dw, max(K, 2 * M), K, stochastic=stoch)
    b = drift_coefficients(st, cfg.mode, terms, dw, a_hat.values[M:], f_coef, i_coef,
                           stochastic=stoch)
    return CoefficientSet(M, mirror(b))


@dataclass(frozen=True)
class RemainderTerms:
    """The four-term error decomposition of ``B_N(n) - true coefficient``."""

    double_wiener: complex
    diffusion_derivative: complex
    drift_wiener: complex
    drift_derivative: complex

    @property
    def total(self) -> complex:
        return sum(astuple(self))


def _remainder_windows(pf: cat.PathFunctionals, n: int, N: int, i_coef: np.ndarray) -> tuple:
    """Given one path's dW coefficients ``I``, ``|l| <= N + |n|``, its window
    ``B(x, y) = (1/(2N+1)) sum_i conj(e_n(t_i)) x_i (K y)_i`` (the
    :func:`windows` entry of the coefficients of a row x against ``F(y)``,
    ``I`` by default) and the kernel trace ``(1/(2N+1)) sum_i conj(e_n(t_i))
    dW_i sum_r P[i, r] K[i, r]`` of the diffusion's derivative table P.

    The trace's rank-one part is ``B(dW, v)``.  The strict lower triangle
    adds ``lower S_i`` with ``S_i = sum_{1 <= d <= i} K_N(d/m) = i +
    sum_{0 < |l| <= N} r_l (z_l^i - 1)``, ``z_l = e^{2 pi i l/m}`` and ``r_l =
    z_l/(z_l - 1) = 1/2 - (i/2) cot(pi l/m)``.  The ratios of l and -l add to
    1, so with ``r_0 = -N`` the lower sum is ``F_n(i dW) + sum_{|l| <= N} r_l
    I_{n-l}``: a coefficient plus the window of ``I`` against r.
    """
    m, K = pf.grid.m, N + abs(n)

    def window(x: np.ndarray, y_coef: np.ndarray = i_coef[K - N : K + N + 1]) -> complex:
        return complex(windows(coefficients(x, K), y_coef, [n], [N])[0, 0])

    da = pf.tables.da
    trace = complex(windows(i_coef, coefficients(da.v, N), [n], [N])[0, 0])
    if da.lower:
        ratios = _ratios(m, N)
        ratios[N] = -N
        lower = _coefficient(np.arange(m) * pf.path.increments, n) / (2 * N + 1)
        trace += da.lower * (lower + complex(windows(i_coef, ratios, [n], [N])[0, 0]))
    return window, trace


def _coefficient(x: np.ndarray, n: int) -> complex:
    """``F_n(x) = sum_i conj(e_n(t_i)) x_i``."""
    return complex(coefficients(x, abs(n))[n + abs(n)])


def remainder_terms(pf: cat.PathFunctionals, n: int, N: int) -> RemainderTerms:
    """Evaluate the four-term decomposition at order n and width N.

    The three structured terms come from the catalog's derivative tables;
    the double stochastic integral is the residual ``B_N(n) - true
    coefficient - (other three)``, per the decomposition's exactness on the
    discrete space.  Memory is O(m): every kernel sum is a window.
    """
    m, K = pf.grid.m, N + abs(n)
    s = 1.0 / np.sqrt(m)
    _require_grid(m, N, abs(n), "|n|")
    i_coef, terms, f_coef = cat.dx_coefficients(pf.tables, pf.path.increments, K, K)
    window, trace = _remainder_windows(pf, n, N, i_coef)
    estimate = complex(windows(f_coef, i_coef[K - N : K + N + 1], [n], [N])[0, 0])
    truth = complex(cat.block_true_fourier_a(pf.tables, terms, [n], i_coef)[0])

    # diffusion derivative: (1/sqrt(m)) conj(e_n(t_i)) sum_j (da_i/dxi_j) K[i, j]
    # integrated dW in the i slot.  Catalog diffusions have deterministic derivative
    # tables, so the divergence is the plain Wiener sum.
    diffusion_derivative = s * trace
    # derivative of the drift, double time integral: every row of K sums to m.
    drift_derivative = s * _coefficient(pf.tables.c, n) / (2 * N + 1)
    # drift smoothed by the kernel, integrated dW in the j slot; its divergence
    # correction is the drift derivative.
    drift_wiener = window(cat.block_drift(pf.tables, pf.path.values) / m) - drift_derivative
    double_wiener = estimate - truth - diffusion_derivative - drift_wiener - drift_derivative
    return RemainderTerms(double_wiener, diffusion_derivative, drift_wiener, drift_derivative)


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
    m, K = pf.grid.m, N + abs(n)
    _require_grid(m, N, abs(n), "|n|")
    window, trace = _remainder_windows(pf, n, N, coefficients(pf.path.increments, K))
    a = cat.block_diffusion(pf.tables, pf.path.values)
    outer = window(a * pf.path.increments - pf.tables.correction) - trace / np.sqrt(m)
    return complex(outer - _coefficient(a, n) / m)
