"""Stochastic Fourier coefficients of dX and of dW, and the way back.

The coefficient of order n is the left-tagged Riemann-Stieltjes sum

    F_n(dX) = sum_i conj(e_n(t_i)) (X_{t_{i+1}} - X_{t_i}),

taken against the increments of the integrated process.  Left tagging is the
definition here, not an approximation choice: with anticipating integrands
the tag selects which integral the sum converges to.

With ``t_i = i/m`` the sum is the real DFT of the increments:
``np.fft.rfft(x)[n] = sum_i exp(-2 pi i n i/m) x_i`` is ``F_n`` for
``n >= 0``.  The increments are real, so the negative orders are conjugates,
``F_{-n} = conj(F_n)``, and :func:`coefficients` fills them that way.  Every
coefficient in the package comes from it: those of dW, the windows of the
remainders, the left Riemann truth of a (through ``F(dW)``) and ``F(dX)``,
by linearity from ``F(dW)``, ``W_tau`` and ``W_1`` (sums of dW) and one
transform of ``(f + alpha W) dW``, which W1, MIDPOINT and CONST skip
(``catalog.dx_coefficients``); only ADAPTED_W and BRIDGE build W.
What is built from them mirrors the same way, and everything else builds
the orders ``n = 0 .. M`` alone: :func:`mirror` fills in ``n < 0``.
The inverse, :func:`synthesize`, is the one way back to the left tags: one
``irfft`` gives the kernel's lag row and every trigonometric-polynomial
table of the catalog.  Direct sums remain only in the tests' reference
(``tests/reference.py``), which takes no transform of the package, so that
it checks both ways.
Each row is transformed on its own, so a row's coefficients are bitwise the
same whatever block it arrives in.

Aliasing guard: order n is only meaningful when the grid resolves the
oscillation, so every operation requires ``m > 2 |n|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .brownian import BrownianPath
    from .catalog import PathFunctionals


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients indexed symmetrically by order n, |n| <= max_order."""

    max_order: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {self.max_order}")
        if self.values.shape != (2 * self.max_order + 1,):
            raise ValueError(
                f"values must have shape ({2 * self.max_order + 1},), got {self.values.shape}"
            )

    def entry(self, n: int) -> complex:
        if abs(n) > self.max_order:
            raise ValueError(
                f"order {n} not held by this set (max_order={self.max_order})"
            )
        return complex(self.values[n + self.max_order])


def coefficients(
    increments: np.ndarray, max_order: int, out: np.ndarray | None = None
) -> np.ndarray:
    """All ``sum_i conj(e_k(t_i)) x_i`` with ``|k| <= max_order``.

    Parameters
    ----------
    increments : ndarray, shape (m,) or (B, m)
        Real values at the m left tags, one path per row.
    max_order : int
        Largest order kept; the grid must satisfy ``m > 2 max_order``.
    out : C-contiguous ndarray of complex, any shape, optional
        Receives the real FFT in its first ``B (m // 2 + 1)`` elements; the
        orders kept are copied out of it, so it may be reused at once.

    Returns
    -------
    ndarray of complex, shape (2 max_order + 1,) or (B, 2 max_order + 1)
        Order k in column ``k + max_order``.  The rows are stored order-major,
        so the array is the transpose of a C-contiguous (2 max_order + 1, B)
        one: order k of every row is one contiguous run, as :func:`bohr.windows`
        gathers it.  It is the only array allocated: the orders ``k < 0`` are
        copied and then conjugated in place, since a conjugate read straight
        from the strided spectrum would make numpy allocate a ufunc buffer.
    """
    x = np.asarray(increments, dtype=float)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    m = x.shape[-1]
    if m <= 2 * max_order:
        raise ValueError(
            f"order {max_order} aliases on a grid with m={m} cells; need m > {2 * max_order}"
        )
    K = max_order
    if out is not None:
        out = out.reshape(-1)[: x.size // m * (m // 2 + 1)].reshape(x.shape[:-1] + (-1,))
    spectrum = np.fft.rfft(x, axis=-1, out=out).T  # orders first
    by_order = np.empty((2 * K + 1,) + x.shape[-2::-1], dtype=complex)
    by_order[K:] = spectrum[: K + 1]
    by_order[:K] = spectrum[K:0:-1]
    np.conjugate(by_order[:K], out=by_order[:K])
    return by_order.T


def mirror(half: np.ndarray) -> np.ndarray:
    """The orders ``-M .. M`` along the last axis from the orders ``0 .. M``
    of ``half``: entry -n is entry n, conjugated when complex.  A new array."""
    M = half.shape[-1] - 1
    full = np.take(half, np.abs(np.arange(-M, M + 1)), axis=-1)
    if np.iscomplexobj(full):
        np.conjugate(full[..., :M], out=full[..., :M])  # n < 0
    return full


def synthesize(values: np.ndarray, m: int) -> np.ndarray:
    """The real polynomial ``sum_n c_n e_n(t_i)`` at the m left tags, for
    each row (..., 2K + 1) of orders ``-K .. K``: one ``np.fft.irfft`` of the
    orders ``n >= 0``, so the coefficients must be conjugate-symmetric,
    ``c_{-n} = conj(c_n)``.  The inverse of :func:`coefficients` up to the
    factor m; needs ``m > 2K``."""
    K = (values.shape[-1] - 1) // 2
    if m <= 2 * K:
        raise ValueError(f"order {K} aliases on a grid with m={m} cells")
    nodes = np.fft.irfft(values[..., K:], n=m)
    nodes *= m
    return nodes


def sfc_range(pf: PathFunctionals, max_order: int) -> CoefficientSet:
    """All coefficients of dX with |n| <= max_order (``catalog.dx_coefficients``)."""
    from .catalog import dx_coefficients  # the catalog imports this module
    *_, values = dx_coefficients(pf.tables, pf.path.increments, max_order, max_order)
    return CoefficientSet(max_order=max_order, values=values)


def wiener_sfc_range(path: BrownianPath, max_order: int) -> CoefficientSet:
    """All coefficients of dW with |ell| <= max_order."""
    return CoefficientSet(max_order=max_order, values=coefficients(path.increments, max_order))
