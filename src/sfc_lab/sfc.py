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
coefficient in the package comes from it: those of dX and dW, the windows of
the remainders and, through the dW coefficients, the left Riemann truth of a.
Its inverse, :func:`synthesize`, is the one way back to the left tags: one
``irfft`` gives the estimated a, the estimator's gradient, the kernel's lag
row and every trigonometric-polynomial table of the catalog.  Direct sums
remain only in the tests' oracles (``exact_diffusion_sfc`` and the basis
loop of ``trigpoly_nodes``), kept independent so they can compare the two.
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

    @property
    def orders(self) -> np.ndarray:
        return np.arange(-self.max_order, self.max_order + 1)

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
    out : ndarray of complex, shape (m // 2 + 1,) or (B, m // 2 + 1), optional
        Receives the real FFT in place of a new array; the orders kept are
        copied out of it, so it may be reused as soon as this returns.

    Returns
    -------
    ndarray of complex, shape (2 max_order + 1,) or (B, 2 max_order + 1)
        Order k in column ``k + max_order``.
    """
    x = np.asarray(increments, dtype=float)
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    m = x.shape[-1]
    if m <= 2 * max_order:
        raise ValueError(
            f"order {max_order} aliases on a grid with m={m} cells; need m > {2 * max_order}"
        )
    pos = np.fft.rfft(x, axis=-1, out=out)[..., : max_order + 1]
    return np.concatenate([np.conj(pos[..., :0:-1]), pos], axis=-1)


def synthesize(coeffs: CoefficientSet | np.ndarray, m: int) -> np.ndarray:
    """The real polynomial ``sum_n c_n e_n(t_i)`` at the m left tags, for a
    set or for each row (..., 2K + 1) of orders ``-K .. K``: one
    ``np.fft.irfft`` of the orders ``n >= 0``, so the coefficients must be
    conjugate-symmetric, ``c_{-n} = conj(c_n)``.  The inverse of
    :func:`coefficients` up to the factor m; needs ``m > 2K``."""
    values = coeffs.values if isinstance(coeffs, CoefficientSet) else coeffs
    K = (values.shape[-1] - 1) // 2
    if m <= 2 * K:
        raise ValueError(f"order {K} aliases on a grid with m={m} cells")
    return np.fft.irfft(values[..., K:], n=m) * m


def sfc_range(pf: PathFunctionals, max_order: int) -> CoefficientSet:
    """All coefficients of dX with |n| <= max_order."""
    return CoefficientSet(max_order=max_order, values=coefficients(pf.dx, max_order))


def wiener_sfc_range(path: BrownianPath, max_order: int) -> CoefficientSet:
    """All coefficients of dW with |ell| <= max_order."""
    return CoefficientSet(max_order=max_order, values=coefficients(path.increments, max_order))
