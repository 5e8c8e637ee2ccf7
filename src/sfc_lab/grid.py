"""Uniform time grid on [0, 1], trigonometric basis, and the Dirichlet kernel.

Everything downstream discretizes [0, 1] into ``m`` equal cells with nodes
``t_i = i/m``.  Riemann sums are left-tagged: integrands are sampled at
``t_0 .. t_{m-1}``.  The tagging is load-bearing, not cosmetic: the processes
treated here have integrands correlated with the increments, so moving the
tag moves the answer.

The Dirichlet kernel is *defined* as the symmetric exponential sum

    K_N(x) = sum_{|l| <= N} exp(-2*pi*i*l*x),

which is real, even, and equals exactly ``2N + 1`` at ``x = 0``.  The familiar
sine-ratio closed form is provided only as a cross-check; it reproduces the
sum at a rescaled argument (see ``dirichlet_closed_form``).  At the left tags
the same sum is one inverse FFT, ``sfc.synthesize`` of the all-ones window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sfc import synthesize

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, 1] into ``m`` cells.

    Parameters
    ----------
    m : int
        Number of cells; must be at least 2.
    """

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool):
            raise ConfigError(f"m must be an integer, got {self.m!r}")
        if self.m < 2:
            raise ConfigError(f"m must be >= 2, got {self.m}")

    @property
    def left_nodes(self) -> np.ndarray:
        """The m left tags ``t_0 .. t_{m-1}`` used by every Riemann sum."""
        return np.arange(self.m) / self.m


def eval_basis(n: int, t: np.ndarray | float) -> np.ndarray:
    """Evaluate ``e_n(t) = exp(2*pi*i*n*t)``.

    The conjugate basis function used in coefficient sums is
    ``eval_basis(-n, t)``.
    """
    return np.exp(TWO_PI * 1j * n * np.asarray(t, dtype=float))


def dirichlet_kernel(N: int, x: np.ndarray | float) -> np.ndarray:
    """Dirichlet kernel by its defining sum, ``sum_{|l|<=N} exp(-2 pi i l x)``.

    Parameters
    ----------
    N : int
        Kernel order, ``N >= 0``.
    x : array_like
        Evaluation points.

    Returns
    -------
    ndarray of complex
        Kernel values.  At ``x = 0`` the terms are each exactly ``1 + 0j``,
        so the value is exactly ``2N + 1``.  The imaginary part elsewhere is
        rounding noise from the pairwise cancellation of ``+l`` and ``-l``
        terms.

    Notes
    -----
    This off-grid definition builds a (2N + 1, x.size) term table; at the
    left tags the package uses ``sfc.synthesize`` of the all-ones window.
    The sine-ratio expression is kept in :func:`dirichlet_closed_form`
    strictly as an independent cross-check.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ells = np.arange(-N, N + 1).reshape((-1,) + (1,) * xs.ndim)
    # (2N+1, *x.shape) term table; modest N keeps this cheap and exact at x=0.
    terms = np.exp(-TWO_PI * 1j * ells * xs)
    out = terms.sum(axis=0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return out[0]
    return out


def dirichlet_closed_form(N: int, t: np.ndarray | float) -> np.ndarray:
    """Sine-ratio form ``sin((N + 1/2) pi t) / sin(pi t / 2)``.

    This classical expression uses a half-angle convention: it agrees with
    the defining sum at a rescaled argument,

        dirichlet_kernel(N, x) == dirichlet_closed_form(N, 2 * x),

    which is exactly how it is used in the cross-check tests.  Removable
    singularities (t even integer) evaluate to the limit ``2N + 1`` times the
    sign carried by the numerator/denominator derivatives.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    num = np.sin((N + 0.5) * np.pi * ts)
    den = np.sin(0.5 * np.pi * ts)
    out = np.empty_like(ts)
    singular = np.abs(den) < 1e-12
    np.divide(num, den, out=out, where=~singular)
    if np.any(singular):
        # l'Hopital: ratio of derivatives, (2N+1) cos((N+1/2) pi t) / cos(pi t / 2).
        # Both cosines sit at +-1 near a singular point, so this is stable.
        tk = ts[singular]
        out[singular] = (2 * N + 1) * np.cos((N + 0.5) * np.pi * tk) / np.cos(0.5 * np.pi * tk)
    if np.isscalar(t) or np.ndim(t) == 0:
        return out[0]
    return out


def kernel_l2_identity(N: int, m: int) -> float:
    """Left Riemann sum of ``|K_N|**2`` over the grid, expected ``2N + 1``.

    The integrand is a trigonometric polynomial of degree ``2N``, so the
    discrete sum reproduces the integral exactly (up to rounding) once the
    grid resolves it; ``m >= 4N + 4`` is required.  K_N comes from one
    inverse FFT (``sfc.synthesize``), in O(m) memory.

    Raises
    ------
    ConfigError
        If ``N < 0`` or ``m < 4N + 4``.
    """
    if N < 0:
        raise ConfigError(f"N must be >= 0, got {N}")
    if m < 4 * N + 4:
        raise ConfigError(f"need m >= 4N + 4 = {4 * N + 4} to resolve |K_N|^2, got m={m}")
    vals = synthesize(np.ones(2 * N + 1), m)
    return float(np.dot(vals, vals) / m)

