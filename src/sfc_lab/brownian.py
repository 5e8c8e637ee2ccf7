"""Seeded Brownian paths on the grid: one path, or rows of paths in place.

Seeding contract
----------------
Each path is drawn from its own counter-based substream: the Philox bit
generator keyed by ``(master_seed, path_index)``.  Consequences, all relied
on elsewhere:

* a path is a pure function of ``(master_seed, path_index, m)`` -- no global
  state, no draw-order coupling between paths;
* Monte Carlo runs can be split across workers in any schedule and still
  produce bit-identical paths;
* the first ``P'`` paths of a ``P``-path run coincide with a ``P'``-path run
  (prefix property).

Gaussian variates come from ``numpy``'s ``Generator.standard_normal``
(ziggurat), which is deterministic for a fixed bit stream.  One sampler
draws them: :func:`sample_rows` fills rows of paths in place, and
:func:`sample_path` is one such row with its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import TimeGrid


@dataclass(frozen=True)
class SeedSpec:
    """Substream address: master seed plus path index."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.master_seed > 2**64 - 1:
            raise ConfigError(f"master_seed must fit in uint64, got {self.master_seed}")
        if self.path_index < 0 or self.path_index > 2**64 - 1:
            raise ConfigError(f"path_index must fit in uint64, got {self.path_index}")


@dataclass(frozen=True)
class BrownianPath:
    """One discrete Brownian path bound to its grid.

    Attributes
    ----------
    grid : TimeGrid
    values : ndarray, shape (m + 1,)
        ``W`` at every node, ``W_0 = 0``.
    increments : ndarray, shape (m,)
        ``W_{t_{i+1}} - W_{t_i}``, i.i.d. ``N(0, 1/m)``.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    increments: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = self.grid.m
        if self.values.shape != (m + 1,):
            raise ValueError(f"values must have shape ({m + 1},), got {self.values.shape}")
        if self.increments.shape != (m,):
            raise ValueError(f"increments must have shape ({m},), got {self.increments.shape}")
        if self.values[0] != 0.0:
            raise ValueError("paths start at W_0 = 0")

    @property
    def terminal(self) -> float:
        """``W_1``."""
        return float(self.values[-1])


def substream(seed: SeedSpec, rekey: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for one path's substream (Philox keyed by seed and index).

    Given ``rekey``, a generator from an earlier call, its Philox is reset to
    the new key with a zero counter and an empty buffer instead, which is
    the state a new ``Philox(key=)`` starts in, so the stream is the same;
    a new bit generator would also read OS entropy it then discards.  The
    state takes plain ints, which cost less to set than uint64 arrays.
    """
    if rekey is None:
        key = np.array([seed.master_seed, seed.path_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    rekey.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed.master_seed, seed.path_index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rekey


def sample_path(seed: SeedSpec, grid: TimeGrid) -> BrownianPath:
    """Draw the path addressed by ``seed`` on ``grid``: one row of
    :func:`sample_rows` and its :func:`wiener_nodes`."""
    dw = np.empty((1, grid.m))
    sample_rows(seed.master_seed, seed.path_index, dw)
    w = wiener_nodes(dw, np.empty((1, grid.m + 1)))[0]
    return BrownianPath(grid=grid, values=w, increments=dw[0])


def sample_rows(
    master_seed: int, lo: int, dw: np.ndarray, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Draw the increments of paths ``lo, lo + 1, ..`` in place into the rows
    of dW (rows, m), the path of ``SeedSpec(master_seed, lo + r)`` in row r;
    W is :func:`wiener_nodes` of them.

    ``rng``, a generator from an earlier call, is rekeyed for each row
    (:func:`substream`); the last one is returned to be passed back.
    """
    for r, row in enumerate(dw):
        rng = substream(SeedSpec(master_seed, lo + r), rng)
        rng.standard_normal(out=row)
    dw /= np.sqrt(dw.shape[-1])
    return rng


def wiener_nodes(dw: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W (rows, m + 1) from dW (rows, m), in place into ``w``, which it
    returns: ``W_0 = 0``, then one ``add.accumulate`` a row.  numpy holds the
    GIL through a cumsum along a 2-D array's rows and releases it for a 1-D
    one of 500 or more entries, so threads that build their own rows
    overlap."""
    w[:, 0] = 0.0
    for row, nodes in zip(dw, w[:, 1:]):
        np.add.accumulate(row, out=nodes)
    return w
