import numpy as np
import numpy.testing as npt
import pytest

from helpers import path_from_xi
from sfc_lab import BrownianPath, SeedSpec, TimeGrid, eval_basis, sample_path
from sfc_lab.brownian import sample_rows, substream, wiener_nodes


def test_seedspec_validation():
    SeedSpec(0, 0)
    SeedSpec(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, 2**64)


def test_path_shapes_and_anchoring():
    grid = TimeGrid(32)
    path = sample_path(SeedSpec(9, 4), grid)
    assert path.values.shape == (33,)
    assert path.increments.shape == (32,)
    assert path.values[0] == 0.0
    xi = substream(SeedSpec(9, 4)).standard_normal(32)
    npt.assert_array_equal(path.increments, xi / np.sqrt(32))
    npt.assert_allclose(np.diff(path.values), path.increments, atol=1e-15)
    assert path.terminal == pytest.approx(path.increments.sum())


def test_same_seed_reproduces_bitwise():
    grid = TimeGrid(64)
    a = sample_path(SeedSpec(42, 7), grid)
    b = sample_path(SeedSpec(42, 7), grid)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.increments, substream(SeedSpec(42, 7)).standard_normal(64) / 8.0)
    assert np.array_equal(a.values, b.values)


def test_distinct_indices_decorrelate():
    grid = TimeGrid(64)
    a = sample_path(SeedSpec(42, 0), grid)
    b = sample_path(SeedSpec(42, 1), grid)
    c = sample_path(SeedSpec(43, 0), grid)
    assert not np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


@pytest.mark.parametrize("m", [512, 4096])
@pytest.mark.parametrize("lo", [0, 2000])
def test_sample_rows_are_sample_path_bitwise(m, lo):
    # the blocked sampler of the engine and the battery, from a fresh and
    # from a used generator, and the one-path view on it, against a one-path
    # reference built from the substream directly
    grid = TimeGrid(m)
    used = substream(SeedSpec(5, 999))
    used.standard_normal(7)
    for rng in (None, used):
        dw, w = np.full((3, m), np.nan), np.full((3, m + 1), np.nan)
        returned = sample_rows(42, lo, dw, rng)
        assert rng is None or returned is rng
        assert wiener_nodes(dw, w) is w
        for r in range(3):
            increments = substream(SeedSpec(42, lo + r)).standard_normal(m) / np.sqrt(m)
            values = np.concatenate([[0.0], np.cumsum(increments)])
            path = sample_path(SeedSpec(42, lo + r), grid)
            for row, nodes in ((dw[r], w[r]), (path.increments, path.values)):
                assert np.array_equal(row, increments)
                assert np.array_equal(nodes, values)


def test_substream_is_schedule_free():
    # drawing the same substream twice gives the same stream regardless of
    # what other substreams were consumed in between
    first = substream(SeedSpec(5, 3)).standard_normal(16)
    substream(SeedSpec(5, 999)).standard_normal(1000)
    second = substream(SeedSpec(5, 3)).standard_normal(16)
    assert np.array_equal(first, second)


def test_rekeyed_substream_is_a_new_substream():
    gen = substream(SeedSpec(5, 0))
    gen.standard_normal(7)
    gen.integers(0, 9, size=3, dtype=np.uint32)  # leaves a buffered word and a half word
    for seed in (SeedSpec(5, 3), SeedSpec(2**64 - 1, 2**64 - 1), SeedSpec(0, 0), SeedSpec(5, 3)):
        fresh = substream(seed)
        assert substream(seed, gen) is gen
        assert np.array_equal(gen.standard_normal(33), fresh.standard_normal(33))
        assert np.array_equal(gen.integers(0, 2**31, size=5, dtype=np.uint32),
                              fresh.integers(0, 2**31, size=5, dtype=np.uint32))
        assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9))


def test_path_from_xi_round_trip():
    grid = TimeGrid(16)
    path = sample_path(SeedSpec(11, 2), grid)
    xi = substream(SeedSpec(11, 2)).standard_normal(16)
    rebuilt = path_from_xi(xi, grid)
    assert np.array_equal(rebuilt.values, path.values)
    with pytest.raises(ValueError):
        path_from_xi(xi[:-1], grid)


def test_path_validation():
    grid = TimeGrid(4)
    with pytest.raises(ValueError):
        BrownianPath(grid=grid, values=np.ones(5), increments=np.zeros(4))  # W_0 != 0


def test_terminal_distribution_moments():
    grid = TimeGrid(128)
    terms = np.array([sample_path(SeedSpec(777, i), grid).terminal for i in range(600)])
    assert abs(terms.mean()) < 0.13  # 3 sigma at P = 600
    assert abs(terms.var(ddof=1) - 1.0) < 0.18


def test_basis_integral_isometry():
    # E |sum conj(e_1) dW|^2 = 1 exactly in expectation on the grid
    grid = TimeGrid(128)
    e = eval_basis(-1, grid.left_nodes)
    vals = np.array(
        [abs(np.dot(e, sample_path(SeedSpec(778, i), grid).increments)) ** 2 for i in range(600)]
    )
    assert abs(vals.mean() - 1.0) < 0.17
