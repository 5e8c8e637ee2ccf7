import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sfc_lab import TimeGrid, dirichlet_kernel, eval_basis, kernel_l2_identity
from sfc_lab.grid import dirichlet_closed_form
from sfc_lab.sfc import synthesize


def test_grid_fields():
    grid = TimeGrid(8)
    npt.assert_allclose(grid.left_nodes, np.arange(8) / 8, rtol=0, atol=0)


def test_grid_rejects_tiny_m():
    with pytest.raises(ValueError):
        TimeGrid(1)


def test_basis_values():
    # e_1 walks the unit circle: quarter turn at t = 1/4
    assert eval_basis(1, 0.25) == pytest.approx(1j)
    assert eval_basis(-1, 0.25) == pytest.approx(-1j)
    assert eval_basis(0, 0.7) == pytest.approx(1.0)
    t = np.linspace(0, 1, 17)
    npt.assert_allclose(np.abs(eval_basis(5, t)), 1.0, atol=1e-14)
    # conjugate symmetry e_{-n} = conj(e_n)
    npt.assert_allclose(eval_basis(-3, t), np.conj(eval_basis(3, t)), atol=1e-14)


def test_basis_orthogonality_on_grid():
    m = 64
    t = TimeGrid(m).left_nodes
    for k in range(-5, 6):
        for l in range(-5, 6):
            val = np.sum(eval_basis(k, t) * eval_basis(-l, t)) / m
            target = 1.0 if k == l else 0.0
            assert abs(val - target) < 1e-13


def test_kernel_peak_is_exact():
    for N in (1, 4, 17):
        val = dirichlet_kernel(N, np.array([0.0]))[0]
        assert val == 2 * N + 1  # summing 2N+1 exact ones


def test_kernel_real_even():
    x = np.linspace(-1.3, 1.3, 41)
    k = dirichlet_kernel(6, x)
    npt.assert_allclose(k.imag, 0.0, atol=1e-12)
    npt.assert_allclose(k, dirichlet_kernel(6, -x), atol=1e-12)


def test_kernel_matches_closed_form():
    # closed form takes the doubled argument; check on and off the
    # singular set of its sine quotient
    N = 7
    x = np.concatenate([np.linspace(0.01, 0.99, 23), [0.0, 1.0, 2.0]])
    summed = dirichlet_kernel(N, x)
    closed = dirichlet_closed_form(N, 2 * x)
    npt.assert_allclose(summed.real, closed.real, atol=1e-10)


def test_kernel_l2_identity_values():
    # frozen oracle: (1/m) sum |K_N(t_i)|^2 = 2N+1 exactly on the grid
    for N in (1, 5, 32):
        m = 4 * N + 4
        val = kernel_l2_identity(N, m)
        assert abs(val - (2 * N + 1)) <= 1e-9 * (2 * N + 1)


def test_kernel_l2_identity_memory_is_linear_in_m():
    # the (2N + 1, m) complex term table alone was 52 MB here; stay O(m)
    N, m = 200, 4096
    tracemalloc.start()
    try:
        value = kernel_l2_identity(N, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(value - (2 * N + 1)) <= 1e-12 * (2 * N + 1)
    assert peak < 2_000_000, peak


def test_kernel_l2_identity_needs_fine_grid():
    with pytest.raises(ValueError):
        kernel_l2_identity(5, 23)


def test_lag_row_is_one_inverse_fft():
    # the kernel's lags k_d = K_N(d/m): one inverse FFT of the all-ones window
    for N, m in ((0, 8), (3, 16), (17, 64), (256, 4096)):
        lags = synthesize(np.ones(2 * N + 1), m)
        tol = 1e-12 * (2 * N + 1)
        brute = dirichlet_kernel(N, TimeGrid(m).left_nodes).real
        npt.assert_allclose(lags, brute, rtol=0, atol=tol)
        assert abs(lags[0] - (2 * N + 1)) <= tol
        npt.assert_allclose(lags[1:], lags[:0:-1], rtol=0, atol=tol)
