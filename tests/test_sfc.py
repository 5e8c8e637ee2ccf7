import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference as ref
from helpers import spec_for
from sfc_lab import (
    CoefficientSet,
    SeedSpec,
    TimeGrid,
    eval_functionals,
    sample_path,
    sfc_range,
    wiener_sfc_range,
)
from sfc_lab.bohr import windows
from sfc_lab.sfc import coefficients, mirror


def test_coefficient_set_access():
    cs = CoefficientSet(max_order=2, values=np.arange(5, dtype=complex))
    assert cs.entry(-2) == 0
    assert cs.entry(0) == 2
    assert cs.entry(2) == 4
    with pytest.raises(ValueError):
        cs.entry(3)
    with pytest.raises(ValueError):
        CoefficientSet(max_order=2, values=np.zeros(4, dtype=complex))


def test_wiener_sfc_values():
    grid = TimeGrid(64)
    path = sample_path(SeedSpec(31, 2), grid)
    # order zero integrates dW over [0, 1]
    assert wiener_sfc_range(path, 0).entry(0) == pytest.approx(path.terminal, abs=1e-14)
    ws = wiener_sfc_range(path, 4)
    for ell in range(-4, 5):
        assert ws.entry(ell) == pytest.approx(ref.transform(path.increments, ell), abs=1e-13)
    # conjugate symmetry of coefficients of a real differential
    assert ws.entry(-3) == pytest.approx(np.conj(ws.entry(3)), abs=1e-13)


def test_alias_guard():
    grid = TimeGrid(8)
    path = sample_path(SeedSpec(31, 3), grid)
    pf = eval_functionals(spec_for("CONST"), path)
    with pytest.raises(ValueError):
        sfc_range(pf, 4)  # m = 8 needs m > 2|n|
    with pytest.raises(ValueError):
        wiener_sfc_range(path, 4)
    with pytest.raises(ValueError):
        coefficients(path.increments, -1)
    sfc_range(pf, 3)  # boundary order is fine


def test_isometry_of_wiener_coefficients():
    grid = TimeGrid(128)
    vals = np.array(
        [
            abs(wiener_sfc_range(sample_path(SeedSpec(32, i), grid), 1).entry(1)) ** 2
            for i in range(500)
        ]
    )
    assert abs(vals.mean() - 1.0) < 0.2


@st.composite
def increments_and_order(draw):
    m = 2 * draw(st.integers(1, 40)) + draw(st.integers(0, 1))
    max_order = draw(st.integers(0, (m - 1) // 2))  # max_order < m/2
    batch = draw(st.sampled_from([(), (1,), (2,), (5,)]))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    x = draw(hnp.arrays(np.float64, batch + (m,), elements=finite))
    return x, max_order


@settings(max_examples=80)
@given(increments_and_order())
def test_coefficients_properties(case):
    x, max_order = case
    got = coefficients(x, max_order)
    assert got.shape == x.shape[:-1] + (2 * max_order + 1,)
    rows = x.reshape(-1, x.shape[-1])
    got_rows = got.reshape(rows.shape[0], -1)
    for row, coef in zip(rows, got_rows):
        tol = 1e-12 * (1.0 + np.sum(np.abs(row)))
        for k in range(-max_order, max_order + 1):
            assert abs(coef[k + max_order] - ref.transform(row, k)) <= tol, k
        # a given spectrum buffer changes nothing, bitwise
        spectrum = np.full(row.shape[:-1] + (len(row) // 2 + 1,), np.nan, dtype=complex)
        assert coefficients(row, max_order, spectrum).tobytes() == coef.tobytes()
        # each row is transformed on its own, bitwise
        assert np.array_equal(coefficients(row, max_order), coef)
        # real input: negative orders are the conjugates
        assert np.array_equal(coef[max_order::-1], np.conj(coef[max_order:]))


def _concat_conj(half, axis):
    """The orders -M .. M as the package once built them: the reversed,
    conjugated orders M .. 1 joined before the half."""
    h = np.moveaxis(half, axis, -1)
    return np.moveaxis(np.concatenate([np.conj(h[..., :0:-1]), h], axis=-1), -1, axis)


@settings(max_examples=80)
@given(is_complex=st.booleans(), data=st.data())
def test_mirror_conjugates_the_nonnegative_orders(is_complex, data):
    # bitwise the concatenated conjugates, signed zeros, infinities and NaNs
    # too, for real and complex halves, each axis moved last
    dtype, elements = (np.complex128, st.complex_numbers()) if is_complex else (
        np.float64, st.floats())
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, max_side=5)
    half = data.draw(hnp.arrays(dtype, shapes, elements=elements))
    axis = data.draw(st.integers(-half.ndim, half.ndim - 1))
    full = np.moveaxis(mirror(np.moveaxis(half, axis, -1)), -1, axis)
    ref = _concat_conj(half, axis)
    assert full.dtype == ref.dtype and full.shape == ref.shape
    assert np.ascontiguousarray(full).tobytes() == np.ascontiguousarray(ref).tobytes()


def test_mirror_of_the_half_band_windows_is_the_full_band():
    # B_N(-n) = conj(B_N(n)) for real increments
    rng = np.random.default_rng(5)
    dx, dw = rng.standard_normal((2, 3, 128))
    M, widths = 3, [2, 8]
    f_coef, i_coef = coefficients(dx, 8 + M), coefficients(dw, 8)
    half = np.moveaxis(windows(f_coef, i_coef, range(M + 1), widths), 1, -1)  # orders last
    band = np.moveaxis(mirror(half), -1, 1)
    npt.assert_allclose(band, windows(f_coef, i_coef, range(-M, M + 1), widths), rtol=1e-14)
