"""Exact identities of the discrete derivative/divergence pair.

The hand-expanded values in here were derived independently before the
implementation: for constant-in-time rows u_i = W_1 the divergence is
W_1^2 - 1 (the correction sums m times (1/sqrt m)(1/sqrt m)), and the
factor-out/product identities then close without any remainder.
"""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import spec_for, w1_functionals
from sfc_lab import (
    CATALOG_KINDS,
    DerivativeTable,
    DiscreteFunctional,
    FunctionalArray,
    SeedSpec,
    TimeGrid,
    discrete_divergence,
    divergence_with_partials,
    eval_basis,
    lemma_fdelta_residual,
    pairing,
    prop1_residual,
    prop2_residual,
    sample_path,
)


def zero_table(m):
    return DerivativeTable(u=np.zeros(m), v=np.zeros(m))


def test_container_validation():
    with pytest.raises(ValueError):
        DiscreteFunctional(value=1.0, partials=None)
    with pytest.raises(ValueError):
        FunctionalArray(values=np.ones(4), partials=zero_table(3))
    with pytest.raises(ValueError):
        FunctionalArray(values=np.ones(4), partials=np.ones((4, 4)))
    with pytest.raises(ValueError):
        DerivativeTable(u=np.ones(3), v=np.ones(4))
    arr = FunctionalArray(values=np.arange(5.0), partials=zero_table(5))
    assert arr.m == 5
    npt.assert_allclose(arr.partials.dense(), 0.0, atol=0)


def test_divergence_of_deterministic_row_is_ito(paths256):
    path = paths256[0]
    u = FunctionalArray(values=np.ones(path.grid.m), partials=zero_table(path.grid.m))
    # zero correction: the divergence is the plain Wiener sum
    assert discrete_divergence(u, path) == pytest.approx(path.terminal, abs=1e-15)


def test_divergence_of_w1_row_is_hermite(paths256):
    # frozen hand oracle: delta(W_1 * 1) = W_1^2 - 1 exactly
    for path in paths256[:5]:
        m = path.grid.m
        s = 1.0 / np.sqrt(m)
        table = DerivativeTable(u=np.ones(m), v=np.full(m, s))
        assert np.array_equal(table.dense(), np.full((m, m), s))
        u = FunctionalArray(values=np.full(m, path.terminal), partials=table)
        val = discrete_divergence(u, path)
        assert val == pytest.approx(path.terminal**2 - 1.0, abs=1e-12)


def test_divergence_of_adapted_row_is_ito_sum(paths256):
    # strictly lower-triangular derivative table has zero trace, so the
    # divergence coincides with the left Ito sum
    path = paths256[1]
    m = path.grid.m
    w_left = path.values[:-1]
    partials = DerivativeTable(u=np.ones(m), v=np.zeros(m), lower=1.0 / np.sqrt(m))
    assert np.array_equal(partials.dense(), np.tril(np.full((m, m), 1.0 / np.sqrt(m)), k=-1))
    u = FunctionalArray(values=w_left, partials=partials)
    ito = float(np.dot(w_left, path.increments))
    assert discrete_divergence(u, path) == pytest.approx(ito, abs=1e-15)


def test_pairing_of_terminal_against_constant(paths256):
    # <D W_1, e_0> = (1/sqrt m) sum_i 1/sqrt m = 1 exactly
    path = paths256[2]
    m = path.grid.m
    F = DiscreteFunctional(value=path.terminal, partials=np.full(m, 1.0 / np.sqrt(m)))
    assert pairing(F, np.ones(m), path) == pytest.approx(1.0, abs=1e-13)


def test_divergence_gradient(paths256):
    # gradient of delta(ones) = W_1 is the constant row 1/sqrt(m); gradient
    # of delta(W_1 row) = W_1^2 - 1 is 2 W_1 / sqrt(m)
    path = paths256[3]
    m = path.grid.m
    s = 1.0 / np.sqrt(m)
    det = divergence_with_partials(FunctionalArray(values=np.ones(m), partials=zero_table(m)), path)
    npt.assert_allclose(det.partials, np.full(m, s), atol=1e-15)
    u = FunctionalArray(
        values=np.full(m, path.terminal), partials=DerivativeTable(u=np.ones(m), v=np.full(m, s))
    )
    non = divergence_with_partials(u, path)
    npt.assert_allclose(non.partials, np.full(m, 2.0 * path.terminal * s), atol=1e-12)


def test_lemma_residual_battery(paths256, grid256):
    worst = 0.0
    for path in paths256:
        for functional in w1_functionals(path).values():
            for n in (0, 1, -3):
                e = eval_basis(n, grid256.left_nodes)
                worst = max(worst, lemma_fdelta_residual(functional, e, path))
    assert worst <= 1e-10


def test_prop1_hand_expansion(paths256):
    # a = W_1, e = e_0: LHS = (W_1^2 - 1) W_1; the three RHS pieces are
    # (W_1^2-1)W_1 - 2W_1, W_1, and W_1.  Checked against the built residual.
    path = paths256[4]
    spec = spec_for("NONCAUSAL_W1")
    e0 = np.ones(path.grid.m, dtype=complex)
    assert prop1_residual(spec, e0, path) <= 1e-12
    w1 = path.terminal
    lhs = (w1 * w1 - 1.0) * w1
    rhs = ((w1 * w1 - 1.0) * w1 - 2.0 * w1) + w1 + w1
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_rule_residuals_across_catalog(paths256, grid256):
    worst1 = worst2 = 0.0
    for kind in CATALOG_KINDS:
        plain = spec_for(kind)
        drifted = spec_for(kind, {"g": {1: 0.5, -1: 0.5}, "drift": "w1"})
        for path in paths256[:5]:
            for n in (0, 1):
                e = eval_basis(n, grid256.left_nodes)
                worst1 = max(worst1, prop1_residual(plain, e, path))
                worst2 = max(worst2, prop2_residual(drifted, e, path))
    assert worst1 <= 1e-9
    assert worst2 <= 1e-9


def test_residuals_scale_with_path_magnitude():
    # the identities are exact whatever the path magnitude; feed a wild path
    grid = TimeGrid(64)
    rng = np.random.default_rng(5)
    from helpers import path_from_xi

    path = path_from_xi(10.0 * rng.standard_normal(64), grid)
    spec = spec_for("NONCAUSAL_BRIDGE")
    e = eval_basis(1, grid.left_nodes)
    assert prop1_residual(spec, e, path) <= 1e-9
