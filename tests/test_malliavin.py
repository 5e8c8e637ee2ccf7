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
    TimeGrid,
    eval_basis,
    lemma_fdelta_residual,
    prop1_residual,
    prop2_residual,
)
from sfc_lab.catalog import spec_tables
from sfc_lab.malliavin import (
    DerivativeTable,
    DiscreteFunctional,
    _divergence,
    block_prop1_residual,
)


def zero_table(m):
    return DerivativeTable(v=np.zeros(m))


def block(paths):
    """W (rows, m + 1) and dW (rows, m) of the given paths, one row each."""
    return np.array([p.values for p in paths]), np.array([p.increments for p in paths])


def test_container_validation(paths256):
    with pytest.raises(ValueError):
        DiscreteFunctional(value=1.0, partials=None)
    with pytest.raises(ValueError):
        DiscreteFunctional(value=1.0, partials=np.ones((4, 4)))
    with pytest.raises(ValueError):
        DerivativeTable(v=np.ones((2, 3)))
    # rmatvec of the unit rows gives the table's rows
    npt.assert_array_equal(zero_table(5).rmatvec(np.eye(5)), np.zeros((5, 5)))
    # e at the m + 1 nodes instead of the m left tags is a tagging mistake
    path = paths256[0]
    functional = w1_functionals(path)["W_1"]
    for residual, first in ((lemma_fdelta_residual, functional), (prop2_residual, spec_for("DET"))):
        with pytest.raises(ValueError):
            residual(first, np.ones(path.grid.m + 1), path)


def test_divergence_of_deterministic_row_is_ito(paths256):
    w, dw = block(paths256[:1])
    m = dw.shape[-1]
    # zero correction: the divergence is the plain Wiener sum
    div, _ = _divergence(np.ones(dw.shape), zero_table(m), dw)
    npt.assert_allclose(div, w[:, -1], rtol=0, atol=1e-15)


def test_divergence_of_w1_row_is_hermite(paths256):
    # frozen hand oracle: delta(W_1 * 1) = W_1^2 - 1 exactly
    w, dw = block(paths256[:5])
    m = dw.shape[-1]
    s = 1.0 / np.sqrt(m)
    table = DerivativeTable(v=np.full(m, s))
    assert np.array_equal(table.rmatvec(np.eye(m)), np.full((m, m), s))
    w1 = w[:, -1]
    div, _ = _divergence(np.repeat(w1[:, None], m, axis=1), table, dw)
    npt.assert_allclose(div, w1**2 - 1.0, rtol=0, atol=1e-12)


def test_divergence_of_adapted_row_is_ito_sum(paths256):
    # strictly lower-triangular derivative table has zero trace, so the
    # divergence coincides with the left Ito sum
    w, dw = block(paths256)
    m = dw.shape[-1]
    partials = DerivativeTable(v=np.zeros(m), lower=1.0 / np.sqrt(m))
    lower = np.tril(np.full((m, m), 1.0 / np.sqrt(m)), k=-1)
    assert np.array_equal(partials.rmatvec(np.eye(m)), lower)
    w_left = w[:, :-1]
    div, _ = _divergence(w_left, partials, dw)
    ito = [float(np.dot(row, inc)) for row, inc in zip(w_left, dw)]
    npt.assert_allclose(div, ito, rtol=0, atol=1e-15)


def test_pairing_of_terminal_against_constant(paths256):
    # <D W_1, e_0> = (1/sqrt m) sum_i 1/sqrt m = 1 exactly, with W_1 = delta(1)
    _, dw = block(paths256)
    m = dw.shape[-1]
    _, grad = _divergence(np.ones(dw.shape), zero_table(m), dw)
    npt.assert_allclose(grad @ np.ones(m) / np.sqrt(m), 1.0, rtol=0, atol=1e-13)


def test_divergence_gradient(paths256):
    # gradient of delta(ones) = W_1 is the constant row 1/sqrt(m); gradient
    # of delta(W_1 row) = W_1^2 - 1 is 2 W_1 / sqrt(m)
    w, dw = block(paths256)
    m = dw.shape[-1]
    s = 1.0 / np.sqrt(m)
    _, det = _divergence(np.ones(dw.shape), zero_table(m), dw)
    npt.assert_allclose(det, np.full(dw.shape, s), atol=1e-15)
    w1 = w[:, -1:]
    table = DerivativeTable(v=np.full(m, s))
    _, non = _divergence(np.repeat(w1, m, axis=1), table, dw)
    npt.assert_allclose(non, np.repeat(2.0 * w1 * s, m, axis=1), atol=1e-12)


def _inclusive_tail(self, y):
    """rmatvec with the tail summed over i >= r instead of i > r."""
    tail = self.lower * np.cumsum(y[..., ::-1], -1)[..., ::-1]
    return self.v * np.sum(y, axis=-1)[..., None] + tail


def _no_rank_one(self, y):
    """rmatvec without the rank-one part ``v sum_i y_i``."""
    out = np.zeros(y.shape)
    out[..., :-1] = self.lower * np.cumsum(y[..., :0:-1], axis=-1)[..., ::-1]
    return out


@pytest.mark.parametrize(
    "mutant, kinds",
    [
        (_inclusive_tail, ("ADAPTED_W", "NONCAUSAL_BRIDGE")),
        (_no_rank_one, ("NONCAUSAL_W1", "NONCAUSAL_MIDPOINT", "NONCAUSAL_BRIDGE")),
    ],
)
def test_stochastic_product_rule_sees_a_wrong_gradient(
    monkeypatch, paths256, grid256, mutant, kinds
):
    # a gradient off by the diagonal or by its rank-one part moves the
    # residual far past the 1e-9 gate, so the blocked rule still checks it
    w, dw = block(paths256)
    e = np.array([eval_basis(n, grid256.left_nodes) for n in (0, 1)])
    tables = {kind: spec_tables(spec_for(kind), grid256) for kind in kinds}
    for st in tables.values():
        assert np.max(block_prop1_residual(st, e, w, dw)) <= 1e-9
    monkeypatch.setattr(DerivativeTable, "rmatvec", mutant)
    for kind, st in tables.items():
        assert np.max(block_prop1_residual(st, e, w, dw)) > 1e-6, kind


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
