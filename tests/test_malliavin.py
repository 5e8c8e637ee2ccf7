"""The functional containers' validation, and a wrong gradient seen by the
blocked stochastic product rule.  The divergence and the W_1 functionals are
compared with the reference in ``test_reference.py``, and the identities'
gates are checked per kind and drift in ``test_structured.py``."""

import numpy as np
import numpy.testing as npt
import pytest

from helpers import spec_for, w1_functionals
from sfc_lab import eval_basis, lemma_fdelta_residual, prop2_residual
from sfc_lab.catalog import spec_tables
from sfc_lab.malliavin import DerivativeTable, DiscreteFunctional, block_prop1_residual


def test_container_validation(paths256):
    with pytest.raises(ValueError):
        DiscreteFunctional(value=1.0, partials=None)
    with pytest.raises(ValueError):
        DiscreteFunctional(value=1.0, partials=np.ones((4, 4)))
    with pytest.raises(ValueError):
        DerivativeTable(v=np.ones((2, 3)))
    # rmatvec of the unit rows gives the table's rows
    npt.assert_array_equal(DerivativeTable(v=np.zeros(5)).rmatvec(np.eye(5)), np.zeros((5, 5)))
    # e at the m + 1 nodes instead of the m left tags is a tagging mistake
    path = paths256[0]
    functional = w1_functionals(path)["W_1"]
    for residual, first in ((lemma_fdelta_residual, functional), (prop2_residual, spec_for("DET"))):
        with pytest.raises(ValueError):
            residual(first, np.ones(path.grid.m + 1), path)


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
    w, dw = np.array([p.values for p in paths256]), np.array([p.increments for p in paths256])
    e = np.array([eval_basis(n, grid256.left_nodes) for n in (0, 1)])
    tables = {kind: spec_tables(spec_for(kind), grid256) for kind in kinds}
    for st in tables.values():
        assert np.max(block_prop1_residual(st, e, w, dw)) <= 1e-9
    monkeypatch.setattr(DerivativeTable, "rmatvec", mutant)
    for kind, st in tables.items():
        assert np.max(block_prop1_residual(st, e, w, dw)) > 1e-6, kind
