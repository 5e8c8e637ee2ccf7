"""Shared helpers for the test suite: the package's own example specs and
scalar functionals, under the names the tests use."""

from sfc_lab.catalog import spec_for  # noqa: F401
from sfc_lab.malliavin import w1_functionals  # noqa: F401
