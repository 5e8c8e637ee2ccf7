"""The package's public surface, ``sfc_lab.__all__``, and the size of its modules."""

import importlib
from pathlib import Path
from types import ModuleType

import pytest

import sfc_lab


def test_public_surface_is_importable_unique_and_bounded():
    names = sfc_lab.__all__
    assert [n for n in names if not hasattr(sfc_lab, n)] == []
    assert len(set(names)) == len(names)
    # the surface may shrink; growing it past this bound is a deliberate edit here
    assert len(names) <= 32


def test_the_namespace_holds_only_the_surface_and_the_submodules():
    # a name that leaves __all__ leaves the package namespace too
    public = {n for n in vars(sfc_lab) if not n.startswith("_")}
    submodules = {n for n in public if isinstance(getattr(sfc_lab, n), ModuleType)
                  and getattr(sfc_lab, n).__name__ == f"sfc_lab.{n}"}
    assert public - submodules == {n for n in sfc_lab.__all__ if not n.startswith("_")}


@pytest.mark.parametrize("module, name", [
    ("sfc_lab.sfc", "synthesize"),
    ("sfc_lab.malliavin", "DerivativeTable"),
    ("sfc_lab.malliavin", "DiscreteFunctional"),
    ("sfc_lab.catalog", "DRIFT_KINDS"),
    ("sfc_lab.catalog", "constant"),
    ("sfc_lab.grid", "dirichlet_closed_form"),
])
def test_names_outside_the_surface_import_from_their_module(module, name):
    assert hasattr(importlib.import_module(module), name)
    assert not hasattr(sfc_lab, name)


def test_every_module_is_at_most_600_lines():
    # a module past this bound has likely taken on a second job; split it
    # rather than raise the bound
    sizes = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in Path(sfc_lab.__file__).parent.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > 600} == {}
