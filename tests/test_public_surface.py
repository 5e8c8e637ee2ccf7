"""The package's public surface, ``sfc_lab.__all__``, and the size of its modules."""

from pathlib import Path

import sfc_lab


def test_public_surface_is_importable_unique_and_bounded():
    names = sfc_lab.__all__
    assert [n for n in names if not hasattr(sfc_lab, n)] == []
    assert len(set(names)) == len(names)
    # the surface may shrink; growing it past this bound is a deliberate edit here
    assert len(names) <= 39


def test_every_module_is_at_most_600_lines():
    # a module past this bound has likely taken on a second job; split it
    # rather than raise the bound
    sizes = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in Path(sfc_lab.__file__).parent.glob("*.py")}
    assert {name: n for name, n in sizes.items() if n > 600} == {}
