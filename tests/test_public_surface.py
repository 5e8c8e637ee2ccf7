"""The package's public surface: ``sfc_lab.__all__``."""

import sfc_lab


def test_public_surface_is_importable_unique_and_bounded():
    names = sfc_lab.__all__
    assert [n for n in names if not hasattr(sfc_lab, n)] == []
    assert len(set(names)) == len(names)
    # the surface may shrink; growing it past this bound is a deliberate edit here
    assert len(names) <= 39
