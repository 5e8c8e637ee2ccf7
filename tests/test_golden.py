"""Every golden case gives the files kept in ``tests/golden``: byte for byte
where numpy and the platform are the ones that wrote them, and otherwise
number for number within 1e-12 relative (``_NEAR_ZERO`` absolute for numbers
that sit at rounding level)."""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("golden_regenerate", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf|Infinity|NaN)")
_NEAR_ZERO = 1e-13  # residuals at rounding level, imaginary parts that are 0 in exact arithmetic


def _numbers_match(kept: str, made: str) -> str | None:
    """None when the two texts differ only in their numbers, each within
    1e-12 relative or ``_NEAR_ZERO`` absolute; else what differs first."""
    kept_words, made_words = _NUMBER.split(kept), _NUMBER.split(made)
    if kept_words != made_words:
        first = next(i for i, (a, b) in enumerate(zip(kept_words, made_words)) if a != b)
        return f"text differs near {kept_words[first]!r} / {made_words[first]!r}"
    for a, b in zip(_NUMBER.findall(kept), _NUMBER.findall(made)):
        x, y = float(a), float(b)
        if not (x == y or math.isclose(x, y, rel_tol=1e-12, abs_tol=_NEAR_ZERO)):
            return f"{a} became {b}"
    return None


def _same_platform() -> bool:
    return json.loads(golden.RECORD.read_text(encoding="utf-8")) == golden.platform_record()


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden_case_keeps_its_bytes(name):
    kept = {p.name: p.read_bytes() for p in sorted((golden.GOLDEN / name).iterdir())}
    made = golden.produce(name)
    assert sorted(made) == sorted(kept)
    exact = _same_platform()
    for file, data in made.items():
        if exact:
            assert data == kept[file], f"{name}/{file} moved; see tests/golden/regenerate.py"
        else:
            gap = _numbers_match(kept[file].decode(), data.decode())
            assert gap is None, f"{name}/{file}: {gap}"


def test_the_number_comparison_holds_to_its_tolerance():
    kept = (golden.GOLDEN / "sweep_BRIDGE_w1" / "convergence.csv").read_text()
    assert _numbers_match(kept, kept) is None
    entry = kept.splitlines()[1].split(",")[6]  # a mean error of about 0.25
    value = float(entry)
    for moved, ok in ((value * (1 + 3e-13), True), (value * (1 + 3e-12), False)):
        text = kept.replace(entry, repr(moved), 1)
        assert (_numbers_match(kept, text) is None) is ok, moved
    assert _numbers_match("b=-7.0e-18", "b=3.1e-18") is None  # noise about an exact zero
    assert _numbers_match("b=-7.0e-18", "b=1.0e-12") is not None
    assert _numbers_match("ok   x", "FAIL x") is not None
