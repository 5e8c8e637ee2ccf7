"""Tests for the benchmark's tracer and driver contract.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fakepkg(monkeypatch):
    """A package whose callers reach ``leaf.work`` by name and through the module."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    leaf = types.ModuleType("fakepkg.leaf")
    mid = types.ModuleType("fakepkg.mid")
    top = types.ModuleType("fakepkg.top")

    def work(seconds):
        _spin(seconds)
        return seconds

    def run_mid():  # imported by name, as in ``from .leaf import work``
        _spin(0.02)
        return mid.work(0.01) + mid.work(0.01)

    def run_top():  # through the module, as in ``lf.work``
        return top.lf.work(0.01) + top.run_mid()

    leaf.work = work
    mid.work = work
    mid.run_mid = run_mid
    top.lf = leaf
    top.run_mid = run_mid
    top.run_top = run_top
    for mod in (pkg, leaf, mid, top):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return types.SimpleNamespace(leaf=leaf, mid=mid, top=top, work=work, run_mid=run_mid)


def test_self_times_and_remainder_add_up_to_wall(fakepkg):
    tracer = Tracer("fakepkg", ["leaf.work", "mid.run_mid", "top.run_top"])
    with tracer:
        start = time.perf_counter()
        fakepkg.top.run_top()
        _spin(0.01)  # unwrapped work between spans
        wall = time.perf_counter() - start
    stats = tracer.stats
    assert stats["leaf.work"].calls == 3
    assert stats["mid.run_mid"].calls == 1
    assert stats["top.run_top"].calls == 1
    self_total = sum(s.self_s for s in stats.values())
    remainder = wall - tracer.top_level_s
    assert self_total == pytest.approx(tracer.top_level_s, abs=1e-9)
    assert self_total + remainder == pytest.approx(wall, abs=1e-9)
    assert remainder >= 0.01
    # self time excludes children: run_mid spins 20 ms itself around 20 ms of work
    assert 0.02 <= stats["mid.run_mid"].self_s < 0.03
    assert 0.03 <= stats["leaf.work"].self_s < 0.04
    assert stats["top.run_top"].self_s < 0.005


def test_wrappers_are_restored(fakepkg):
    with Tracer("fakepkg", ["leaf.work", "mid.run_mid"]):
        assert fakepkg.mid.work is not fakepkg.work
        assert fakepkg.top.run_mid is not fakepkg.run_mid
    assert fakepkg.leaf.work is fakepkg.work
    assert fakepkg.mid.work is fakepkg.work
    assert fakepkg.top.run_mid is fakepkg.run_mid


def test_missing_targets_are_absent_not_errors(fakepkg):
    tracer = Tracer("fakepkg", ["leaf.work", "leaf.gone", "nomodule.func"])
    with tracer:
        fakepkg.leaf.work(0.0)
    assert tracer.absent == ["leaf.gone", "nomodule.func"]
    assert tracer.stats["leaf.work"].calls == 1
    assert tracer.stats["leaf.gone"].calls == 0


def test_counter_hooks(fakepkg):
    hooks = {"leaf.work": lambda args, kwargs, result: {"spun": result}}
    tracer = Tracer("fakepkg", ["leaf.work"], hooks)
    with tracer:
        fakepkg.top.run_top()
    assert tracer.counts["spun"] == pytest.approx(0.03)


def test_traces_sfc_lab_callers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from sfc_lab import bohr, catalog, sfc
    from sfc_lab.bohr import SYNTHESIZED, BohrConfig
    from sfc_lab.brownian import SeedSpec, sample_path
    from sfc_lab.grid import TimeGrid

    original = sfc.sfc_range
    pf = catalog.eval_functionals(
        catalog.make_process("NONCAUSAL_W1"), sample_path(SeedSpec(1, 0), TimeGrid(64))
    )
    cfg = BohrConfig(N=4, M=1, mode=SYNTHESIZED)
    tracer = Tracer("sfc_lab", ["sfc.sfc_range", "catalog.dsfc_partials", "bohr.recover_b"])
    with tracer:
        bohr.recover_b(pf, bohr.identify_a(pf, cfg), cfg)
    assert tracer.absent == []
    assert tracer.stats["sfc.sfc_range"].calls == 2  # by name, from bohr
    assert tracer.stats["catalog.dsfc_partials"].calls == 11  # as cat.dsfc_partials
    assert tracer.stats["bohr.recover_b"].calls == 1
    assert bohr.sfc_range is original


def test_benchmark_json_matches_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "convergence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
