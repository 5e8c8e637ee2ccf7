"""Golden artifacts: what the CLI writes for a few small runs, kept so that a
change which moves a single byte of a result shows in the test suite.

Each case runs ``sfc_lab.cli.main`` in process.  A run case keeps the two
artifacts of its command (``convergence.*`` or ``identify.*``); a check case
(``selftest``, ``verify-multiplication``) keeps its standard output.  The
files sit in one directory per case beside this script, and ``RECORD.json``
names the numpy version and platform that wrote them.

Regenerate them, from the repository root, with::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves bytes regenerates the files and states in CHANGES.md
the largest move and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent
RECORD = GOLDEN / "RECORD.json"

_COS = {"coeffs": {"1": [0.5, 0.0], "-1": [0.5, 0.0]}}


def _run(kind: str, drift: str, *, command: str, m: int, n_list: list[int], M: int,
         paths: int, seed: int, mode: str | None = None, f=None, g=None) -> dict:
    process = {"kind": kind, "drift": drift}
    if f is not None:
        process["f"] = f
    if drift != "none":
        process["g"] = _COS if g is None else g
    config = {"process": process, "N_list": n_list, "M": M, "m": m, "paths": paths,
              "master_seed": seed}
    if mode is not None:
        config["mode"] = mode
    return {"command": command, "config": config}


# a DET diffusion with a sine part, and a drift table given at the 256 nodes
_DET_F = {"coeffs": {"0": [1.0, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0],
                     "3": [0.0, -0.25], "-3": [0.0, 0.25]}}
_DET_G = {"values": [0.25 * (i % 5) - 0.5 for i in range(256)]}

CASES = {
    "sweep_CONST": _run("CONST", "none", command="convergence", m=512, n_list=[4, 8, 16, 32],
                        M=2, paths=200, seed=101),
    "sweep_DET": _run("DET", "det", command="convergence", m=256, n_list=[2, 4, 8, 16], M=3,
                      paths=150, seed=202, f=_DET_F, g=_DET_G),
    "sweep_BRIDGE_w1": _run("NONCAUSAL_BRIDGE", "w1", command="convergence", m=1024,
                            n_list=[4, 16, 64], M=4, paths=100, seed=303),
    **{
        f"identify_{label}_{mode}": _run(kind, drift, command="identify", m=1024, n_list=[64],
                                          M=M, paths=paths, seed=seed, mode=mode)
        for label, kind, drift, M, paths, seed in (
            ("W1_det", "NONCAUSAL_W1", "det", 2, 200, 404),
            ("BRIDGE_w1", "NONCAUSAL_BRIDGE", "w1", 4, 100, 505),
        )
        for mode in ("closed_form", "synthesized")
    },
    "selftest": {"argv": ["selftest"]},
    "verify_multiplication": {"argv": ["verify-multiplication", "--m", "256", "--paths", "4"]},
}


def platform_record() -> dict:
    """What must match for the artifacts to be compared byte for byte."""
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def produce(name: str) -> dict[str, bytes]:
    """Run one case in process: its files by name, as the CLI wrote them."""
    from sfc_lab.cli import main

    case = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        if "argv" in case:
            with contextlib.redirect_stdout(out):
                status = main(case["argv"])
            files = {"stdout.txt": out.getvalue().encode()}
        else:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(case["config"]), encoding="utf-8")
            argv = [case["command"], "--config", str(config), "--out", str(Path(tmp) / "out")]
            with contextlib.redirect_stdout(out):
                status = main(argv)
            files = {
                f"{case['command']}.{suffix}": (Path(tmp) / "out" / f"{case['command']}.{suffix}")
                .read_bytes()
                for suffix in ("csv", "json")
            }
    if status != 0:
        raise RuntimeError(f"golden case {name} exited {status}:\n{out.getvalue()}")
    return files


def main() -> None:
    for name in CASES:
        directory = GOLDEN / name
        directory.mkdir(exist_ok=True)
        for file, data in produce(name).items():
            (directory / file).write_bytes(data)
        print(f"wrote {directory.relative_to(GOLDEN.parent.parent)}")
    RECORD.write_text(json.dumps(platform_record(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    main()
