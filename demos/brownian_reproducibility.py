#!/usr/bin/env python3
"""Seeded substreams: reproducible paths and schedule-free experiments.

Each path is drawn from a counter-based generator keyed by
(master_seed, path_index), so path content depends on those two integers
and nothing else.  The demo shows bitwise reproducibility, independence
of neighbouring substreams, the prefix property of Monte Carlo runs, and
thread-count invariance of the aggregated output.
"""

import dataclasses
import os
import sys

import numpy as np

from sfc_lab import (
    ExperimentConfig,
    SeedSpec,
    TimeGrid,
    make_process,
    run_convergence,
    sample_path,
)


def main() -> int:
    ok = True
    grid = TimeGrid(1024)

    a = sample_path(SeedSpec(20260819, 7), grid)
    b = sample_path(SeedSpec(20260819, 7), grid)
    same = bool(np.array_equal(a.values, b.values))
    ok &= same
    print(f"same (seed, index) twice: bitwise equal = {same}")

    c = sample_path(SeedSpec(20260819, 8), grid)
    corr = float(np.corrcoef(a.increments, c.increments)[0, 1])
    ok &= abs(corr) < 0.1
    print(f"neighbouring substreams: increment correlation = {corr:+.4f}")

    cfg_small = ExperimentConfig(
        spec=make_process("CONST"),
        n_list=(4, 8, 16),
        M=1,
        m=256,
        paths=100,
        master_seed=20260819,
        block_size=32,
    )
    cfg_large = ExperimentConfig(
        spec=make_process("CONST"),
        n_list=(4, 8, 16),
        M=1,
        m=256,
        paths=160,
        master_seed=20260819,
        block_size=32,
    )
    short_res = run_convergence(cfg_small)
    long_res = run_convergence(cfg_large)
    prefix = bool(np.array_equal(short_res.abs_errors, long_res.abs_errors[:100]))
    ok &= prefix
    print(f"prefix property: first 100 of 160 paths bitwise equal = {prefix}")

    # at m=2048, where a run starts helpers (at m <= 1024 it works alone):
    # seven 16-row tiles, a worker for each of five threads
    cfg_tiles = dataclasses.replace(cfg_small, m=2048)
    os.environ["SFC_LAB_THREADS"] = "1"
    seq = run_convergence(cfg_tiles)
    os.environ["SFC_LAB_THREADS"] = "5"
    par = run_convergence(cfg_tiles)
    os.environ.pop("SFC_LAB_THREADS")
    invariant = seq.csv_text() == par.csv_text()
    ok &= invariant
    print(f"1 thread vs 5 threads: byte-identical CSV = {invariant}")

    print("reproducibility demo:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
