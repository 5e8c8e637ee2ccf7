import dataclasses
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import record_tile_workers, spec_for, start_helpers_at_any_m
from sfc_lab import (
    CATALOG_KINDS,
    BohrConfig,
    ConfigError,
    NumericalFailureError,
    SeedSpec,
    TimeGrid,
    cosine,
    eval_functionals,
    identify_a,
    iterated_divergence_term,
    make_process,
    recover_b,
    remainder_terms,
    sample_path,
    sfc_range,
)
from sfc_lab.bohr import CLOSED_FORM, RECOVERY_MODES, SYNTHESIZED
from sfc_lab.catalog import (
    DRIFT_KINDS,
    KIND_RECORDS,
    block_true_fourier_a,
    dx_coefficients,
    spec_tables,
)
from sfc_lab.engine import _require_run_fits, _run_tiles, _workers, resolve_threads, tile_rows
from sfc_lab.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    IdentifyResult,
    _path_statistics,
    config_from_jsonable,
    config_hash,
    config_jsonable,
    fit_decay,
    fit_loglog,
    run_convergence,
    run_identify,
)
from sfc_lab.sfc import coefficients, mirror


def small_config(**over):
    base = dict(
        spec=spec_for("CONST"),
        n_list=(4, 8, 16),
        M=1,
        m=256,
        paths=120,
        master_seed=90,
        block_size=32,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    small_config()
    with pytest.raises(ConfigError):
        small_config(n_list=())
    with pytest.raises(ConfigError):
        small_config(n_list=(8, 4))
    with pytest.raises(ConfigError):
        small_config(n_list=(0, 4))
    with pytest.raises(ConfigError):
        small_config(M=-1)
    with pytest.raises(ConfigError):
        small_config(m=100)  # below 8 (16 + 1)
    with pytest.raises(ConfigError):
        small_config(paths=99)
    with pytest.raises(ConfigError):
        small_config(p_exponent=0.5)
    with pytest.raises(ConfigError):
        small_config(block_size=0)


@st.composite
def run_configs(draw):
    """A valid config of any kind and drift, with TrigPoly or node tables."""
    m = draw(st.integers(8, 96))
    num = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def table():
        if draw(st.booleans()):
            return np.array(draw(st.lists(num, min_size=m, max_size=m)))
        coeffs = {0: draw(num)}
        for k in range(1, draw(st.integers(0, 3)) + 1):
            coeffs[k] = complex(draw(num), draw(num))
            coeffs[-k] = coeffs[k].conjugate()
        return coeffs

    kind = draw(st.sampled_from(CATALOG_KINDS))
    drift = draw(st.sampled_from(DRIFT_KINDS))
    params = {"drift": drift} if drift == "none" else {"drift": drift, "g": table()}
    if kind == "DET":
        params["f"] = table()
    M = draw(st.integers(0, 3))
    widths = draw(st.lists(st.integers(1, m // 8), min_size=1, max_size=4, unique=True))
    return ExperimentConfig(
        spec=make_process(kind, params),
        n_list=tuple(sorted(widths)),
        M=min(M, m // 8 - max(widths)),
        m=m,
        paths=draw(st.integers(100, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        p_exponent=draw(st.one_of(st.integers(1, 8), st.floats(1.0, 1e6))),
        block_size=draw(st.integers(1, 4096)),
    )


@settings(max_examples=80)
@given(run_configs())
def test_config_round_trip_and_hash(cfg):
    data = config_jsonable(cfg)
    rebuilt = config_from_jsonable(json.loads(json.dumps(data)))
    assert config_jsonable(rebuilt) == data
    assert config_hash(rebuilt) == config_hash(cfg)
    # the hash reacts to content, not to dict ordering
    shuffled = dict(reversed(list(data.items())))
    assert config_hash(config_from_jsonable(shuffled)) == config_hash(cfg)
    assert config_hash(dataclasses.replace(cfg, paths=cfg.paths + 1)) != config_hash(cfg)
    # numpy numbers are stored as Python numbers: the same plain data and hash
    twin = dataclasses.replace(
        cfg,
        n_list=np.array(cfg.n_list),
        master_seed=np.uint64(cfg.master_seed),
        p_exponent=np.asarray(cfg.p_exponent)[()],
        **{name: np.int64(getattr(cfg, name)) for name in ("M", "m", "paths", "block_size")},
    )
    assert config_jsonable(twin) == data
    assert config_hash(twin) == config_hash(cfg)


def test_json_g_without_drift_is_det():
    # the process block is read by make_process, whose default drift with a g is "det"
    g = {"coeffs": {"1": [0.5, 0.0], "-1": [0.5, 0.0]}}
    spec = config_from_jsonable({"process": {"kind": "NONCAUSAL_W1", "g": g}}).spec
    assert spec.drift_kind == make_process("NONCAUSAL_W1", {"g": g}).drift_kind == "det"
    assert spec.g == cosine()


@pytest.mark.parametrize(
    "process",
    [
        {"kind": "CONST", "bogus": 1},
        {"kind": "CONST", "drift": "det"},
        {"kind": "CONST", "drift": None, "g": {"coeffs": {"0": [1.0, 0.0]}}},
        {"kind": "DET"},
        {"kind": "DET", "f": {"coeffs": {"0": [0.5]}}},
        {"kind": "DET", "f": {"coeffs": {"0": [0.5, 0.0, 1.0]}}},
        {"kind": "DET", "f": {"coeffs": {"1": 0.5}}},
        {"kind": "DET", "f": {"coeffs": {"x": [0.5, 0.0]}}},
        {"kind": "DET", "f": {"coeffs": [[0.5, 0.0]]}},
        {"kind": "DET", "f": {"coeffs": {"1": [0.5, 0.0]}, "values": [1.0, 2.0]}},
        {"kind": "DET", "f": {"1": [0.5, 0.0]}},
        {"kind": "DET", "f": {}},
        {"kind": "DET", "f": {"values": {"1": 0.5}}},
        {"kind": "DET", "f": {"values": [1.0]}},
        {"kind": "DET", "f": {"values": [[1.0, 2.0]]}},
        {"kind": "DET", "f": {"values": "abc"}},
        {"kind": "DET", "f": "abc"},
        {"kind": "DET", "f": 5},
    ],
)
def test_malformed_process_blocks_raise_config_error(process):
    with pytest.raises(ConfigError):
        config_from_jsonable({"process": process})


def test_config_from_jsonable_rejects_strays():
    data = config_jsonable(small_config())
    data["typo_key"] = 1
    with pytest.raises(ConfigError):
        config_from_jsonable(data)
    with pytest.raises(ConfigError):
        config_from_jsonable({"N_list": [4]})  # no process block


def test_config_array_table_round_trip():
    f = np.linspace(1.0, 2.0, 256)
    spec = spec_for("DET", {"f": f})
    cfg = ExperimentConfig(spec=spec, n_list=(4,), M=0, m=256, paths=100, master_seed=1)
    rebuilt = config_from_jsonable(config_jsonable(cfg))
    npt.assert_allclose(rebuilt.spec.f, f, atol=0)


def test_fit_loglog_recovers_synthetic_slope():
    widths = np.array([2 * N + 1 for N in (4, 8, 16, 32, 64)], dtype=float)
    errors = 3.7 * widths**-0.5
    fit = fit_loglog(widths, errors)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.half_width == pytest.approx(0.0, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(3.7, abs=1e-9)


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        fit_loglog(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_loglog(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


def test_fit_decay_order_bound():
    res = run_convergence(small_config())
    with pytest.raises(ValueError):
        fit_decay(res, 2)  # M = 1


def test_fit_decay_fits_order_zero_by_default():
    res = run_convergence(small_config())  # M = 1: orders -1, 0 and 1 have fits
    assert fit_decay(res) is fit_decay(res, 0)
    assert fit_decay(res, 1) is not fit_decay(res)


def test_a_one_width_sweep_runs_but_has_no_decay_report():
    res = run_convergence(small_config(n_list=(2,)))
    assert res.csv_text().count("\n") == 1 + 3  # the header and orders -1 .. 1
    with pytest.raises(ConfigError, match=r"a decay slope needs at least two widths, got N_list=\[2\]"):
        res.json_text()


def test_run_shapes_and_determinism():
    cfg = small_config()
    res1 = run_convergence(cfg)
    # the same config in numpy numbers, stored as Python numbers: the same bytes
    twin = small_config(
        n_list=np.array(cfg.n_list), M=np.int64(1), m=np.int32(256), paths=np.int64(120),
        master_seed=np.uint64(90), p_exponent=np.float32(2.0), block_size=np.int16(32),
    )
    res2 = run_convergence(twin)
    assert res1.abs_errors.shape == (120, 3, 3)
    assert res1.estimates.shape == (120, 3, 3)
    assert np.array_equal(res1.abs_errors, res2.abs_errors)
    assert res1.csv_text() == res2.csv_text()
    assert res1.json_text() == res2.json_text()
    assert res1.runtime_seconds > 0.0
    # runtime and per-path tensors stay out of the serialization
    payload = res1.json_dict()
    assert "runtime_seconds" not in json.dumps(payload)
    assert set(payload) == {"version", "config_hash", "config", "rows", "decay"}


def test_tile_rows_at_the_grid_sizes():
    # one (rows, m) float array in 256 KiB, at most 16 rows and block_size
    sizes = [tile_rows(small_config(m=m, block_size=256)) for m in (1024, 4096, 16384)]
    assert sizes == [16, 8, 2]
    assert [tile_rows(small_config(block_size=b)) for b in (5, 7, 100)] == [5, 7, 16]


def _determinism_case(seed, kind, drift, threads, fixed):
    """A run of the kind and drift, and a variant of it on the threads, in
    2-16-row tiles and with a prefix P' <= P of its paths. The rest of its
    shape comes from the seed and the case, and ``fixed`` overrides it."""
    rng = np.random.default_rng([seed, CATALOG_KINDS.index(kind), DRIFT_KINDS.index(drift),
                                 threads])
    m, M = int(rng.choice([64, 256])), int(rng.integers(0, 4))
    widths = rng.choice(np.arange(1, m // 8 - M + 1), int(rng.integers(2, 4)), replace=False)
    paths = int(rng.integers(100, 201))
    case = dict(n_list=tuple(sorted(widths.tolist())), M=M, m=m, seed=int(rng.integers(2**63)),
                paths=paths, prefix=int(rng.integers(100, paths + 1)),
                block_size=int(rng.integers(2, 17)), tile_kib=None)
    return case | fixed


# every kind and drift at 2 and 3 threads; then a band M wider than the width
# N (25 x 13 window products a row, more than the rfft spectrum's 129), and
# 2-row tiles by TILE_BYTES against 8 at m=4096 in the same config
DETERMINISM_CASES = [
    *(pytest.param(kind, drift, threads, {}, id=f"{kind}-{drift}-t{threads}")
      for kind in CATALOG_KINDS for drift in DRIFT_KINDS for threads in (2, 3)),
    pytest.param("ADAPTED_W", "w1", 3, dict(n_list=(1, 2), M=12, m=256), id="wide-band"),
    pytest.param("NONCAUSAL_BRIDGE", "w1", 2, dict(n_list=(4, 16, 64), M=2, m=4096, paths=100,
                                                   prefix=100, block_size=256, tile_kib=64),
                 id="tile-bytes"),
]


def _sweep_and_identify(cfg):
    return run_convergence(cfg), *(run_identify(cfg, mode) for mode in RECOVERY_MODES)


def _per_path(res):
    """A result's per-path arrays, orders -M .. M last."""
    if isinstance(res, IdentifyResult):
        return res.a_hat, res.b_hat
    return res.estimates, res.abs_errors


@pytest.mark.parametrize("kind, drift, threads, fixed", DETERMINISM_CASES)
@settings(max_examples=1)
@given(seed=st.integers(0, 2**32 - 1))
def test_per_path_results_ignore_threads_tiles_and_prefix(kind, drift, threads, fixed, seed):
    # the engine's determinism contract: every per-path number is bitwise
    # independent of its tile, block_size, the threads and their schedule,
    # and the run's P, and is what the one-path library calls give
    import sfc_lab.engine as engine

    case = _determinism_case(seed, kind, drift, threads, fixed)
    params = {} if drift == "none" else {"g": cosine(), "drift": drift}
    cfg = small_config(spec=spec_for(kind, params), n_list=case["n_list"], M=case["M"],
                       m=case["m"], master_seed=case["seed"], paths=case["paths"], block_size=256)
    variant = dataclasses.replace(cfg, paths=case["prefix"], block_size=case["block_size"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SFC_LAB_THREADS", "1")
        base = _sweep_and_identify(cfg)
        mp.setenv("SFC_LAB_THREADS", str(threads))
        start_helpers_at_any_m(mp)
        if case["tile_kib"]:
            mp.setattr(engine, "TILE_BYTES", case["tile_kib"] * 1024)
        assert 2 <= tile_rows(variant) <= 16
        workers = record_tile_workers(mp)
        runs = _sweep_and_identify(variant)
    assert len(workers) == 3 and all(len(ran) >= 2 for ran in workers)
    P, M = variant.paths, cfg.M
    for got, want in zip(runs, base):
        for x, y in zip(_per_path(got), _per_path(want)):
            assert np.array_equal(_bits(x), _bits(y[:P]))
            assert np.array_equal(_bits(x[..., :M]), _bits(np.conj(x[..., :M:-1])))
        if P == cfg.paths:
            assert got.csv_text() == want.csv_text()
            assert json.loads(got.json_text())["rows"] == json.loads(want.json_text())["rows"]
        if variant == cfg:
            assert got.json_text() == want.json_text()
    sweep, *identified = runs
    grid = TimeGrid(cfg.m)
    for res in identified:
        assert np.array_equal(_bits(res.a_hat), _bits(sweep.estimates[:, -1]))  # N = max(n_list)
        bohr_cfg = BohrConfig(N=max(cfg.n_list), M=M, mode=res.mode)
        for idx in (0, P - 1):
            pf = eval_functionals(cfg.spec, sample_path(SeedSpec(cfg.master_seed, idx), grid))
            a_hat = identify_a(pf, bohr_cfg)
            assert np.array_equal(_bits(res.a_hat[idx]), _bits(a_hat.values))
            assert np.array_equal(_bits(res.b_hat[idx]),
                                  _bits(recover_b(pf, a_hat, bohr_cfg).values))


def test_a_sweep_holds_few_tile_buffers(monkeypatch):
    # one worker with its two 8-row buffers (dW with (f + alpha W) dW built
    # in its rows, the complex scratch whose real view holds W), at the
    # perfbench sweep's m, widths and orders; the first run builds the spec's
    # tables and the window plan, which later runs share.  One thread makes
    # the peak the same on every run: 1,196,908 B for a worker that holds W
    # in a buffer of its own, and 934,716 B, one 8 x 4097 float array less,
    # for one that builds W in the scratch.  Tiles allocate only their two
    # coefficient arrays and the windows' I gather and 8 KiB buffer, with
    # one truth row per path.  The bound sits halfway, 131 KB from each.
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    spec = spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "w1"})
    cfg = small_config(spec=spec, n_list=(4, 8, 16, 32, 64, 128, 256), M=4, m=4096, paths=200)
    run_convergence(cfg)
    tracemalloc.start()
    try:
        run_convergence(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_065_800, peak


def test_synthesized_identify_holds_few_tile_buffers(monkeypatch):
    # ROADMAP item 6's config at 200 paths: the drift step reads coefficient
    # rows, runs its windows in the tile's complex scratch and writes its
    # transform input into dW's rows.  The time-domain gradient that it
    # replaced peaked at 8.27 MB here, and five tile buffers at 3.70-3.76.
    # Two workers with four buffers each (W, dW, (f + alpha W) dW, the
    # scratch) peaked at 2.94-3.01 MB, and with three (W in the scratch's
    # real view) at 2.46-2.49; the bound sits about halfway.
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    spec = spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "w1"})
    cfg = small_config(spec=spec, n_list=(256,), M=4, m=4096, paths=200)
    run_identify(cfg, "synthesized")
    tracemalloc.start()
    try:
        run_identify(cfg, "synthesized")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_740_000, peak


def test_closed_form_identify_holds_few_tile_buffers(monkeypatch):
    # the perfbench identify config (W1, drift det, m=4096, N=256, M=4) on
    # one worker.  The closed form reads only the tile's coefficients, so
    # the worker holds two buffers (dW, the complex scratch whose real view
    # holds W) and builds neither dX nor a at the nodes.  It peaked at
    # 1,360,920 B with four buffers, dX built at the nodes and a second
    # transform of dX - a dW + correction, at 1,100,700 B with W in a buffer
    # of its own, and peaks at 838,508 B now; the bound sits halfway.
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    cfg = small_config(spec=spec, n_list=(256,), M=4, m=4096, paths=200)
    run_identify(cfg, "closed_form")
    tracemalloc.start()
    try:
        run_identify(cfg, "closed_form")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 969_600, peak


def test_the_sweep_keeps_orders_zero_to_m_per_path():
    cfg = small_config(M=3)
    res = run_convergence(cfg)
    # per path: 3 widths x 4 orders of complex estimates and one complex truth row
    assert res._estimates.shape == (120, 3, 4) and res._truth.shape == (120, 4)
    assert res._truth.nbytes + res._estimates.nbytes == 120 * (3 + 1) * 4 * 16
    assert res.abs_errors.shape == res.estimates.shape == (120, 3, 7)
    assert not np.shares_memory(res.estimates, res._estimates)  # built on access


def _full_band_sweep(cfg):
    """The sweep over every order -M .. M: the per-path errors and estimates
    (paths, widths, orders) and the mean, variance and mean p-th power of
    each error (3, orders, widths), as ``run_convergence`` reduced them
    before it kept the orders n >= 0 alone."""
    tables = spec_tables(cfg.spec, TimeGrid(cfg.m))
    shape = (cfg.paths, len(cfg.n_list), len(cfg.orders))
    abs_err, estimates = np.zeros(shape), np.zeros(shape, dtype=complex)

    def work(tile):
        est = mirror(tile.est, axis=1)
        truth = block_true_fourier_a(tables, tile.terms, cfg.orders, tile.i_coef)
        hi = tile.lo + len(est)
        abs_err[tile.lo : hi] = np.abs(est - truth[:, :, None]).transpose(0, 2, 1)
        estimates[tile.lo : hi] = est.transpose(0, 2, 1)

    _run_tiles(cfg, tables, cfg.n_list, work)
    stats = _path_statistics(abs_err.reshape(cfg.paths, -1), cfg.p_exponent)
    return abs_err, estimates, stats.reshape(3, len(cfg.n_list), -1).transpose(0, 2, 1)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(CATALOG_KINDS),
    drift=st.sampled_from(DRIFT_KINDS),
    M=st.integers(0, 3),
    odd=st.booleans(),
    p=st.sampled_from([2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_band_sweep_rebuilds_the_full_band(kind, drift, M, odd, p, seed):
    # MIDPOINT needs t = 1/2 on the grid, so an even m
    assume(not (odd and kind == "NONCAUSAL_MIDPOINT"))
    params = {} if drift == "none" else {"g": cosine(), "drift": drift}
    cfg = small_config(spec=spec_for(kind, params), n_list=(2, 4), M=M, m=64 + odd,
                       paths=100, master_seed=seed, p_exponent=p)
    res = run_convergence(cfg)
    abs_err, estimates, (mean, var, power) = _full_band_sweep(cfg)
    npt.assert_array_equal(_bits(res.abs_errors), _bits(abs_err))
    npt.assert_array_equal(_bits(res.estimates), _bits(estimates))
    npt.assert_array_equal(_bits(res.mean_abs_err), _bits(mean))
    npt.assert_array_equal(_bits(res.lp_err), _bits(power ** (1.0 / p)))
    npt.assert_array_equal(_bits(res.std_err), _bits(np.sqrt(var / cfg.paths)))


def test_results_larger_than_memory_are_refused_before_any_tile(monkeypatch):
    # by arithmetic, at a size a test can allocate: the machine is said to
    # hold one byte less than the per-path results need
    import sfc_lab.engine as engine
    import sfc_lab.experiment as exp

    def no_tiles(*args):
        raise AssertionError("a run that cannot fit started its tiles")

    monkeypatch.setattr(exp, "_run_tiles", no_tiles)
    cfg = small_config(paths=1000)
    for run, need in (
        (run_convergence, 1000 * (3 + 1) * 2 * 16),  # widths and the truth x orders 0 .. M
        (lambda c: run_identify(c, "closed_form"), 1000 * 2 * 2 * 16),  # a and b, 0 <= n <= M
    ):
        monkeypatch.setattr(engine, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert f"need {need:,} bytes" in str(info.value)
        assert f"{need - 1:,} bytes of physical memory" in str(info.value)


def test_tables_and_tile_buffers_count_toward_the_size_check(monkeypatch):
    import sfc_lab.engine as engine
    import sfc_lab.experiment as exp

    def no_tables(*args):
        raise AssertionError("a run that cannot fit built its tables")

    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    start_helpers_at_any_m(monkeypatch)
    cfg = small_config()  # m=256, 120 paths in 16-row tiles, widths 4, 8, 16, M=1
    results = 120 * (3 + 1) * 2 * 16  # the estimates and the truth, orders 0 .. 1
    tables = 8 * 10 * 256  # ten arrays of m floats
    # per worker: dW with (f + alpha W) dW built in its rows (the sweep reads
    # no dW after its transform) and the longer of the rfft spectrum and the
    # band-1 windows' products, 16 x max(129, 33 x 2) complex numbers, whose
    # real view holds W
    buffers = 2 * (8 * 16 * 256 + 16 * 16 * 129)
    need = results + tables + buffers
    monkeypatch.setattr(engine, "_physical_memory", lambda: need)
    run_convergence(cfg)  # fits exactly
    monkeypatch.setattr(engine, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigError, match=f"the run needs {need:,} bytes, more than the "):
        run_convergence(cfg)
    # a grid of 10**11 cells is refused before one of its tables is built
    monkeypatch.setattr(exp, "spec_tables", no_tables)
    monkeypatch.setattr(engine, "_physical_memory", lambda: 10**12)
    for run in (run_convergence, lambda c: run_identify(c, "synthesized")):
        with pytest.raises(ConfigError, match="2 tile workers' buffers"):
            run(small_config(m=10**11))


def test_a_run_at_m_1024_or_less_starts_no_helper(monkeypatch):
    # by arithmetic, whatever the rows or the count of tiles
    for threads in ("2", "8"):
        monkeypatch.setenv("SFC_LAB_THREADS", threads)
        for m, paths, block_size, tiles in ((256, 120, 32, 8), (1024, 100, 32, 7),
                                            (1024, 2000, 32, 125), (1024, 100, 4, 25),
                                            (2048, 100, 32, 7), (4096, 100, 4, 25)):
            cfg = small_config(m=m, paths=paths, block_size=block_size)
            assert -(-paths // tile_rows(cfg)) == tiles
            expected = 1 if m <= 1024 else min(int(threads), tiles)
            assert _workers(cfg, tile_rows(cfg)) == expected, (threads, m, paths, block_size)
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    assert _workers(small_config(m=4096), 8) == 1
    # the perfbench configs on two threads: identify-synth at m=1024 runs on
    # one worker, identify and the sweep at m=4096 on two
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    for m, paths, workers in ((1024, 100, 1), (4096, 200, 2), (4096, 2000, 2)):
        cfg = small_config(m=m, paths=paths, block_size=256)
        assert _workers(cfg, tile_rows(cfg)) == workers, (m, paths)


def test_a_run_at_m_1024_starts_no_thread(monkeypatch):
    import sfc_lab.engine as engine

    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    # the engine's own view of the module, so no other code sees the count
    monkeypatch.setattr(engine, "threading", types.SimpleNamespace(
        Thread=Thread, Lock=threading.Lock, local=threading.local))
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    run_identify(identify_config(m=1024, paths=200), "synthesized")  # 13 tiles of 16 rows
    assert started == []
    run_identify(identify_config(m=2048, paths=100), "synthesized")  # 7 tiles
    assert len(started) == 1


def test_the_size_check_counts_the_workers_that_start(monkeypatch):
    import sfc_lab.engine as engine

    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    monkeypatch.setattr(engine, "_physical_memory", lambda: 1)
    for m, workers, owners in ((1024, 1, "1 tile worker's"), (2048, 2, "2 tile workers'")):
        # one worker's dW, (f + alpha W) dW and rfft spectrum (W in its real view), 16 rows
        buffers = 8 * 16 * 2 * m + 16 * 16 * (m // 2 + 1)
        need = 120 * (3 + 1) * 2 * 16 + 8 * 10 * m + workers * buffers
        with pytest.raises(ConfigError, match=f"{owners} buffers the run needs {need:,} bytes"):
            _require_run_fits(small_config(m=m), (4, 8, 16), (3 + 1) * 2 * 16)


DW_READERS = [  # kind and drift, mode (None: the sweep), whether the tiles keep dW
    pytest.param("NONCAUSAL_BRIDGE", "w1", None, False, id="sweep"),
    pytest.param("NONCAUSAL_W1", "det", "synthesized", False, id="w1-synthesized"),
    pytest.param("NONCAUSAL_MIDPOINT", "det", "synthesized", False, id="midpoint-synthesized"),
    pytest.param("NONCAUSAL_W1", "det", "closed_form", False, id="w1-closed-form"),
    pytest.param("NONCAUSAL_BRIDGE", "w1", "closed_form", False, id="bridge-closed-form"),
    pytest.param("NONCAUSAL_BRIDGE", "w1", "synthesized", True, id="bridge-synthesized"),
    pytest.param("ADAPTED_W", "det", "synthesized", True, id="adapted-synthesized"),
]


@pytest.mark.parametrize("kind, drift, mode, keeps", DW_READERS)
def test_only_a_run_that_reads_dw_keeps_it_apart_from_dx(monkeypatch, kind, drift, mode, keeps):
    # only the synthesized step reads dW after the transforms, for i dW where
    # the table has a lower triangle (ADAPTED_W, BRIDGE); every other run
    # writes (f + alpha W) dW into the rows that dW was drawn into
    import sfc_lab.engine as engine
    import sfc_lab.experiment as exp

    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    drawn, seen = [], []
    real_sample, real_tiles = engine.sample_rows, exp._run_tiles

    def sample_rows(master_seed, lo, dw, rng):
        drawn.append(dw.__array_interface__["data"][0])
        return real_sample(master_seed, lo, dw, rng)

    def run_tiles(cfg, st, widths, work, **kw):
        def recording(tile):
            seen.append(None if tile.dw is None else tile.dw.__array_interface__["data"][0])
            work(tile)

        real_tiles(cfg, st, widths, recording, **kw)

    monkeypatch.setattr(engine, "sample_rows", sample_rows)
    monkeypatch.setattr(exp, "_run_tiles", run_tiles)
    cfg = small_config(spec=spec_for(kind, {"g": cosine(), "drift": drift}), M=2)
    run = run_convergence if mode is None else lambda c: run_identify(c, mode)
    run(cfg)
    assert len(seen) == len(drawn) == 8 and len(set(drawn)) == 1
    assert seen == [drawn[0] if keeps else None] * 8
    # the size check counts the (rows, m) arrays that the run allocates
    monkeypatch.setattr(engine, "_physical_memory", lambda: 1)
    rows_m = (2 if keeps else 1) * 256  # dW and (f + alpha W) dW, or dW alone; W is in the scratch
    per_path = (3 + 1) * 3 * 16 if mode is None else 2 * 3 * 16
    widths = cfg.n_list if mode is None else (16,)
    need = 120 * per_path + 8 * 10 * 256 + 8 * 16 * rows_m + 16 * 16 * max(
        129, (2 * max(widths) + 1) * 3)
    with pytest.raises(ConfigError, match=f"1 tile worker's buffers the run needs {need:,} "):
        run(cfg)


# rffts a tile takes in the sweep and in identify's two modes, and that each
# of _one_path_views takes, in its order
RFFTS = {
    "CONST": ((1, 1, 1), (1, 1, 1, 1, 4, 4)),
    "DET": ((2, 2, 2), (2, 2, 2, 2, 5, 4)),
    "ADAPTED_W": ((2, 2, 3), (2, 2, 3, 2, 6, 5)),
    "NONCAUSAL_W1": ((1, 1, 1), (1, 1, 1, 1, 4, 4)),
    "NONCAUSAL_BRIDGE": ((2, 2, 3), (2, 2, 3, 2, 6, 5)),
    "NONCAUSAL_MIDPOINT": ((1, 1, 1), (1, 1, 1, 1, 4, 4)),
}


def _one_path_views(pf, N, M, n):
    """identify_a, recover_b in both modes, sfc_range, remainder_terms and
    iterated_divergence_term of one path, each a call of no argument."""
    cfgs = [BohrConfig(N=N, M=M, mode=mode) for mode in (CLOSED_FORM, SYNTHESIZED)]
    a_hat = identify_a(pf, cfgs[0])
    views = [lambda: identify_a(pf, cfgs[0])] + [lambda c=c: recover_b(pf, a_hat, c) for c in cfgs]
    return views + [lambda: sfc_range(pf, N + M), lambda: remainder_terms(pf, n, N),
                    lambda: iterated_divergence_term(pf, n, N)]


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_tiles_and_one_path_views_take_the_transforms_of_their_kind(monkeypatch, kind):
    # F(dW) is every step's first transform, and (f + alpha W) dW its second,
    # which W1 and MIDPOINT skip (the term is 0) and CONST too (the term is dW,
    # whose transform is I); the synthesized step transforms i dW where a's
    # table has a lower triangle, and the remainders share the step's I
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    cfg = small_config(spec=spec_for(kind, {"g": cosine(), "drift": "w1"}))  # 8 tiles
    pf = eval_functionals(cfg.spec, sample_path(SeedSpec(46, 0), TimeGrid(cfg.m)))
    runs = [lambda: run_convergence(cfg)]
    runs += [lambda mode=mode: run_identify(cfg, mode) for mode in (CLOSED_FORM, SYNTHESIZED)]
    per_tile, per_view = RFFTS[kind]
    expected = [[(16, 256)] * 7 * count + [(8, 256)] * count for count in per_tile]
    expected += [[(256,)] * count for count in per_view]
    calls, real = [], np.fft.rfft

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    for i, (step, want) in enumerate(zip(runs + _one_path_views(pf, 8, 2, 1), expected)):
        step()  # the spec's spectra and the per-run plans are built on the first call
        calls.clear()
        step()
        assert calls == want, i
    if kind == "CONST":  # the skipped transform: F(dX) is I's band, bit for bit
        dw = np.random.default_rng(3).standard_normal((4, cfg.m)) / 16
        st = spec_tables(spec_for("CONST"), TimeGrid(cfg.m))
        _, _, copied = dx_coefficients(st, dw, 20, 17)
        assert copied.tobytes() == coefficients(1.0 * dw, 17).tobytes()


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_a_tile_builds_w_only_where_the_record_reads_it_at_every_node(monkeypatch, kind):
    # W_tau and W_1 are sums of dW, so only (f + alpha W) dW needs W at every
    # node: ADAPTED_W and BRIDGE build it once a tile and once a one-path view
    # of the step, the other kinds never; the views write neither W nor dW
    import sfc_lab.catalog as cat

    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    calls, real = [], cat.wiener_nodes

    def counting(dw, w):
        calls.append(len(dw))
        return real(dw, w)

    path = sample_path(SeedSpec(46, 0), TimeGrid(64))
    monkeypatch.setattr(cat, "wiener_nodes", counting)
    cfg = small_config(spec=spec_for(kind, {"g": cosine(), "drift": "w1"}))  # 8 tiles
    run_convergence(cfg)
    for mode in RECOVERY_MODES:
        run_identify(cfg, mode)
    alpha = bool(KIND_RECORDS[kind].alpha)
    assert calls == ([16] * 7 + [8] if alpha else []) * 3
    before = path.values.tobytes(), path.increments.tobytes()
    views = _one_path_views(eval_functionals(cfg.spec, path), 2, 1, 1)
    calls.clear()  # identify_a's a_hat for recover_b
    for i, view in enumerate(views):  # one at a time: two sign flips of W would cancel
        view()
        assert (path.values.tobytes(), path.increments.tobytes()) == before, i
    assert calls == ([1] * 5 if alpha else [])  # all but iterated_divergence_term take the step


def test_tiles_reuse_the_workers_buffers(monkeypatch):
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    cfg = small_config()
    tiles = []
    _run_tiles(cfg, spec_tables(cfg.spec, TimeGrid(cfg.m)), cfg.n_list, tiles.append)
    assert [t.lo for t in tiles] == list(range(0, 120, 16)) and len(tiles[-1].dw) == 8
    for prev, tile in zip(tiles, tiles[1:]):
        assert np.shares_memory(prev.complex_scratch, tile.complex_scratch)
        assert np.shares_memory(prev.dw, tile.dw)
        # ADAPTED_W and BRIDGE build W in the scratch; no term may be a view on it
        assert not any(np.shares_memory(t, tile.complex_scratch) for t in tile.terms[:2])


def test_threaded_tiles_reuse_the_workers_buffers(monkeypatch):
    # the calling thread is one of the three workers, and each worker keeps
    # one set of buffers for all of its tiles
    monkeypatch.setenv("SFC_LAB_THREADS", "3")
    start_helpers_at_any_m(monkeypatch)
    ran = record_tile_workers(monkeypatch)
    cfg = small_config(block_size=8)
    seen = []

    def work(tile):
        seen.append((threading.get_ident(), tile.lo, tile.complex_scratch, tile.dw))

    _run_tiles(cfg, spec_tables(cfg.spec, TimeGrid(cfg.m)), cfg.n_list, work)
    assert sorted(lo for _, lo, _, _ in seen) == list(range(0, 120, 8))
    workers = {ident for ident, *_ in seen}
    assert threading.get_ident() in workers and 2 <= len(workers) <= 3
    assert ran == [workers]
    assert len({c.__array_interface__["data"][0] for *_, c, _ in seen}) == len(workers)
    for ident in workers:
        mine = [(c, w) for i, _, c, w in seen if i == ident]
        for (c0, w0), (c1, w1) in zip(mine, mine[1:]):
            assert np.shares_memory(c0, c1) and np.shares_memory(w0, w1)


def test_every_tile_runs_once_under_thread_stress(monkeypatch):
    # more workers than cores and a short switch interval: a tile start lost
    # or handed out twice by the shared counter would show in the list
    monkeypatch.setenv("SFC_LAB_THREADS", "8")
    start_helpers_at_any_m(monkeypatch)
    cfg = small_config(block_size=4)
    assert _workers(cfg, tile_rows(cfg)) == 8
    workers = record_tile_workers(monkeypatch)
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_tiles(cfg, spec_tables(cfg.spec, TimeGrid(cfg.m)), cfg.n_list,
                   lambda tile: seen.append(tile.lo))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(0, 120, 4))
    assert len(workers[0]) >= 2


@pytest.mark.parametrize("threads", ["1", "3"])
def test_lowest_failing_path_raises_after_every_helper_joins(monkeypatch, threads):
    # paths 40 and 70 draw NaN, in the tiles at 32 and 64 (the tile at 0 runs
    # before the helpers start); path 40 draws late, so on threads the tile at
    # 64 fails first, yet path 40 is reported, and no helper is left running
    import sfc_lab.brownian as brownian

    real = brownian.substream

    class NanStream:
        def __init__(self, index):
            self.index = index

        def standard_normal(self, out):
            if self.index == 40:
                time.sleep(0.1)
            out.fill(np.nan)

    def poisoned(seed, rekey=None):
        if seed.path_index in (40, 70):
            return NanStream(seed.path_index)
        return real(seed, None if isinstance(rekey, NanStream) else rekey)

    monkeypatch.setattr(brownian, "substream", poisoned)
    monkeypatch.setenv("SFC_LAB_THREADS", threads)
    start_helpers_at_any_m(monkeypatch)
    workers = record_tile_workers(monkeypatch)
    before = set(threading.enumerate())
    with pytest.raises(NumericalFailureError, match=r"path 40 "):
        run_convergence(small_config())
    assert set(threading.enumerate()) == before
    assert len(workers[0]) == 1 if threads == "1" else len(workers[0]) >= 2


def test_a_failing_tile_stops_the_run(monkeypatch):
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    cfg = small_config()
    seen = []

    def work(tile):
        seen.append(tile.lo)
        if tile.lo == 32:
            raise NumericalFailureError("tile 32")

    with pytest.raises(NumericalFailureError, match="tile 32"):
        _run_tiles(cfg, spec_tables(cfg.spec, TimeGrid(cfg.m)), cfg.n_list, work)
    assert seen == [0, 16, 32]


def identify_config(**over):
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    return small_config(spec=spec, **over)


@pytest.mark.parametrize("kind", CATALOG_KINDS)
def test_identify_closed_form_recovers_the_drift_exactly(kind):
    cfg = small_config(spec=spec_for(kind, {"g": cosine(), "drift": "det"}))
    rows = run_identify(cfg, "closed_form").json_dict()["rows"]
    for row in rows:
        target = 0.5 if abs(row["n"]) == 1 else 0.0
        assert abs(row["b_mean_re"] - target) <= 1e-12 and abs(row["b_mean_im"]) <= 1e-12
        assert row["b_se"] <= 1e-12


def test_identify_nonfinite_names_b_hat(monkeypatch):
    import sfc_lab.experiment as exp

    real = exp.drift_coefficients

    def poisoned(st, mode, w, dw, a_hat, f_coef, i_coef, **buffers):
        b = real(st, mode, w, dw, a_hat, f_coef, i_coef, **buffers)
        b[5, 1] = np.nan  # n=1 of row 5 of every tile; path 5 is the first
        return b

    # the step returns n = 0 .. M; its n = -1 mirrors n = 1, and comes first
    monkeypatch.setattr(exp, "drift_coefficients", poisoned)
    with pytest.raises(NumericalFailureError, match=r"b_hat for path 5 \(n=-1, N=16\)"):
        run_identify(identify_config(), "synthesized")


def test_csv_schema_and_round_trip():
    res = run_convergence(small_config())
    lines = res.csv_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3
    row = lines[1].split(",")
    assert row[0] == "CONST"
    # repr round trip: parsing the printed floats reproduces the numbers
    parsed = float(row[6])
    assert parsed == res.mean_abs_err[0, 0]
    payload = res.json_dict()
    assert payload["rows"][0]["mean_abs_err"] == res.mean_abs_err[0, 0]
    assert payload["config_hash"] == config_hash(res.config)


def test_wick_variance_oracles():
    # frozen oracles: E|B_N(0) - 1|^2 = 2/(2N+1) for CONST and
    # E|B_N(0) - W_1|^2 = (4N+7)/(2N+1)^2 for NONCAUSAL_W1.
    cfg = ExperimentConfig(
        spec=spec_for("CONST"), n_list=(4, 16), M=0, m=256, paths=3000, master_seed=17,
    )
    res = run_convergence(cfg)
    for wi, N in enumerate(cfg.n_list):
        emp = res.lp_err[0, wi] ** 2
        oracle = 2.0 / (2 * N + 1)
        assert abs(emp / oracle - 1.0) < 0.12, N
    cfg = ExperimentConfig(
        spec=spec_for("NONCAUSAL_W1"), n_list=(4, 16), M=0, m=256, paths=3000, master_seed=17,
    )
    res = run_convergence(cfg)
    for wi, N in enumerate(cfg.n_list):
        emp = res.lp_err[0, wi] ** 2
        oracle = (4 * N + 7) / (2 * N + 1) ** 2
        assert abs(emp / oracle - 1.0) < 0.2, N


def test_slope_negative_for_every_kind():
    # the catalog-wide monotone decay property at reduced size
    for kind in ("DET", "ADAPTED_W", "NONCAUSAL_BRIDGE", "NONCAUSAL_MIDPOINT"):
        cfg = ExperimentConfig(
            spec=spec_for(kind),
            n_list=(4, 8, 16, 32, 64),
            M=0,
            m=512,
            paths=300,
            master_seed=23,
        )
        fit = fit_decay(run_convergence(cfg), 0)
        assert fit.slope < 0.0, kind
        assert fit.slope + 2 * fit.half_width < 0.0, kind


def test_nonfinite_estimate_names_the_path(monkeypatch):
    import sfc_lab.engine as engine

    real = engine.dx_coefficients

    def poisoned(*args, **kw):
        i_coef, terms, f_coef = real(*args, **kw)
        f_coef[3, -1] = np.nan  # path index 3 of the first tile
        return i_coef, terms, f_coef

    monkeypatch.setattr(engine, "dx_coefficients", poisoned)
    with pytest.raises(NumericalFailureError, match="path 3"):
        run_convergence(small_config())


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("SFC_LAB_THREADS", raising=False)
    assert resolve_threads() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("SFC_LAB_THREADS", "")
    assert resolve_threads() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("SFC_LAB_THREADS", "4")
    assert resolve_threads() == 4
    monkeypatch.setenv("SFC_LAB_THREADS", "0")
    with pytest.raises(ConfigError):
        resolve_threads()
    monkeypatch.setenv("SFC_LAB_THREADS", "four")
    with pytest.raises(ConfigError):
        resolve_threads()


def _fsums(x):
    return np.array([math.fsum(x[:, c].tolist()) for c in range(x.shape[1])])


@st.composite
def fsum_arrays(draw):
    """(P, C) arrays of mixed signs, zeros of both signs, subnormals and
    magnitudes from 1e-300 to 1e300, with a few hypothesis-chosen entries."""
    rows, columns = draw(st.integers(1, 3000)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-300, 300))
    high = draw(st.integers(low, 300))
    x = rng.choice([-1.0, 1.0], (rows, columns)) * 10.0 ** rng.uniform(low, high, (rows, columns))
    for value, share in ((0.0, 0.1), (-0.0, 0.05)):
        x[rng.random(x.shape) < draw(st.sampled_from([0.0, share, 1.0]))] = value
    subnormal = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.1]))
    count = subnormal.sum()
    x[subnormal] = rng.choice([-1, 1], count) * rng.integers(1, 2**52, count) * 5e-324
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
    for value in draw(st.lists(finite, max_size=5)):
        x[rng.integers(rows), rng.integers(columns)] = value
    return x


@settings(max_examples=60)
@given(fsum_arrays())
def test_column_fsum_is_fsum_bitwise(x):
    import sfc_lab.experiment as exp

    npt.assert_array_equal(exp._column_fsum(x).view(np.int64), _fsums(x).view(np.int64))


def test_column_fsum_row_passes_and_non_finite_columns(monkeypatch):
    import sfc_lab.experiment as exp

    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 4)) * 10.0 ** rng.uniform(-20, 20, (50, 4))
    monkeypatch.setattr(exp, "_SUM_ROWS", 7)  # the bound's row passes, at a size a test can run
    npt.assert_array_equal(exp._column_fsum(x).view(np.int64), _fsums(x).view(np.int64))
    x[3, 1], x[9, 2] = np.inf, np.nan
    sums = exp._column_fsum(x)
    assert sums[1] == np.inf and np.isnan(sums[2])
    npt.assert_array_equal(sums[[0, 3]], _fsums(x[:, [0, 3]]))


def _exact_variance(values):
    """The sample variance of floats in exact rational arithmetic."""
    exact = [Fraction(v) for v in values.tolist()]
    mean = sum(exact) / len(exact)
    return sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sweep_statistics_match_an_exact_oracle(p):
    cfg = small_config(spec=spec_for("NONCAUSAL_BRIDGE"), p_exponent=p)
    res = run_convergence(cfg)
    for oi in range(len(cfg.orders)):
        for wi in range(len(cfg.n_list)):
            err = res.abs_errors[:, wi, oi]
            assert res.mean_abs_err[oi, wi] == math.fsum(err.tolist()) / cfg.paths
            se = math.sqrt(_exact_variance(err) / cfg.paths)
            lp = float(sum(Fraction(v) ** int(p) for v in err.tolist()) / cfg.paths) ** (1 / p)
            assert res.std_err[oi, wi] == pytest.approx(se, rel=1e-15, abs=0)
            assert res.lp_err[oi, wi] == pytest.approx(lp, rel=1e-15, abs=0)


@pytest.mark.parametrize("mode", ["closed_form", "synthesized"])
def test_identify_statistics_match_an_exact_oracle(mode):
    spec = spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "w1"})
    cfg = small_config(spec=spec, n_list=(16,))
    res = run_identify(cfg, mode)
    for oi, row in enumerate(res.rows):
        for name, values in (("a", res.a_hat[:, oi]), ("b", res.b_hat[:, oi])):
            parts = (values.real, values.imag)
            means = [math.fsum(part.tolist()) / cfg.paths for part in parts]
            assert [row[f"{name}_mean_re"], row[f"{name}_mean_im"]] == means
            var = sum(_exact_variance(part) for part in parts)
            se = math.sqrt(var / cfg.paths)
            assert row[f"{name}_se"] == pytest.approx(se, rel=1e-15, abs=0)


def _full_band_identify_rows(a_hat, b_hat, paths):
    """The mean (re, im) and standard error of every order -M .. M of both
    estimates, reduced over the full band as ``IdentifyResult.rows`` did
    before it kept the orders n >= 0 alone: (2, orders, 3)."""
    parts = np.concatenate([a_hat, b_hat], axis=1).view(float)
    mean, var = _path_statistics(parts).reshape(2, 2, a_hat.shape[1], 2)
    se = np.sqrt((var[..., 0] + var[..., 1]) / paths)
    return np.concatenate([mean, se[..., None]], axis=-1)


def _identify_row_values(res):
    return np.array([[[row[f"{name}_mean_re"], row[f"{name}_mean_im"], row[f"{name}_se"]]
                      for row in res.rows] for name in "ab"])


@settings(max_examples=40)
@given(
    kind=st.sampled_from(CATALOG_KINDS),
    drift=st.sampled_from(DRIFT_KINDS),
    mode=st.sampled_from(["closed_form", "synthesized"]),
    M=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_half_band_identify_rebuilds_the_full_band(kind, drift, mode, M, seed):
    params = {} if drift == "none" else {"g": cosine(), "drift": drift}
    cfg = small_config(spec=spec_for(kind, params), n_list=(4,), M=M, m=64, paths=100,
                       master_seed=seed)
    res = run_identify(cfg, mode)
    assert res._a_hat.shape == res._b_hat.shape == (100, M + 1)
    assert np.array_equal(_bits(res.a_hat[:, M:]), _bits(res._a_hat))
    assert np.array_equal(_bits(res.a_hat[:, :M]), _bits(np.conj(res._a_hat[:, :0:-1])))
    full = _full_band_identify_rows(res.a_hat, res.b_hat, cfg.paths)
    npt.assert_array_equal(_bits(_identify_row_values(res)), _bits(full))


def test_half_band_identify_rows_keep_the_sign_of_a_zero_mean():
    # real a_hat and zero b_hat: the columns at n < 0 hold -0.0, whose exact
    # sum is +0.0, as the full band's reduction gives it
    cfg = small_config(n_list=(16,), M=2)
    a_hat = np.zeros((cfg.paths, 3), dtype=complex)
    a_hat.real = np.random.default_rng(4).standard_normal((cfg.paths, 3))
    res = IdentifyResult(config=cfg, mode="closed_form", _a_hat=a_hat, _b_hat=np.zeros_like(a_hat))
    full = _full_band_identify_rows(res.a_hat, res.b_hat, cfg.paths)
    npt.assert_array_equal(_bits(_identify_row_values(res)), _bits(full))


def test_identify_standard_error_overflow_names_the_order():
    cfg = small_config(n_list=(16,))
    a_hat = np.zeros((cfg.paths, 2), dtype=complex)  # the orders 0 .. M kept
    a_hat[::2, 1] = 1e300  # finite estimates whose squares overflow
    res = IdentifyResult(config=cfg, mode="closed_form", _a_hat=a_hat, _b_hat=np.zeros_like(a_hat))
    # the order n = 1 and its mirror n = -1 overflow; the rows name the first
    with pytest.raises(NumericalFailureError, match=r"a_se overflows \(n=-1, N=16\)"):
        res.rows
