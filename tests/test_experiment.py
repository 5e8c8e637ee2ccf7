import json

import numpy as np
import numpy.testing as npt
import pytest

from helpers import spec_for
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
    recover_b,
    sample_path,
)
from sfc_lab.catalog import spec_tables
from sfc_lab.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    _run_tiles,
    config_from_jsonable,
    config_hash,
    config_jsonable,
    fit_decay,
    fit_loglog,
    resolve_threads,
    run_convergence,
    run_identify,
    tile_rows,
)


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


def test_config_round_trip_and_hash():
    spec = spec_for("DET", {"f": cosine(2), "g": cosine(), "drift": "w1"})
    cfg = ExperimentConfig(spec=spec, n_list=(4, 8, 16), M=1, m=256, paths=150, master_seed=7)
    data = config_jsonable(cfg)
    rebuilt = config_from_jsonable(json.loads(json.dumps(data)))
    assert config_hash(rebuilt) == config_hash(cfg)
    assert rebuilt.spec.kind == "DET"
    assert rebuilt.spec.f.coeff(2) == 0.5
    # hash reacts to content, not dict ordering
    assert config_hash(small_config()) != config_hash(small_config(master_seed=91))
    shuffled = dict(reversed(list(data.items())))
    assert config_hash(config_from_jsonable(shuffled)) == config_hash(cfg)


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


def test_run_shapes_and_determinism():
    cfg = small_config()
    res1 = run_convergence(cfg)
    res2 = run_convergence(cfg)
    assert res1.abs_errors.shape == (120, 3, 3)
    assert res1.estimates.shape == (120, 3, 3)
    assert np.array_equal(res1.abs_errors, res2.abs_errors)
    assert res1.csv_text() == res2.csv_text()
    assert res1.runtime_seconds > 0.0
    # runtime and per-path tensors stay out of the serialization
    payload = res1.json_dict()
    assert "runtime_seconds" not in json.dumps(payload)
    assert set(payload) == {"version", "config_hash", "config", "rows", "decay"}


def test_thread_count_does_not_change_bytes(monkeypatch):
    cfg = small_config()
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    seq = run_convergence(cfg)
    monkeypatch.setenv("SFC_LAB_THREADS", "3")
    par = run_convergence(cfg)
    assert np.array_equal(seq.abs_errors, par.abs_errors)
    assert seq.csv_text() == par.csv_text()
    assert seq.json_text() == par.json_text()


@pytest.mark.parametrize("kind", ["CONST", "ADAPTED_W", "NONCAUSAL_BRIDGE"])
def test_prefix_property(kind):
    short = run_convergence(small_config(spec=spec_for(kind), paths=100))
    longer = run_convergence(small_config(spec=spec_for(kind), paths=160))
    assert np.array_equal(short.abs_errors, longer.abs_errors[:100])
    assert np.array_equal(short.estimates, longer.estimates[:100])


def test_block_size_does_not_change_estimates():
    # partitioning is an implementation detail of scheduling; the per-path
    # substreams make path content independent of it.  Block size does join
    # the config hash, so artifacts declare it.  At m=256 a tile holds at most
    # 64 rows, so 100 runs tiles of 64 and 56 rows: not a multiple of either.
    assert [tile_rows(small_config(block_size=b)) for b in (32, 50, 100)] == [32, 50, 64]
    a = run_convergence(small_config(block_size=32))
    for block_size in (50, 100):
        b = run_convergence(small_config(block_size=block_size))
        assert np.array_equal(a.abs_errors, b.abs_errors)
        assert np.array_equal(a.estimates, b.estimates)


def test_negative_orders_are_the_conjugates_of_the_positive(monkeypatch):
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    cfg = small_config(spec=spec_for("NONCAUSAL_BRIDGE", {"g": cosine(), "drift": "w1"}), M=3)
    est = run_convergence(cfg).estimates  # (paths, widths, orders -M .. M)
    assert np.array_equal(est[:, :, :3], np.conj(est[:, :, :3:-1]))


def test_tiles_reuse_the_workers_buffers(monkeypatch):
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    cfg = small_config()
    tiles = []
    _run_tiles(cfg, spec_tables(cfg.spec, TimeGrid(cfg.m)), cfg.n_list, tiles.append)
    assert [t.lo for t in tiles] == [0, 32, 64, 96] and len(tiles[-1].dx) == 24
    for prev, tile in zip(tiles, tiles[1:]):
        assert np.shares_memory(prev.dx, tile.dx)
        assert np.shares_memory(prev.w, tile.w)


def identify_config(**over):
    spec = spec_for("NONCAUSAL_W1", {"g": cosine(), "drift": "det"})
    return small_config(spec=spec, **over)


@pytest.mark.parametrize("mode", ["closed_form", "synthesized"])
def test_identify_a_hat_is_the_sweep_estimate(mode):
    cfg = identify_config()
    ident = run_identify(cfg, mode)
    sweep = run_convergence(cfg)
    assert ident.a_hat.shape == (120, 3)
    assert np.array_equal(ident.a_hat, sweep.estimates[:, -1, :])  # width N = max(n_list)


@pytest.mark.parametrize("mode", ["closed_form", "synthesized"])
def test_identify_tiles_match_the_per_path_estimators(mode):
    # the engine's tiles and the one-path library calls share every kernel
    cfg = identify_config()
    ident = run_identify(cfg, mode)
    bohr_cfg = BohrConfig(N=16, M=1, mode=mode)
    for idx in (0, 37, 119):
        pf = eval_functionals(cfg.spec, sample_path(SeedSpec(cfg.master_seed, idx), TimeGrid(256)))
        a_hat = identify_a(pf, bohr_cfg)
        assert np.array_equal(ident.a_hat[idx], a_hat.values)
        assert np.array_equal(ident.b_hat[idx], recover_b(pf, a_hat, bohr_cfg).values)


@pytest.mark.parametrize("mode", ["closed_form", "synthesized"])
def test_identify_prefix_property(mode):
    short = run_identify(identify_config(paths=100), mode)
    longer = run_identify(identify_config(paths=160), mode)
    assert np.array_equal(short.a_hat, longer.a_hat[:100])
    assert np.array_equal(short.b_hat, longer.b_hat[:100])


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

    def poisoned(st, mode, w, dw, dx, a, a_hat, f_coef, i_coef):
        b = real(st, mode, w, dw, dx, a, a_hat, f_coef, i_coef)
        b[5, 2] = np.nan  # row 5 of every tile; path 5 is the first
        return b

    monkeypatch.setattr(exp, "drift_coefficients", poisoned)
    with pytest.raises(NumericalFailureError, match=r"b_hat for path 5 \(n=1, N=16\)"):
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
    import sfc_lab.experiment as exp

    real = exp.block_functionals

    def poisoned(st, w_block, out=None):
        a, b, dx = real(st, w_block, out=out)
        dx[3, -1] = np.nan  # path index 3 of the first tile
        return a, b, dx

    monkeypatch.setattr(exp, "block_functionals", poisoned)
    with pytest.raises(NumericalFailureError, match="path 3"):
        run_convergence(small_config())


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("SFC_LAB_THREADS", raising=False)
    assert resolve_threads() == 1
    monkeypatch.setenv("SFC_LAB_THREADS", "4")
    assert resolve_threads() == 4
    monkeypatch.setenv("SFC_LAB_THREADS", "0")
    with pytest.raises(ConfigError):
        resolve_threads()
    monkeypatch.setenv("SFC_LAB_THREADS", "four")
    with pytest.raises(ConfigError):
        resolve_threads()
