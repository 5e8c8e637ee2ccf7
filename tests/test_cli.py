import json
import tracemalloc

import numpy as np
import pytest

from helpers import record_tile_workers, start_helpers_at_any_m
import sfc_lab.cli as cli
from sfc_lab import (
    BohrConfig,
    ConfigError,
    ExperimentConfig,
    NumericalFailureError,
    SeedSpec,
    TimeGrid,
    cosine,
    kernel_l2_identity,
    make_process,
)
from sfc_lab.cli import main
from sfc_lab.experiment import CSV_HEADER, IDENTIFY_CSV_HEADER, config_from_jsonable


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def base_convergence_config():
    return {
        "process": {"kind": "CONST"},
        "N_list": [4, 8, 16],
        "M": 1,
        "m": 256,
        "paths": 120,
        "master_seed": 11,
        "block_size": 32,
    }


def identify_config():
    return {
        "process": {
            "kind": "NONCAUSAL_W1",
            "g": {"coeffs": {"1": [0.5, 0.0], "-1": [0.5, 0.0]}},
            "drift": "det",
        },
        "N_list": [16],
        "M": 1,
        "m": 256,
        "paths": 100,
        "master_seed": 5,
        "mode": "closed_form",
    }


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "sfc-lab" in capsys.readouterr().out


def test_kernel_check_prints_value(capsys):
    assert main(["kernel-check", "--N", "5", "--m", "24"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "11"


def test_kernel_check_rejects_coarse_grid(capsys):
    assert main(["kernel-check", "--N", "5", "--m", "10"]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL " not in out


def test_verify_multiplication_reduced(capsys):
    assert main(["verify-multiplication", "--m", "256", "--paths", "10"]) == 0
    out = capsys.readouterr().out
    assert "all residuals in tolerance" in out


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_identity_checks_sample_each_path_and_basis_once(monkeypatch, capsys):
    import sfc_lab.catalog as cat

    draws = _counting(monkeypatch, cli, "sample_rows")
    bases = _counting(monkeypatch, cli, "eval_basis")
    tables = _counting(monkeypatch, cat, "SpecTables")
    drift_rules = _counting(monkeypatch, cli, "block_prop2_residual")
    paths = 2 * cli._BATTERY_ROWS + 8  # two full blocks and a short one
    assert cli._identity_checks(TimeGrid(64), 7, paths=paths)
    drawn = [lo + r for _, lo, dw, *_ in draws for r in range(len(dw))]
    assert drawn == list(range(paths)) and len(bases) == 3
    assert len(tables) == 8  # once per spec: 6 kinds without drift, one spec per drift shape
    # (det, w1) per block, each on orders (0, 1) and every path of the block
    assert len(drift_rules) == 2 * len(draws) == 6
    assert all(len(e) == 2 for _, e, _, _ in drift_rules)
    assert sum(len(dw) for *_, dw in drift_rules) == 2 * paths
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 6 + 2 and lines[0].startswith("ok   integration by parts")


def test_identity_checks_memory_does_not_grow_with_paths(capsys):
    def peak(m, paths):
        cli._identity_checks(TimeGrid(m), 7, paths)  # first use: imports and FFT plans
        tracemalloc.start()
        try:
            assert cli._identity_checks(TimeGrid(m), 7, paths)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one block of rows at a time: 400 paths hold what 100 do, where a list
    # of every sampled path held 10.4 MB at m=1024 and 11.3 MB at m=4096
    assert peak(1024, 400) <= 1.1 * peak(1024, 100)
    assert peak(4096, 100) < 11.3e6


def test_each_product_rule_line_gates_on_its_own(monkeypatch, capsys):
    def broken(name, hit):
        real = getattr(cli, name)

        def residual(st, e, w, dw):
            return np.ones((len(dw), len(e))) if hit(st.spec) else real(st, e, w, dw)

        monkeypatch.setattr(cli, name, residual)

    def fail_lines():
        assert main(["verify-multiplication", "--m", "64", "--paths", "2"]) == 1
        return [line for line in capsys.readouterr().out.split("\n") if line.startswith("FAIL")]

    broken("block_prop2_residual", lambda spec: spec.drift_kind == "w1")
    assert fail_lines() == ["FAIL w1 drift product rule: max_residual=1.000e+00"]
    monkeypatch.undo()
    broken("block_prop1_residual", lambda spec: spec.kind == "ADAPTED_W")
    assert fail_lines() == ["FAIL ADAPTED_W stochastic product rule: max_residual=1.000e+00"]


def test_identify_reduces_each_order_once(tmp_path, monkeypatch, capsys):
    import sfc_lab.experiment as exp

    reductions = _counting(monkeypatch, exp, "_path_statistics")
    cfg_path = write_config(tmp_path, "id.json", identify_config())
    assert main(["identify", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(reductions) == 1  # one kernel call for the whole result
    (values,) = reductions[0]
    assert values.shape == (100, 2 * 4)  # orders 0, 1; re and im of a and b


def test_convergence_fits_and_hashes_once(tmp_path, monkeypatch, capsys):
    import sfc_lab.experiment as exp

    fits = _counting(monkeypatch, exp, "fit_loglog")
    hashes = _counting(monkeypatch, exp, "sha256")
    cfg_path = write_config(tmp_path, "cfg.json", base_convergence_config())
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(fits) == 3  # one per order, shared by the printed lines and the JSON
    assert len(hashes) == 1


@pytest.mark.parametrize(
    "process, m, n_list, what",
    [
        (identify_config()["process"] | {"kind": "NONCAUSAL_BRIDGE", "drift": "w1"}, 64, [1, 2],
         "overflows"),
        ({"kind": "CONST"}, 512, [16, 32], "underflows to 0"),
    ],
)
def test_an_lp_error_out_of_range_is_a_numerical_failure(
    tmp_path, capsys, process, m, n_list, what
):
    data = {"process": process, "N_list": n_list, "M": 1, "m": m, "paths": 100, "p_exponent": 3000}
    cfg_path = write_config(tmp_path, "lp.json", data)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"numerical failure: L^p error {what} at p=3000 (n=" in err
    assert "Traceback" not in err and "internal error" not in err


def test_convergence_writes_identical_artifacts(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, "cfg.json", base_convergence_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    start_helpers_at_any_m(monkeypatch)
    workers = record_tile_workers(monkeypatch)
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    assert main(["convergence", "--config", cfg_path, "--out", str(out1)]) == 0
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    assert main(["convergence", "--config", cfg_path, "--out", str(out2)]) == 0
    assert [len(ran) for ran in workers] == [1, 2]

    csv1 = (out1 / "convergence.csv").read_bytes()
    assert csv1 == (out2 / "convergence.csv").read_bytes()
    assert (out1 / "convergence.json").read_bytes() == (out2 / "convergence.json").read_bytes()

    lines = csv1.decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3
    out = capsys.readouterr().out
    assert "config_hash=" in out


def test_convergence_paths_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "cfg.json", base_convergence_config())
    out_dir = tmp_path / "run"
    assert main(["convergence", "--config", cfg_path, "--out", str(out_dir), "--paths", "100"]) == 0
    row = (out_dir / "convergence.csv").read_text().strip().split("\n")[1]
    assert row.split(",")[4] == "100"


def test_convergence_slope_band_gate(tmp_path):
    data = base_convergence_config()
    data["slope_band"] = [-0.65, -0.35]
    data["slope_band_orders"] = [0]
    cfg_path = write_config(tmp_path, "ok.json", data)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0

    data["slope_band"] = [-0.1, -0.0001]
    cfg_path = write_config(tmp_path, "bad.json", data)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 1


@pytest.mark.parametrize(
    "band, orders",
    [
        ([5.0, 6.0], [7, "x"]),  # no order of M = 1 is gated: the gate would pass vacuously
        ([5.0, 6.0], [2]),
        ([5.0, 6.0], []),
        ([5.0, 6.0], [0.0]),
        ([5.0, 6.0], [True]),
        ([5.0, 6.0], 0),
        ([-0.35, -0.65], [0]),  # low > high
        ([float("nan"), 0.0], [0]),
        ([float("-inf"), 0.0], [0]),
        ([-0.65, "x"], [0]),
        ([-0.65], [0]),
    ],
)
def test_convergence_slope_gate_must_gate(tmp_path, capsys, band, orders):
    data = dict(base_convergence_config(), slope_band=band, slope_band_orders=orders)
    cfg_path = write_config(tmp_path, "cfg.json", data)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "config error: slope_band" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_identify_closed_form(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "id.json", identify_config())
    out_dir = tmp_path / "out"
    assert main(["identify", "--config", cfg_path, "--out", str(out_dir)]) == 0

    lines = (out_dir / "identify.csv").read_text().strip().split("\n")
    assert lines[0] == IDENTIFY_CSV_HEADER
    assert len(lines) == 1 + 3  # orders -1, 0, 1
    row_n1 = lines[3].split(",")
    assert row_n1[1] == "1"
    assert row_n1[6] == "closed_form"
    # b(t) = cos(2 pi t) so the order-one coefficient is exactly one half
    assert abs(float(row_n1[10]) - 0.5) < 1e-9
    assert abs(float(row_n1[11])) < 1e-9

    report = json.loads((out_dir / "identify.json").read_text())
    assert report["mode"] == "closed_form"
    assert len(report["rows"]) == 3
    assert report["rows"][2]["b_mean_re"] == float(row_n1[7 + 3])


def test_identify_nonfinite_estimate_names_the_path(monkeypatch):
    import sfc_lab.experiment as exp

    real = exp.block_functionals

    def poisoned(st, w_block, out=None):
        a, b, dx = real(st, w_block, out=out)
        dx[3, -1] = np.nan  # path index 3 of the first tile
        return a, b, dx

    monkeypatch.setattr(exp, "block_functionals", poisoned)
    cfg = config_from_jsonable(identify_config())
    with pytest.raises(NumericalFailureError, match="path 3") as info:
        cli.run_identify(cfg, "closed_form")
    assert "a_hat" in str(info.value)
    assert "N=16" in str(info.value)


@pytest.mark.parametrize("mode", ["closed_form", "synthesized"])
def test_identify_bytes_ignore_threads_and_block_size(tmp_path, monkeypatch, mode):
    start_helpers_at_any_m(monkeypatch)
    workers = record_tile_workers(monkeypatch)

    def run(name, threads, block_size):
        data = dict(identify_config(), mode=mode, paths=120, block_size=block_size)
        if threads is None:  # unset: one thread per CPU
            monkeypatch.delenv("SFC_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("SFC_LAB_THREADS", str(threads))
        out = tmp_path / name
        assert main(["identify", "--config", write_config(tmp_path, f"{name}.json", data),
                     "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("identify.csv", "identify.json")]

    csv1, json1 = run("t1", 1, 32)
    assert [csv1, json1] == run("t3", 3, 32)
    assert len(workers[0]) == 1 and len(workers[1]) >= 2
    assert [csv1, json1] == run("unset", None, 32)
    csv7, json7 = run("b7", 1, 7)  # 7-row tiles, against 16-row tiles at block size 32
    assert csv7 == csv1  # the CSV carries no block_size; the JSON config and hash do
    assert json.loads(json7)["rows"] == json.loads(json1)["rows"]


def test_identify_rejects_unknown_mode(tmp_path):
    data = identify_config()
    data["mode"] = "magic"
    cfg_path = write_config(tmp_path, "id.json", data)
    assert main(["identify", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2


def test_config_errors_exit_two(tmp_path):
    assert main(["convergence", "--config", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["convergence", "--config", str(bad)]) == 2

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    assert main(["convergence", "--config", str(arr)]) == 2

    unknown = write_config(tmp_path, "kind.json", {"process": {"kind": "NOPE"}})
    assert main(["convergence", "--config", unknown]) == 2

    stray = write_config(
        tmp_path, "stray.json", {"process": {"kind": "CONST"}, "paths": 100, "typo": 1}
    )
    assert main(["convergence", "--config", stray]) == 2

    drift = write_config(
        tmp_path, "drift.json", {"process": {"kind": "CONST", "drift": "det"}}
    )
    assert main(["convergence", "--config", drift]) == 2

    bogus = write_config(tmp_path, "bogus.json", {"process": {"kind": "CONST", "bogus": 1}})
    assert main(["convergence", "--config", bogus]) == 2

    boolean = write_config(
        tmp_path, "bool.json", {"process": {"kind": "CONST", "g": {"coeffs": {"0": [True, 0]}}}}
    )
    assert main(["convergence", "--config", boolean]) == 2

    # one width gives no decay slope; the check comes before the sweep
    one_width = {"process": {"kind": "CONST"}, "N_list": [4], "M": 1, "m": 256, "paths": 100}
    single = write_config(tmp_path, "single.json", one_width)
    assert main(["convergence", "--config", single, "--out", str(tmp_path / "single")]) == 2
    assert not (tmp_path / "single").exists()


NONFINITE = [float("nan"), float("inf"), float("-inf")]


def _nonfinite_tables(bad):
    """The table forms of make_process, each holding ``bad`` once: node
    values (a list and the JSON form), a frequency mapping and JSON
    coefficients, in the real part and, as a conjugate pair, the imaginary."""
    nodes = [1.0] * 256
    nodes[5] = bad
    return [
        nodes,
        {"values": nodes},
        {0: bad},
        {1: complex(0.5, bad), -1: complex(0.5, -bad)},
        {"coeffs": {"0": [bad, 0.0]}},
        {"coeffs": {"1": [0.5, bad], "-1": [0.5, -bad]}},
    ]


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("name", ["f", "g"])
def test_a_nonfinite_table_is_a_config_error_that_names_it(name, bad):
    for table in _nonfinite_tables(bad):
        params = {"f": [1.0] * 256, "drift": "det", "g": cosine(), name: table}
        with pytest.raises(ConfigError, match=rf"^{name} (node )?table"):
            make_process("DET", params)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("name", ["f", "g"])
@pytest.mark.parametrize("command", ["convergence", "identify"])
def test_a_nonfinite_table_exits_two_before_the_run(tmp_path, monkeypatch, capsys, command,
                                                     name, bad):
    monkeypatch.setattr(cli, f"run_{command}", lambda *args: pytest.fail("the run started"))
    json_forms = [t for t in _nonfinite_tables(bad)
                  if isinstance(t, list) or all(isinstance(k, str) for k in t)]
    assert len(json_forms) == 4
    for i, table in enumerate(json_forms):
        data = dict(base_convergence_config(), mode="synthesized")
        data["process"] = {"kind": "DET", "f": {"coeffs": {"0": [1.0, 0.0]}}, "drift": "det",
                           "g": {"coeffs": {"0": [1.0, 0.0]}}, name: table}
        out = tmp_path / f"o{i}"
        cfg_path = write_config(tmp_path, f"cfg{i}.json", data)
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith(f"config error: {name} ")
        assert "finite" in errors[0] and captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("convergence", "mode", 3),
        ("convergence", "mode", "magic"),
        ("identify", "slope_band", "x"),
        ("identify", "slope_band", [-0.35, -0.65]),
        ("identify", "slope_band_orders", [2]),  # M = 1
    ],
)
def test_a_command_key_is_checked_whichever_command_reads_the_file(tmp_path, monkeypatch, capsys,
                                                                   command, key, value):
    monkeypatch.setattr(cli, f"run_{command}", lambda *args: pytest.fail("the run started"))
    data = dict(base_convergence_config(), **{key: value})
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, "cfg.json", data),
                 "--out", str(out)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"config error: {key} ")
    assert not out.exists()


def test_one_file_serves_both_commands(tmp_path):
    # each command accepts the valid keys that the other one reads
    data = dict(base_convergence_config(), mode="synthesized", slope_band=[-0.65, -0.35],
                slope_band_orders=[0, 1])
    cfg_path = write_config(tmp_path, "cfg.json", data)
    for command in ("convergence", "identify"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / f"{command}.csv").exists()
    report = json.loads((tmp_path / "identify" / "identify.json").read_text())
    assert report["mode"] == "synthesized"


def test_unknown_subcommand_exits_two():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("paths", 150.5),
        ("paths", True),
        ("M", 1.5),
        ("m", 256.5),
        ("block_size", 32.5),
        ("master_seed", 1.5),
        ("master_seed", -1),
        ("N_list", [4, 8.5]),
        ("N_list", 8),
        ("p_exponent", float("nan")),
        ("p_exponent", float("inf")),
        ("p_exponent", True),
    ],
)
def test_non_integer_config_fields_exit_two(tmp_path, capsys, field, value):
    data = base_convergence_config()
    data[field] = value
    cfg_path = write_config(tmp_path, "cfg.json", data)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-check", "--N", "-1", "--m", "8"],
        ["verify-multiplication", "--m", "1", "--paths", "2"],
        ["verify-multiplication", "--m", "64", "--paths", "0"],
        ["verify-multiplication", "--m", "64", "--paths", "2", "--seed", "-3"],
        ["verify-multiplication", "--m", "4", "--paths", "2"],  # aliases basis order -3
        ["verify-multiplication", "--m", "6", "--paths", "2"],
        ["verify-multiplication", "--m", "7", "--paths", "2"],  # t = 1/2 is not a node
    ],
)
def test_bad_command_line_values_exit_two(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "config error" in err and out == ""  # rejected before any check prints
    if argv[:3] == ["verify-multiplication", "--m", "6"]:
        assert "basis order -3" in err
    if argv[:3] == ["verify-multiplication", "--m", "7"]:
        assert "must be even" in err and "t = 1/2" in err and "MIDPOINT" not in err


@pytest.mark.parametrize("command", ["convergence", "identify"])
def test_an_unusable_out_exits_two_before_the_run(tmp_path, monkeypatch, capsys, command):
    def run(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, f"run_{command}", run)
    data = base_convergence_config() if command == "convergence" else identify_config()
    cfg_path = write_config(tmp_path, "cfg.json", data)
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    assert main([command, "--config", cfg_path, "--out", str(afile / "sub")]) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("config error: ")
    assert str(afile / "sub") in errors[0] and out == ""


def test_results_larger_than_memory_exit_two(tmp_path, monkeypatch, capsys):
    # the machine is said to hold 1 MB: 100000 paths of 3 widths, the truth
    # and the orders 0 .. 1 need 12.8 MB of per-path results; no tile runs
    import sfc_lab.experiment as exp

    monkeypatch.setattr(exp, "_physical_memory", lambda: 10**6)
    monkeypatch.setattr(exp, "_run_tiles", lambda *args: pytest.fail("the run started"))
    cfg_path = write_config(tmp_path, "cfg.json", base_convergence_config())
    argv = ["convergence", "--config", cfg_path, "--out", str(tmp_path / "o"), "--paths", "100000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: 100000 paths need 12,800,000 bytes" in err
    assert "1,000,000 bytes of physical memory" in err
    assert not (tmp_path / "o").exists()  # the --out that the command made is gone


@pytest.mark.parametrize("command", ["convergence", "identify"])
def test_a_grid_whose_tables_exceed_memory_exits_two(tmp_path, monkeypatch, capsys, command):
    # m = 10**11: one table of m floats is 800 GB, while the per-path results
    # fit the terabyte the machine is said to hold; nothing is allocated
    import sfc_lab.experiment as exp

    monkeypatch.setattr(exp, "_physical_memory", lambda: 10**12)
    monkeypatch.setattr(exp, "spec_tables", lambda *args: pytest.fail("the tables were built"))
    data = base_convergence_config() if command == "convergence" else identify_config()
    cfg_path = write_config(tmp_path, "cfg.json", data)
    out_dir = tmp_path / "o" / "p" / "q"
    argv = [command, "--config", cfg_path, "--out", str(out_dir), "--mesh", "100000000000"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("config error: ")
    assert "1,000,000,000,000 bytes of physical memory" in errors[0]
    assert "Traceback" not in err and "internal error" not in err
    assert not (tmp_path / "o").exists()  # every level that the command made is gone


@pytest.mark.parametrize(
    "build",
    [
        lambda: BohrConfig(N=0),
        lambda: BohrConfig(N=4, M=-1),
        lambda: BohrConfig(N=4, mode="magic"),
        lambda: TimeGrid(1),
        lambda: TimeGrid(8.0),
        lambda: SeedSpec(-1),
        lambda: SeedSpec(1, 2**64),
        lambda: kernel_l2_identity(5, 23),
        lambda: kernel_l2_identity(-1, 24),
        lambda: make_process("DET", {"f": "abc"}),
        lambda: make_process("DET", {"f": {1: "x"}}),
        lambda: make_process("DET", {"f": {"values": {"1": 0.5}}}),
        lambda: make_process("DET", {"f": {"coeffs": {"1": ["a", 0.0]}}}),
        # a frequency is an integer, and a bool is not a number
        lambda: make_process("DET", {"f": {1.7: 0.5, -1.7: 0.5}}),
        lambda: make_process("DET", {"f": {"coeffs": {1.7: [0.5, 0.0], -1.7: [0.5, 0.0]}}}),
        lambda: make_process("DET", {"f": {True: 0.5, -1: 0.5}}),
        lambda: make_process("DET", {"f": {0: True}}),
        lambda: make_process("DET", {"f": {"values": [True, False]}}),
        lambda: make_process("DET", {"f": np.array([True, False])}),
        lambda: make_process("DET", {"f": {"coeffs": {"0": [True, 0]}}}),
        lambda: ExperimentConfig(spec=make_process("CONST"), n_list=8),
    ],
)
def test_library_boundaries_raise_config_error(build):
    # a new subcommand that skips its own checks still exits 2, not "internal error"
    with pytest.raises(ConfigError):
        build()


def test_internal_error_exits_one(monkeypatch, capsys):
    def broken(N, m):
        raise ValueError("kernel table out of sync")

    monkeypatch.setattr(cli, "kernel_l2_identity", broken)
    assert main(["kernel-check", "--N", "5", "--m", "24"]) == 1
    err = capsys.readouterr().err
    assert "internal error: kernel table out of sync" in err
    assert "config error" not in err
