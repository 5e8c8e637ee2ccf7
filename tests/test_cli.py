import json

import numpy as np
import pytest

import sfc_lab.cli as cli
from sfc_lab import (
    BohrConfig,
    ConfigError,
    NumericalFailureError,
    SeedSpec,
    TimeGrid,
    kernel_l2_identity,
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
    paths = _counting(monkeypatch, cli, "sample_path")
    bases = _counting(monkeypatch, cli, "eval_basis")
    assert cli._identity_checks(TimeGrid(64), 7, paths=8)
    assert len(paths) == 8 and len(bases) == 3
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 2 * 6 and lines[0].startswith("ok   integration by parts")


def test_identify_reduces_each_order_once(tmp_path, monkeypatch, capsys):
    import sfc_lab.experiment as exp

    reductions = _counting(monkeypatch, exp, "_mean_var")
    cfg_path = write_config(tmp_path, "id.json", identify_config())
    assert main(["identify", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(reductions) == 3 * 4  # orders -1, 0, 1; re and im of a and b


def test_convergence_writes_identical_artifacts(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, "cfg.json", base_convergence_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    monkeypatch.setenv("SFC_LAB_THREADS", "1")
    assert main(["convergence", "--config", cfg_path, "--out", str(out1)]) == 0
    monkeypatch.setenv("SFC_LAB_THREADS", "2")
    assert main(["convergence", "--config", cfg_path, "--out", str(out2)]) == 0

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
    def run(name, threads, block_size):
        data = dict(identify_config(), mode=mode, paths=120, block_size=block_size)
        monkeypatch.setenv("SFC_LAB_THREADS", str(threads))
        out = tmp_path / name
        assert main(["identify", "--config", write_config(tmp_path, f"{name}.json", data),
                     "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("identify.csv", "identify.json")]

    csv1, json1 = run("t1", 1, 32)
    assert [csv1, json1] == run("t3", 3, 32)
    csv50, json50 = run("b50", 1, 50)
    assert csv50 == csv1  # the CSV carries no block_size; the JSON config and hash do
    assert json.loads(json50)["rows"] == json.loads(json1)["rows"]


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
    ],
)
def test_bad_command_line_values_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


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
