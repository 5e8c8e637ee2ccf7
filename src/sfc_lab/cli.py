"""Command-line front end.

Subcommands
-----------
kernel-check          evaluate the kernel norm identity on the grid
selftest              exact discrete identities and sampling sanity checks
verify-multiplication product-rule residuals over the catalog kinds and drift shapes
convergence           Monte Carlo error sweep, CSV + JSON reports
identify              per-order coefficient estimates for one configuration

Exit status: 0 success, 1 a check or acceptance band failed, a numerical
failure or an internal error, 2 usage or configuration error.  Configs are
JSON; see the README for the schema.
Numbers in reports are printed with ``repr``, the shortest decimal that
round-trips, so identical configurations give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .bohr import CLOSED_FORM, RECOVERY_MODES
from .brownian import SeedSpec, sample_rows
from .catalog import CATALOG_KINDS, CONST, DRIFT_DET, DRIFT_W1, make_process, spec_for, spec_tables
from .errors import ConfigError, NumericalFailureError
from .experiment import (
    COMMAND_KEYS,
    ExperimentConfig,
    config_from_jsonable,
    config_hash,
    fit_decay,
    run_convergence,
    run_identify,
)
from .grid import TimeGrid, dirichlet_closed_form, dirichlet_kernel, eval_basis, kernel_l2_identity
from .malliavin import (
    block_lemma_residual,
    block_prop1_residual,
    block_prop2_residual,
    block_w1_functionals,
)
from .sfc import coefficients

DEFAULT_SEED = 20260819
_BATTERY_ROWS = 16  # paths per block of the identity battery, whatever --paths is
_BASIS_ORDERS = (0, 1, -3)  # the basis functions e_n of the identity battery


def _run_config(args: argparse.Namespace) -> tuple[ExperimentConfig, dict]:
    """The run's config from ``--config`` and the ``--seed``, ``--paths`` and
    ``--mesh`` overrides, and the file's command keys (``COMMAND_KEYS``),
    checked by :func:`_command_keys`."""
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    for key, value in (("master_seed", args.seed), ("paths", args.paths), ("m", args.mesh)):
        if value is not None:
            data[key] = value
    cfg = config_from_jsonable(data)
    return cfg, _command_keys(cfg, {k: data[k] for k in COMMAND_KEYS if k in data})


def _command_keys(cfg: ExperimentConfig, command: dict) -> dict:
    """``command`` once every value in it is one that the command reading
    it accepts, whichever command runs, so that one file serves both: a
    recovery mode (identify), and a slope gate that can fail, a finite band
    over orders of the run (convergence)."""
    if "mode" in command and command["mode"] not in RECOVERY_MODES:
        raise ConfigError(f"mode must be one of {RECOVERY_MODES}, got {command['mode']!r}")
    band = command.get("slope_band")
    band_orders = command.get("slope_band_orders", [0])
    if band is not None and not (
        isinstance(band, list)
        and len(band) == 2
        and all(type(v) in (int, float) and math.isfinite(v) for v in band)
        and band[0] <= band[1]
    ):
        raise ConfigError(
            f"slope_band must be a [low, high] pair of finite numbers, low <= high, got {band!r}"
        )
    if not (
        isinstance(band_orders, list)
        and band_orders
        and all(type(n) is int and abs(n) <= cfg.M for n in band_orders)
    ):
        raise ConfigError(
            f"slope_band_orders must be a non-empty list of integer orders in -{cfg.M}..{cfg.M}, "
            f"got {band_orders!r}"
        )
    return command


@contextmanager
def _output_dir(out: str) -> Iterator[Path]:
    """``--out`` as a directory, made if it is missing, before any run starts:
    a path that cannot be one is a config error, not a lost run.  If the run
    inside raises, the directories made here are removed again while they
    are still empty."""
    out_dir = Path(out)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {out_dir} as the output directory: {exc}") from None
    try:
        yield out_dir
    except BaseException:
        for path in made:  # innermost first
            try:
                path.rmdir()
            except OSError:  # no longer empty, or gone
                break
        raise


def _write_artifacts(out_dir: Path, stem: str, result) -> None:
    """Write a result's ``<stem>.csv`` and ``<stem>.json`` into ``out_dir``."""
    for suffix, text in (("csv", result.csv_text()), ("json", result.json_text())):
        path = out_dir / f"{stem}.{suffix}"
        path.write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}")


def _check_line(ok: bool, name: str, detail: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# kernel-check


def cmd_kernel_check(args: argparse.Namespace) -> int:
    value = kernel_l2_identity(args.N, args.m)
    expected = 2 * args.N + 1
    rel = abs(value - expected) / expected
    print(f"{value:.12g}")
    # cross-check the summed kernel against its closed form off the grid
    probe = np.linspace(0.05, 0.95, 7)
    gap = float(
        np.max(np.abs(dirichlet_kernel(args.N, probe) - dirichlet_closed_form(args.N, 2 * probe)))
    )
    print(
        f"kernel norm identity: N={args.N} m={args.m} expected={expected} "
        f"rel_err={rel:.3e} closed_form_gap={gap:.3e}"
    )
    return 0 if rel <= 1e-9 and gap <= 1e-9 * expected else 1


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args: argparse.Namespace) -> int:
    ok = True
    seed = args.seed
    SeedSpec(seed)  # a bad --seed is a config error before any check prints

    # kernel norm identity at several widths
    for N in (1, 5, 32):
        m = 4 * N + 4
        value = kernel_l2_identity(N, m)
        rel = abs(value - (2 * N + 1)) / (2 * N + 1)
        ok &= _check_line(rel <= 1e-9, f"kernel identity N={N}", f"rel_err={rel:.3e}")

    # basis orthogonality through the left-tag quadrature
    basis = eval_basis(np.arange(-5, 6)[:, None], TimeGrid(64).left_nodes)
    worst = float(np.max(np.abs(basis @ basis.conj().T / 64 - np.eye(11))))
    ok &= _check_line(worst <= 1e-12, "basis orthogonality", f"max_gap={worst:.3e}")

    # integration by parts and the product rules on a few paths
    grid = TimeGrid(512)
    ok &= _identity_checks(grid, seed, paths=20)

    # sampling sanity on paths 2000..2399: terminal variance and the discrete isometry
    dw, w = np.empty((400, grid.m)), np.empty((400, grid.m + 1))
    sample_rows(seed, 2000, dw, w)
    var = float(np.var(w[:, -1], ddof=1))
    ok &= _check_line(0.85 <= var <= 1.15, "terminal variance", f"var={var:.4f}")
    iso_mean = float(np.mean(np.abs(coefficients(dw, 1)[:, 2]) ** 2))
    ok &= _check_line(abs(iso_mean - 1.0) <= 0.2, "basis isometry", f"mean={iso_mean:.4f}")

    # prefix property: a longer run reproduces the shorter run's paths
    spec = make_process("CONST")
    base = ExperimentConfig(
        spec=spec, n_list=(4, 8), M=1, m=128, paths=100, master_seed=seed, block_size=32
    )
    longer = ExperimentConfig(
        spec=spec, n_list=(4, 8), M=1, m=128, paths=160, master_seed=seed, block_size=32
    )
    short_res = run_convergence(base)
    long_res = run_convergence(longer)
    same = bool(np.array_equal(short_res.abs_errors, long_res.abs_errors[:100]))
    ok &= _check_line(same, "prefix property", f"first 100 of 160 paths bitwise equal: {same}")

    print("selftest:", "all checks passed" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify-multiplication


def _identity_checks(grid: TimeGrid, seed: int, paths: int) -> bool:
    """Integration by parts, the stochastic product rule over every catalog
    kind and the drift product rule over each drift shape, on the first
    ``paths`` paths; prints one line per check.  The paths are drawn once,
    in blocks of ``_BATTERY_ROWS`` rows that each residual takes whole."""
    e = np.array([eval_basis(n, grid.left_nodes) for n in _BASIS_ORDERS])
    g = {0: 0.5, 1: 0.5, -1: 0.5}  # 1/2 + cos(2 pi t); a zero mean makes prop 2 vacuous
    checks = [(f"{k} stochastic", block_prop1_residual, spec_for(k)) for k in CATALOG_KINDS]
    # The drift rule reads only b = g (g0 + g1 W_1), never the kind's a, so
    # one kind checks each drift shape.
    for d in (DRIFT_DET, DRIFT_W1):
        checks.append((f"{d} drift", block_prop2_residual, spec_for(CONST, {"g": g, "drift": d})))
    rules = [(rule, spec_tables(spec, grid)) for _, rule, spec in checks]
    dw, w = np.empty((_BATTERY_ROWS, grid.m)), np.empty((_BATTERY_ROWS, grid.m + 1))
    worst, rng = np.zeros(1 + len(rules)), None
    for lo in range(0, paths, _BATTERY_ROWS):
        rows = slice(0, min(_BATTERY_ROWS, paths - lo))
        rng = sample_rows(seed, lo, dw[rows], w[rows], rng)
        functionals = block_w1_functionals(w[rows]).values()
        lemma = [block_lemma_residual(value, grad, e, dw[rows]) for value, grad in functionals]
        found = [lemma] + [rule(st, e[:2], w[rows], dw[rows]) for rule, st in rules]
        np.maximum(worst, [np.max(r) for r in found], out=worst)
    ok = _check_line(worst[0] <= 1e-10, "integration by parts", f"max_residual={worst[0]:.3e}")
    for (name, _, _), res in zip(checks, worst[1:]):
        ok &= _check_line(res <= 1e-9, f"{name} product rule", f"max_residual={res:.3e}")
    return ok


def cmd_verify_multiplication(args: argparse.Namespace) -> int:
    if args.paths < 1:
        raise ConfigError(f"--paths must be >= 1, got {args.paths}")
    top = max(_BASIS_ORDERS, key=abs)
    if args.m <= 2 * abs(top):
        raise ConfigError(f"--m must be > {2 * abs(top)} to resolve basis order {top}, got {args.m}")
    if args.m % 2:
        raise ConfigError(f"--m must be even: the battery needs t = 1/2 on the grid, got {args.m}")
    ok = _identity_checks(TimeGrid(args.m), args.seed, args.paths)
    print("verify-multiplication:", "all residuals in tolerance" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# convergence


def cmd_convergence(args: argparse.Namespace) -> int:
    cfg, command = _run_config(args)
    band = command.get("slope_band")
    band_orders = command.get("slope_band_orders", [0])
    if len(cfg.n_list) < 2:
        raise ConfigError(f"a decay slope needs at least two widths, got N_list={list(cfg.n_list)}")
    with _output_dir(args.out) as out_dir:
        result = run_convergence(cfg)
    _write_artifacts(out_dir, "convergence", result)
    print(f"config_hash={config_hash(cfg)}")
    print(f"runtime_seconds={result.runtime_seconds:.3f}")

    status = 0
    for n in cfg.orders:
        fit = fit_decay(result, n)
        line = f"n={n} slope={fit.slope:.4f} half_width={fit.half_width:.4f}"
        if band is not None and n in band_orders:
            lo, hi = float(band[0]), float(band[1])
            inside = lo <= fit.slope <= hi
            line += f" band=[{lo}, {hi}] {'ok' if inside else 'OUT'}"
            if not inside:
                status = 1
        print(line)
    if status:
        print("slope outside the configured band", file=sys.stderr)
    return status


# ---------------------------------------------------------------------------
# identify


def cmd_identify(args: argparse.Namespace) -> int:
    cfg, command = _run_config(args)
    with _output_dir(args.out) as out_dir:
        result = run_identify(cfg, command.get("mode", CLOSED_FORM))
    _write_artifacts(out_dir, "identify", result)
    for row in result.rows:
        print(
            f"n={row['n']} a_mean={row['a_mean_re']:+.6f}{row['a_mean_im']:+.6f}j "
            f"(se {row['a_se']:.2e}) b_mean={row['b_mean_re']:+.6f}{row['b_mean_im']:+.6f}j "
            f"(se {row['b_se']:.2e})"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfc-lab",
        description="Stochastic Fourier coefficient experiments on a discretized Wiener space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("kernel-check", help="kernel norm identity on the grid")
    p.add_argument("--N", type=int, required=True, help="kernel half-width")
    p.add_argument("--m", type=int, required=True, help="grid cells (need m >= 4N+4)")
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("selftest", help="exact identities and sampling sanity checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("verify-multiplication", help="product rule residuals over the catalog")
    p.add_argument("--m", type=int, default=1024, help="grid cells")
    p.add_argument("--paths", type=int, default=100, help="paths per check")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify_multiplication)

    for name, func, help_text in (
        ("convergence", cmd_convergence, "Monte Carlo error sweep with CSV/JSON reports"),
        ("identify", cmd_identify, "per-order coefficient estimates"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--paths", type=int, default=None, help="override path count")
        p.add_argument("--mesh", type=int, default=None, help="override grid cells m")
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a user mistake
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
