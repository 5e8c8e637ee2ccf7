"""Command-line front end.

Subcommands
-----------
kernel-check          evaluate the kernel norm identity on the grid
selftest              exact discrete identities and sampling sanity checks
verify-multiplication product-rule residuals over the whole process catalog
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
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .bohr import CLOSED_FORM
from .brownian import SeedSpec, sample_path
from .catalog import CATALOG_KINDS, DRIFT_DET, DRIFT_W1, make_process, spec_for
from .errors import ConfigError, NumericalFailureError
from .experiment import (
    ExperimentConfig,
    config_from_jsonable,
    config_hash,
    fit_decay,
    run_convergence,
    run_identify,
)
from .grid import TimeGrid, dirichlet_closed_form, dirichlet_kernel, eval_basis, kernel_l2_identity
from .malliavin import lemma_fdelta_residual, prop1_residual, prop2_residual, w1_functionals
from .sfc import wiener_sfc_range

DEFAULT_SEED = 20260819


def _load_config(path_str: str) -> dict:
    path = Path(path_str)
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
    return data


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        data["master_seed"] = args.seed
    if args.paths is not None:
        data["paths"] = args.paths
    if args.mesh is not None:
        data["m"] = args.mesh
    return data


def _write_artifacts(out: str, stem: str, result) -> None:
    """Write a result's ``<stem>.csv`` and ``<stem>.json`` into ``out``."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
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

    # sampling sanity: terminal variance and the discrete isometry
    paths = 400
    term = np.empty(paths)
    iso = np.empty(paths)
    for idx in range(paths):
        path = sample_path(SeedSpec(seed, 2000 + idx), grid)
        term[idx] = path.terminal
        iso[idx] = abs(wiener_sfc_range(path, 1).entry(1)) ** 2
    var = float(np.var(term, ddof=1))
    ok &= _check_line(0.85 <= var <= 1.15, "terminal variance", f"var={var:.4f}")
    iso_mean = float(np.mean(iso))
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
    """Integration by parts and both product rules over the catalog on the
    first ``paths`` paths, each sampled once; prints one line per check."""
    sampled = [sample_path(SeedSpec(seed, idx), grid) for idx in range(paths)]
    e = {n: eval_basis(n, grid.left_nodes) for n in (0, 1, -3)}
    worst = 0.0
    for path in sampled:
        for functional in w1_functionals(path).values():
            for n in (0, 1, -3):
                worst = max(worst, lemma_fdelta_residual(functional, e[n], path))
    ok = _check_line(worst <= 1e-10, "integration by parts", f"max_residual={worst:.3e}")
    g = {0: 0.5, 1: 0.5, -1: 0.5}  # 1/2 + cos(2 pi t); a zero mean makes prop 2 vacuous
    for kind in CATALOG_KINDS:
        plain = spec_for(kind)
        drifted = [spec_for(kind, {"g": g, "drift": d}) for d in (DRIFT_DET, DRIFT_W1)]
        worst1 = worst2 = 0.0
        for path in sampled:
            for n in (0, 1):
                worst1 = max(worst1, prop1_residual(plain, e[n], path))
                worst2 = max(worst2, *(prop2_residual(s, e[n], path) for s in drifted))
        for factor, worst in (("stochastic", worst1), ("drift", worst2)):
            line = f"{kind} {factor} product rule"
            ok &= _check_line(worst <= 1e-9, line, f"max_residual={worst:.3e}")
    return ok


def cmd_verify_multiplication(args: argparse.Namespace) -> int:
    if args.paths < 1:
        raise ConfigError(f"--paths must be >= 1, got {args.paths}")
    ok = _identity_checks(TimeGrid(args.m), args.seed, args.paths)
    print("verify-multiplication:", "all residuals in tolerance" if ok else "FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# convergence


def cmd_convergence(args: argparse.Namespace) -> int:
    data = _apply_overrides(_load_config(args.config), args)
    band = data.get("slope_band")
    band_orders = data.get("slope_band_orders", [0])
    if band is not None and not (
        isinstance(band, list) and len(band) == 2 and all(type(v) in (int, float) for v in band)
    ):
        raise ConfigError(f"slope_band must be a [low, high] pair of numbers, got {band!r}")
    if not isinstance(band_orders, list):
        raise ConfigError(f"slope_band_orders must be a list of orders, got {band_orders!r}")
    cfg = config_from_jsonable(data)
    result = run_convergence(cfg)
    _write_artifacts(args.out, "convergence", result)
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
    data = _apply_overrides(_load_config(args.config), args)
    mode = data.get("mode", CLOSED_FORM)
    cfg = config_from_jsonable(data)
    result = run_identify(cfg, mode)
    _write_artifacts(args.out, "identify", result)
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
