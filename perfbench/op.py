"""One benchmark operation, run in a fresh process by ``run.py``.

Usage: ``python3 op.py <spec.json> <spawn_time>``, where ``spawn_time`` is
the parent's ``CLOCK_MONOTONIC`` reading just before it started this
process. The spec names the ``sfc-lab`` argument list, the config file it
reads, an optional remainder-decomposition check, whether to trace, and
where to write the result JSON.

``setup_s`` runs from the spawn until ``sfc_lab.cli`` is imported and the
arguments and config are parsed. ``wall_s`` times ``sfc_lab.cli.main`` plus
the decomposition check. ``peak_rss_mb`` is this process's ``ru_maxrss``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

# Layers of sfc_lab whose public functions the traced run wraps.
SPAN_TARGETS = [
    "cli.main",
    "cli.run_identify",
    "experiment.run_convergence",
    "brownian.substream",
    "brownian.sample_path",
    "brownian.wiener_integral",
    "catalog.block_functionals",
    "catalog.block_true_fourier_a",
    "catalog.eval_functionals",
    "catalog.exact_diffusion_sfc",
    "catalog.dsfc_partials",
    "catalog.diffusion_array",
    "catalog.drift_array",
    "catalog.true_fourier_a",
    "sfc.sfc_range",
    "sfc.wiener_sfc_range",
    "sfc.sfc_dx",
    "bohr.identify_a",
    "bohr.bohr_product",
    "bohr.recover_b",
    "bohr.synthesize",
    "bohr.remainder_terms",
    "bohr.iterated_divergence_term",
    "malliavin.lemma_fdelta_residual",
    "malliavin.prop1_residual",
    "malliavin.prop2_residual",
    "malliavin.discrete_divergence",
    "malliavin.divergence_with_partials",
    "malliavin.pairing",
    "grid.eval_basis",
    "grid.kernel_difference_table",
]


def _nbytes(obj) -> int:
    return int(getattr(obj, "nbytes", 0) or 0)


def _coefficients(args, kwargs, result):
    values = getattr(result, "values", result)
    return {"sfc.coefficients": int(getattr(values, "size", 1))}


def _table_bytes(args, kwargs, result):
    return {"catalog.table_bytes": _nbytes(getattr(result, "partials", None))}


def _divergence_input_bytes(args, kwargs, result):
    u = args[0] if args else kwargs.get("u")
    size = _nbytes(getattr(u, "values", None)) + _nbytes(getattr(u, "partials", None))
    return {"malliavin.divergence_input_bytes": size}


def _kernel_table_bytes(args, kwargs, result):
    return {"grid.kernel_table_bytes": _nbytes(result)}


COUNTERS = {
    "sfc.sfc_range": _coefficients,
    "sfc.wiener_sfc_range": _coefficients,
    "sfc.sfc_dx": _coefficients,
    "catalog.diffusion_array": _table_bytes,
    "catalog.drift_array": _table_bytes,
    "malliavin.discrete_divergence": _divergence_input_bytes,
    "malliavin.divergence_with_partials": _divergence_input_bytes,
    "grid.kernel_difference_table": _kernel_table_bytes,
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def decomposition_gap(check: dict) -> float:
    """Largest |remainder_terms.double_wiener - iterated_divergence_term|.

    ``remainder_terms`` stores the double Wiener integral as the residual of
    the decomposition, so this gap is the defect of the four-term identity
    against a direct evaluation of that integral.
    """
    from sfc_lab.bohr import iterated_divergence_term, remainder_terms
    from sfc_lab.brownian import SeedSpec, sample_path
    from sfc_lab.catalog import cosine, eval_functionals, make_process
    from sfc_lab.grid import TimeGrid

    grid = TimeGrid(check["m"])
    spec = make_process(check["kind"], {"g": cosine(), "drift": check["drift"]})
    worst = 0.0
    for idx in range(check["paths"]):
        path = sample_path(SeedSpec(check["seed"], idx), grid)
        pf = eval_functionals(spec, path)
        for n in check["orders"]:
            residual = remainder_terms(pf, n, check["N"]).double_wiener
            worst = max(worst, abs(residual - iterated_divergence_term(pf, n, check["N"])))
    return worst


def _setup(spec: dict):
    import sfc_lab.cli as cli

    cli.build_parser().parse_args(spec["argv"])
    if spec.get("config"):
        data = json.loads(Path(spec["config"]).read_text(encoding="utf-8"))
        parse = getattr(sys.modules.get("sfc_lab.experiment"), "config_from_jsonable", None)
        if parse is not None:
            parse(data)
    return cli


def _run(spec: dict, cli) -> dict:
    out: dict = {}
    status = cli.main(list(spec["argv"]))
    out["status"] = int(status)
    if spec.get("decomposition"):
        out["gap"] = decomposition_gap(spec["decomposition"])
    return out


def main(spec_path: str, spawn_time: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result: dict = {}
    try:
        cli = _setup(spec)
        result["setup_s"] = _now() - spawn_time
        src = Path(spec["src"]).resolve()
        if src not in Path(cli.__file__).resolve().parents:
            raise RuntimeError(f"sfc_lab imported from {cli.__file__}, not from {src}")
        if not spec.get("probe"):
            tracer = Tracer("sfc_lab", SPAN_TARGETS, COUNTERS) if spec.get("trace") else None
            with tracer or contextlib.nullcontext():  # wrapping happens before the clock starts
                usage0 = resource.getrusage(resource.RUSAGE_SELF)
                start = time.perf_counter()
                result.update(_run(spec, cli))
                result["wall_s"] = time.perf_counter() - start
                usage1 = resource.getrusage(resource.RUSAGE_SELF)
            result["cpu_s"] = (usage1.ru_utime - usage0.ru_utime) + (
                usage1.ru_stime - usage0.ru_stime
            )
            if tracer is not None:
                result["trace"] = {
                    "spans": {
                        name: {"calls": s.calls, "self_s": s.self_s}
                        for name, s in tracer.stats.items()
                    },
                    "counts": tracer.counts,
                    "absent": tracer.absent,
                    "top_level_s": tracer.top_level_s,
                }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:  # reported to the parent, which counts the operation as failed
        result["error"] = traceback.format_exc()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
