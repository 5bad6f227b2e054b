"""Metric definitions: names and units come from BENCHMARK.json at the root."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

# every wrapped name must record a call on the workloads whose metrics the
# layer is expected to move; a missed rebinding then fails instead of reading 0
REQUIRED_CALLS = {
    "corpus-1d": ("cli.main", "corpus.get_item", "cores.core_eval", "testfn.eval_deriv",
                  "testfn.make_dictionary", "testfn.seminorm", "quadrature.integrate_box",
                  "funcexpr.eval_expr", "distribution.pair", "jetestimator.classify",
                  "jetestimator.estimate_jet", "momentkernel.build_kernel",
                  "poincare.measure_kappa", "poincare.verify", "tensor.PolyJet"),
    "pairing-2d": ("corpus.get_item", "cores.core_eval", "testfn.eval_deriv",
                   "testfn.make_dictionary", "testfn.seminorm", "quadrature.integrate_box",
                   "funcexpr.eval_expr", "distribution.pair", "jetestimator.classify",
                   "jetestimator.estimate_jet", "momentkernel.build_kernel",
                   "tensor.PolyJet"),
    "whitney-1d": ("cli.main", "cores.core_eval", "whitney.extend",
                   "whitney.partition_of_unity", "whitney.eval", "whitney.empirical_hoelder",
                   "tensor.opnorm_bounds", "tensor.PolyJet"),
}

# layer spans whose times are printed for reading but are not BENCHMARK.json
# metrics: each is 0 on some workload, and a time that reads 0 on every run
# carries no measurement
PRINTED_TIMES = ("testfn.eval_deriv", "quadrature.integrate_box", "funcexpr.eval_expr",
                 "distribution.pair", "jetestimator.classify", "jetestimator.estimate_jet",
                 "momentkernel.build_kernel", "testfn.make_dictionary", "testfn.seminorm",
                 "corpus.get_item", "poincare.measure_kappa", "poincare.verify",
                 "whitney.extend", "whitney.partition_of_unity", "whitney.eval",
                 "whitney.empirical_hoelder", "tensor.opnorm_bounds", "cli.main")


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def end_to_end(samples, run):
    """setup_s and run_s are CPU times rescaled to the reference speed by
    the speed probes that ran alongside (see speedprobe.py): setup_s is the
    median over the processes, run_s the median over the passes."""
    setups = [s["setup_ref_s"] for s in samples]
    untraced = run["pass_ref_s"]
    values = {"setup_s": statistics.median(setups),
              "run_s": statistics.median(untraced),
              "peak_rss_mb": run["peak_rss_mb"]}
    units = _units("end_to_end")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _ratio(a, b):
    return a / b if b else 0.0


def _layer_values(run):
    tr = run["trace"]
    calls, self_s, total, counts = tr["calls"], tr["self"], tr["total"], tr["counts"]
    c = lambda name: calls.get(name, 0)  # noqa: E731
    n = lambda name: counts.get(name, 0)  # noqa: E731
    traced = [s for s, t, _ in run["passes"] if t]
    untraced = [s for s, t, _ in run["passes"] if not t]
    values = {
        "cores.core_eval.calls": c("cores.core_eval"),
        "cores.core_eval.points": n("cores.core_eval.points"),
        "cores.core_eval.points_per_call": _ratio(n("cores.core_eval.points"),
                                                  c("cores.core_eval")),
        "cores.core_eval.self_s": self_s.get("cores.core_eval", 0.0),
        "testfn.eval_deriv.calls": c("testfn.eval_deriv"),
        "testfn.eval_deriv.atom_evals": n("testfn.eval_deriv.atom_evals"),
        "quadrature.integrate_box.calls": c("quadrature.integrate_box"),
        "quadrature.integrate_box.cells": n("quadrature.integrate_box.cells"),
        "quadrature.integrate_box.integrand_points":
            n("quadrature.integrate_box.integrand_points"),
        "quadrature.integrate_box.unresolved_share":
            _ratio(n("quadrature.integrate_box.unresolved"), c("quadrature.integrate_box")),
        "funcexpr.eval_expr.calls": c("funcexpr.eval_expr"),
        "funcexpr.eval_expr.points": n("funcexpr.eval_expr.points"),
        "distribution.pair.calls": n("distribution.pair.outer_calls"),
        "distribution.pair.cells_per_call": _ratio(n("distribution.pair.outer_cells"),
                                                   n("distribution.pair.outer_calls")),
        "jetestimator.classify.calls": c("jetestimator.classify"),
        "jetestimator.classify.pairs_per_call": _ratio(n("jetestimator.classify.pairs"),
                                                       c("jetestimator.classify")),
        "jetestimator.classify.usable_radii": n("jetestimator.classify.usable_radii"),
        "jetestimator.estimate_jet.calls": c("jetestimator.estimate_jet"),
        "momentkernel.build_kernel.calls": c("momentkernel.build_kernel"),
        "momentkernel.build_kernel.cold_builds": n("momentkernel.build_kernel.cold_builds"),
        "testfn.make_dictionary.calls": c("testfn.make_dictionary"),
        "testfn.seminorm.calls": c("testfn.seminorm"),
        "corpus.get_item.calls": c("corpus.get_item"),
        "poincare.measure_kappa.calls": c("poincare.measure_kappa"),
        "poincare.verify.calls": c("poincare.verify"),
        "whitney.extend.calls": c("whitney.extend"),
        "whitney.partition.centers": n("whitney.partition.centers"),
        "whitney.eval.calls": c("whitney.eval"),
        "whitney.empirical_hoelder.calls": c("whitney.empirical_hoelder"),
        "tensor.opnorm_bounds.calls": c("tensor.opnorm_bounds"),
        "tensor.PolyJet.ops": c("tensor.PolyJet"),
        "tensor.PolyJet.self_s": self_s.get("tensor.PolyJet", 0.0),
        "cli.main.calls": c("cli.main"),
        "trace.run_s": statistics.median(traced),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced)
                             if untraced else 0.0),
    }
    printed = [(f"{name}.self_s", self_s.get(name, 0.0), "s") for name in PRINTED_TIMES]
    printed += [(f"{name}.s", total.get(name, 0.0), "s") for name in PRINTED_TIMES]
    return values, printed


def per_layer(workload, run):
    """(metrics for BENCHMARK.json's per_layer list, printed table, problems)."""
    values, printed = _layer_values(run)
    units = _units("per_layer")
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a definition: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    table = [(name, m["value"], m["unit"]) for name, m in metrics.items()] + printed
    calls = run["trace"]["calls"]
    problems = [f"traced run recorded no call of {name}"
                for name in REQUIRED_CALLS[workload] if not calls.get(name)]
    if not any(not traced for _, traced, _ in run["passes"]):
        problems.append("traced run made no untraced pass, so no tracing overhead")
    return metrics, table, problems
