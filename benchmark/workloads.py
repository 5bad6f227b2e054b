"""The benchmark workloads: inputs from the seed, setup, tasks and oracles.

A workload object is built from the seed alone.  ``setup`` imports ptdiff
and does everything a fresh process needs before the first task: corpus
load, cold kernel builds into the (empty) kernel cache, dictionaries, and
the generated input files.  ``tasks`` is the fixed task list of one pass;
each task returns a result that must compare equal across passes, and
``check`` holds it against the task's oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # error message, or None when it passes


def _read_report(out: Path, name: str) -> dict:
    """The JSON report a CLI call wrote, without its path-valued fields."""
    payload = json.loads((out / f"{name}.json").read_text())
    payload.get("configuration", {}).pop("field", None)
    return payload


def _exit_ok(result):
    return None if result["exit"] == 0 else f"exit code {result['exit']}"


class Corpus1D:
    """CLI replay of annotated 1-D corpus claims, in process via cli.main."""

    name = "corpus-1d"
    SPEED_PROBE = "interpreter"  # speedprobe.py: per-atom Python loops dominate
    KERNELS = ((1, 2), (1, 3), (1, 4))  # degrees the CLI tasks below load

    def __init__(self, seed: int, work: Path):
        self.out = work / "reports"
        d = f"12,{seed}"  # 11 deterministic 1-D families, so one seeded member
        grid = ["--grid", "1.0,10", "--dict", d]
        self.argvs = [
            (["classify", "--item", "heaviside", "--point", "0", "--k", "0"] + grid,
             "classify_heaviside"),
            (["classify", "--item", "delta0", "--point", "0.7", "--k", "2"] + grid,
             "classify_delta0"),
            (["jet", "--item", "exp", "--point", "0", "--k", "3"], "jet_exp"),
            (["poincare", "--item", "sin4", "--point", "0", "--k", "1"], "poincare_sin4"),
        ]

    def setup(self):
        from ptdiff import build_kernel, load_corpus
        load_corpus()
        for n, k in self.KERNELS:
            build_kernel(n, k)
        self.out.mkdir(parents=True, exist_ok=True)

    def tasks(self):
        from ptdiff import cli

        def make(argv, report):
            def run():
                code = cli.main(argv + ["--out", str(self.out)])
                return {"exit": code, "report": _read_report(self.out, report)}
            return Task(" ".join(argv), run, _exit_ok)

        return [make(argv, report) for argv, report in self.argvs]


def _gauss_jet(a, k):
    """Closed-form derivatives of exp(-|x|^2) at a, up to order k."""
    x, y = a
    g = math.exp(-x * x - y * y)
    hx, hy = -2.0 * x, -2.0 * y
    coeffs = {(0, 0): g, (1, 0): hx * g, (0, 1): hy * g,
              (2, 0): (hx * hx - 2.0) * g, (1, 1): hx * hy * g,
              (0, 2): (hy * hy - 2.0) * g}
    return {e: v for e, v in coeffs.items() if sum(e) <= k}


def _gl_grid(cells: int, order: int):
    """Composite Gauss-Legendre nodes and weights on [-1, 1]^2."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-1.0, 1.0, cells + 1)
    h = edges[1] - edges[0]
    nodes = (edges[:-1, None] + (x[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(w * h / 2.0, cells)
    X, Y = np.meshgrid(nodes, nodes, indexing="ij")
    W = np.outer(weights, weights)
    return np.stack([X.ravel(), Y.ravel()], axis=1), W.ravel()


def reference_scaled_pairing(atoms, a, r, k, cells):
    """r^{-k} int (f - P)(a + r u) phi(u) du, P the order-k jet, by a fixed rule.

    Independent of ptdiff's quadrature and bump evaluation: phi is the sum
    of the probe's bump atoms coeff * exp(1 / (|v|^2 - 1)), v = (u - c)/rho,
    and f - P is formed pointwise from the closed-form jet.
    """
    u, w = _gl_grid(cells, 8)
    x = a[None, :] + r * u
    f = np.exp(-np.sum(x ** 2, axis=1))
    h = x - a[None, :]
    p = np.zeros(len(u))
    for (e1, e2), c in _gauss_jet(a, k).items():
        p += c * h[:, 0] ** e1 * h[:, 1] ** e2 / (math.factorial(e1) * math.factorial(e2))
    phi = np.zeros(len(u))
    for center, radius, coeff in atoms:
        s = np.sum(((u - np.asarray(center)[None, :]) / radius) ** 2, axis=1)
        inside = s < 1.0 - 1e-12
        phi[inside] += coeff * np.exp(1.0 / (s[inside] - 1.0))
    return r ** (-k) * float(np.sum(w * (f - p) * phi))


class Pairing2D:
    """2-D library calls on gauss2d at a seeded point a in [-0.5, 0.5]^2."""

    name = "pairing-2d"
    # numpy over 2-D quadrature batches of thousands of points dominates;
    # its speed follows the host's swings less than interpreted code does
    SPEED_PROBE = "batch"
    JET_K = 1
    JET_LEVELS = 6
    CLASSIFY_LEVELS = 5
    CLASSIFY_PROBES = 6
    PLATEAU_QUAD = dict(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 7)
    JET_TOL = 1e-6
    PLATEAU_R = 0.5

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.a = rng.uniform(-0.5, 0.5, size=2)

    def setup(self):
        from ptdiff import (ProbeDictionary, build_kernel, get_item,
                            make_dictionary)
        self.T = get_item("gauss2d").build()
        self.kernel = build_kernel(2, self.JET_K + 1)
        members = make_dictionary(2, 1, 0, 15, 0).members
        single = tuple(m for m in members if len(m.atoms) == 1)[:self.CLASSIFY_PROBES]
        self.probes = ProbeDictionary(2, 1, 0, len(single), 0, single)
        self.plateau = next(m for m in members if m.label == "plateau_w0.2")

    def tasks(self):
        from ptdiff import (ClassifierConfig, JetConfig, PolyJet, QuadratureConfig,
                            classify, estimate_jet, scaled_pairing)
        a = self.a

        def jet_exact(k):
            return PolyJet.from_coeff_map(2, a, _gauss_jet(a, k))

        def run_jet():
            est = estimate_jet(self.T, a, self.JET_K, kernel=self.kernel,
                               config=JetConfig(levels=self.JET_LEVELS))
            return {e: float(v[0]) for e, v in est.jet.coeff_map().items()}

        def check_jet(got):
            want = _gauss_jet(a, self.JET_K)
            err = max(abs(got[e] - v) for e, v in want.items())
            return None if err <= self.JET_TOL else f"jet error {err:.3e}"

        def run_classify():
            rep = classify(self.T, a, 1, probes=self.probes, jet=jet_exact(1),
                           config=ClassifierConfig(levels=self.CLASSIFY_LEVELS))
            return {"verdict": rep.verdict, "beta_hat": rep.beta_hat,
                    "envelope": list(rep.envelope)}

        def check_classify(got):
            return None if got["verdict"] == "confirmed" else f"verdict {got['verdict']}"

        def run_plateau():
            res = scaled_pairing(self.T, jet_exact(2), a, 2, self.plateau,
                                 self.PLATEAU_R, QuadratureConfig(**self.PLATEAU_QUAD),
                                 strict=False)
            return {"value": res.value, "bound": res.abs_error_bound,
                    "cells": res.quadrature_cells}

        atoms = [(t.center, t.radius, t.coeff[0]) for t in self.plateau.atoms]
        ref = {}

        def check_plateau(got):
            if not ref:  # computed once, outside every timed pass
                fine = reference_scaled_pairing(atoms, a, self.PLATEAU_R, 2, 48)
                coarse = reference_scaled_pairing(atoms, a, self.PLATEAU_R, 2, 24)
                ref.update(value=fine, bound=abs(fine - coarse))
            gap = abs(got["value"] - ref["value"])
            if gap <= got["bound"] + ref["bound"]:
                return None
            return (f"plateau pairing {got['value']:.12g} vs reference "
                    f"{ref['value']:.12g}: gap {gap:.3e} above bounds "
                    f"{got['bound']:.3e} + {ref['bound']:.3e}")

        return [Task("estimate_jet", run_jet, check_jet),
                Task("classify single-atom probes", run_classify, check_classify),
                Task("scaled_pairing plateau_w0.2", run_plateau, check_plateau)]


def _jittered_grid(rng, count):
    return (np.arange(count) + 0.5 + rng.uniform(-0.25, 0.25, size=count)) / count


class Whitney1D:
    """ptdiff whitney on a seeded sine jet field, in process via cli.main."""

    name = "whitney-1d"
    SPEED_PROBE = "interpreter"  # per-center Python loops and one-point core_eval calls
    POINTS = 40
    OFF_DATA = 20
    PAIRS = 100

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        # one point in the middle half of each grid cell: the partition's
        # size follows the gaps between points, and free uniform draws
        # would make the work per pass depend on the seed
        self.points = _jittered_grid(rng, self.POINTS)
        self.queries = np.concatenate([self.points, _jittered_grid(rng, self.OFF_DATA)])
        self.field = work / "field.json"
        self.out = work / "reports"

    def setup(self):
        import ptdiff  # noqa: F401  (import time is part of setup)
        doc = {"degree": 2, "alpha": 1.0,
               "points": [[float(p)] for p in self.points],
               "jets": [{"coeffs": {"0": math.sin(p), "1": math.cos(p),
                                    "2": -math.sin(p)}} for p in self.points]}
        self.field.write_text(json.dumps(doc))
        self.out.mkdir(parents=True, exist_ok=True)

    def tasks(self):
        from ptdiff import cli
        argv = ["whitney", "--field", str(self.field),
                "--query", ";".join(repr(float(q)) for q in self.queries),
                "--hoelder-pairs", str(self.PAIRS), "--out", str(self.out)]

        def run():
            code = cli.main(argv)
            with open(self.out / "whitney_extension.csv", newline="") as fh:
                rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
            return {"exit": code, "report": _read_report(self.out, "whitney"),
                    "rows": rows}

        def check(got):
            if got["exit"] != 0:
                return f"exit code {got['exit']}"
            worst = 0.0
            for p, row in zip(self.points, got["rows"]):
                want = (math.sin(p), math.cos(p), -math.sin(p))
                worst = max(worst, max(abs(g - w) for g, w in zip(row, want)))
            if worst > 1e-8:
                return f"interpolation defect {worst:.3e} above 1e-8"
            c_impl = got["report"]["C_impl"]
            if not (c_impl is not None and math.isfinite(c_impl) and c_impl > 0):
                return f"C_impl {c_impl!r} is not finite and positive"
            return None

        return [Task("whitney extend+eval+hoelder", run, check)]


WORKLOADS = {w.name: w for w in (Corpus1D, Pairing2D, Whitney1D)}
