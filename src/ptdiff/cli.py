"""Batch front-end: classify / jet / transfer / poincare / whitney / suite.

Each invocation runs one command against a corpus item (or a jet-field
file for the whitney command), writes a replayable JSON run report plus
CSV attachments, and exits 0 when results agree with the shipped
ground-truth annotations, 1 on a mismatch, 2 when inconclusive, 3 on
input errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from .corpus import CorpusError, CorpusItem
from .distribution import Distribution
from .funcexpr import DomainError
from .jetestimator import (INCONCLUSIVE, MARGIN, ClassifierConfig, JetConfig,
                           check_derivative_transfer, classify, estimate_jet)
from .momentkernel import MAX_DEGREE, MAX_SUPNORM_ORDER, build_kernel
from .poincare import DivergentKappaError, verify
from .quadrature import QuadratureNonConvergence
from .tensor import MultiIndex, PolyJet
from .testfn import DEFAULT_MAX_DERIV_ORDER, ScaleError, make_dictionary
from .whitney import JetField, WhitneyGateError, empirical_hoelder, extend

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3

JET_TOL = 1e-6
MAX_ORDER = DEFAULT_MAX_DERIV_ORDER  # highest --k, --i and --l: the probes' bound


class InputError(ValueError):
    pass


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _parse_point(text: Optional[str], n: int) -> Tuple[float, ...]:
    if text is None:
        return (0.0,) * n
    try:
        coords = tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --point {text!r}") from exc
    if len(coords) != n:
        raise InputError(f"--point needs {n} coordinates, got {len(coords)}")
    if not all(np.isfinite(coords)):
        raise InputError(f"non-finite coordinate in {text!r}")
    return coords


def _typed(convert, ok, expected: str):
    """Parser type: convert(text) if ok(value); else an error naming expected."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _order(low: Optional[int]):  # parser type: an integer order in low..MAX_ORDER
    return _typed(int, lambda k: k <= MAX_ORDER and (low is None or k >= low),
                  "an integer " + ("" if low is None else f">= {low} and ")
                  + f"<= {MAX_ORDER}, the supported derivative order bound")


_GRID = _typed(lambda t: (float(t.split(",")[0]), *map(int, t.split(",")[1:])),
               lambda g: len(g) == 2 and 0 < g[0] < np.inf and g[1] >= 1,
               "r0,levels with r0 > 0 and an integer levels >= 1")
_ALPHA = _typed(float, np.isfinite, "a finite alpha")
_PAIRS = _typed(int, lambda v: v >= 0, "an integer >= 0")
_KAPPA = _typed(float, lambda v: 0 < v < np.inf, "a finite kappa_F > 0")
_DICT = _typed(lambda t: tuple(map(int, t.split(","))), lambda s: len(s) == 2 and s[0] >= 4
               and s[1] >= 0, "size,seed with an integer size >= 4 and seed >= 0")


def _classifier_config(args) -> ClassifierConfig:
    cfg = ClassifierConfig()
    if args.grid:
        cfg = replace(cfg, r0=args.grid[0], levels=args.grid[1])
    if args.dict:
        cfg = replace(cfg, dict_size=args.dict[0], seed=args.dict[1])
    return cfg


def _jet_config(args) -> JetConfig:
    cfg = JetConfig()
    if args.grid:
        cfg = replace(cfg, r0=args.grid[0], levels=args.grid[1])
    return cfg


def _load_item(args) -> CorpusItem:
    if not args.item:
        raise InputError("--item is required")
    directory = Path(args.corpus) if args.corpus else None
    try:
        return corpus_mod.get_item(args.item, directory)
    except (CorpusError, OSError) as exc:
        raise InputError(str(exc)) from exc


def _corpus_inputs(args) -> Tuple[CorpusItem, Distribution, Tuple[float, ...]]:
    """The item, its dimension, its distribution and the point of a corpus
    command, checked in that order, then --k: the first bad input names the error."""
    item = _load_item(args)
    if item.n not in (1, 2):
        raise InputError(f"item {item.id!r} has dimension {item.n}; "
                         "corpus commands take dimensions 1 and 2")
    T = item.build()
    point = _parse_point(args.point, item.n)
    if args.k is None:
        raise InputError("--k is required")
    return item, T, point


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path("reports")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, name: str, payload: dict) -> None:
    payload = dict(payload)
    payload["toolkit_version"] = __version__
    (out / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True))


def _jet_payload(jet: PolyJet) -> Dict[str, List[float]]:
    return {",".join(map(str, e)): [float(v) for v in np.atleast_1d(val)]
            for e, val in jet.coeff_map().items()}


def cmd_classify(args) -> int:
    item, T, point = _corpus_inputs(args)
    cfg = _classifier_config(args)
    rep = classify(T, point, args.k, alpha=args.alpha, i=args.i, config=cfg)
    out = _out_dir(args)
    csv_lines = ["r,E_envelope," + ",".join(
        f"probe_{m}" for m in range(len(rep.probe_labels)))]
    for r, env, _noise, vals in rep.rows():
        csv_lines.append(",".join([_fmt(r), _fmt(env)] + [_fmt(v) for v in vals]))
    csv_path = out / f"classify_{item.id}_decay.csv"
    csv_path.write_text("\n".join(csv_lines) + "\n")
    payload = {
        "command": "classify",
        "configuration": {"item": item.id, "point": list(point), "k": args.k,
                          "alpha": args.alpha, "i": args.i,
                          "grid": [cfg.r0, cfg.level_count(item.n)],
                          "dict": [cfg.dict_size, cfg.seed],
                          "margin": MARGIN},
        "verdict": rep.verdict,
        "caveat": rep.caveat,
        "beta_hat": rep.beta_hat,
        "witnesses": list(rep.witnesses),
        "probe_labels": list(rep.probe_labels),
        "jet": _jet_payload(rep.jet),
        "csv": csv_path.name,
        "note": ("claims are checked at finitely many sample points; "
                 "almost-everywhere statements are out of numerical reach"),
    }
    _write_report(out, f"classify_{item.id}", payload)
    if rep.verdict == INCONCLUSIVE:  # no verdict can contradict a claim
        return EXIT_INCONCLUSIVE
    claim = next((c for c in item.classification_claims
                  if c.point == point and c.k == args.k and c.alpha == args.alpha), None)
    return EXIT_MISMATCH if claim is not None and rep.verdict != claim.verdict else EXIT_OK


def cmd_jet(args) -> int:
    item, T, point = _corpus_inputs(args)
    cfg = _jet_config(args)
    est = estimate_jet(T, point, args.k, config=cfg)
    out = _out_dir(args)
    payload = {
        "command": "jet",
        "configuration": {"item": item.id, "point": list(point), "k": args.k,
                          "grid": [cfg.r0, cfg.level_count(item.n)]},
        "converged": est.converged,
        "jet": _jet_payload(est.jet),
    }
    _write_report(out, f"jet_{item.id}", payload)
    claim = next((j for j in item.jet_claims
                  if j.point == point and j.k == args.k), None)
    if claim is not None:
        for e, expected in claim.coeffs.items():
            got = est.jet.coefficient(MultiIndex(e))
            if np.max(np.abs(np.asarray(expected) - got)) > JET_TOL:
                return EXIT_MISMATCH if est.converged else EXIT_INCONCLUSIVE
        return EXIT_OK
    return EXIT_OK if est.converged else EXIT_INCONCLUSIVE


def cmd_transfer(args) -> int:
    item, T, point = _corpus_inputs(args)
    if args.k + args.l > MAX_ORDER:
        raise InputError(f"transfer needs --k + --l <= {MAX_ORDER}")
    cfg = _classifier_config(args)
    rep = check_derivative_transfer(T, point, args.k, l=args.l, config=cfg)
    out = _out_dir(args)
    payload = {
        "command": "transfer",
        "configuration": {"item": item.id, "point": list(point), "k": args.k, "l": args.l,
                          "grid": [cfg.r0, cfg.level_count(item.n)],
                          "dict": [cfg.dict_size, cfg.seed]},
        "status": rep.status,
        "full_verdict": rep.full_verdict,
        "derivative_verdicts": {",".join(map(str, e)): v
                                for e, v in rep.derivative_verdicts.items()},
        "max_jet_deviation": rep.max_jet_deviation,
    }
    _write_report(out, f"transfer_{item.id}", payload)
    if rep.status == "violation":
        return EXIT_MISMATCH
    return EXIT_OK if rep.status == "consistent" else EXIT_INCONCLUSIVE


def cmd_poincare(args) -> int:
    item, T, point = _corpus_inputs(args)
    i = args.i if args.i is not None else 0
    if i > MAX_SUPNORM_ORDER:
        raise InputError(f"poincare needs --i <= {MAX_SUPNORM_ORDER}, "
                         "the highest order of the kernel's sup norms")
    kernel = build_kernel(item.n, min(max(args.k, 2), MAX_DEGREE))
    dct = args.dict or (8, 0)
    probes = make_dictionary(item.n, item.d, i, dct[0], dct[1])
    kappa = None
    if corpus_mod.has_analytic_kappa(item.id):
        K = (point, 1.0 + args.k * 1.0)
        kappa = corpus_mod.analytic_kappa(item.id, args.k, i, K)
    try:
        rep = verify(T, args.k, i, point, kernel, probes, kappa=kappa)
    except DivergentKappaError as exc:
        print(f"poincare: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    out = _out_dir(args)
    csv_path = out / f"poincare_{item.id}_ratios.csv"
    csv_path.write_text("\n".join(rep.csv_lines()) + "\n")
    payload = {
        "command": "poincare",
        "configuration": {"item": item.id, "point": list(point), "k": args.k,
                          "i": i, "r": rep.r, "C": [list(rep.C[0]), rep.C[1]],
                          "dict": [dct[0], dct[1]]},
        "kappa": rep.kappa,
        "kappa_is_analytic": rep.kappa_is_analytic,
        "kappa_hat": rep.kappa_hat,
        "max_ratio": rep.max_ratio,
        "underestimation_flag": rep.underestimation_flag,
        "jet": _jet_payload(rep.jet),
        "csv": csv_path.name,
    }
    _write_report(out, f"poincare_{item.id}", payload)
    if rep.kappa_is_analytic:
        return EXIT_OK if rep.max_ratio <= 1.0 else EXIT_MISMATCH
    return EXIT_INCONCLUSIVE if rep.underestimation_flag else EXIT_OK


def _load_field(path: Path) -> JetField:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read jet field {path}: {exc}") from exc
    try:
        degree = int(doc["degree"])
        alpha = float(doc.get("alpha", 1.0))
        points = [tuple(map(float, p)) for p in doc["points"]]
        n = len(points[0]) if points else 1
        if len(doc["jets"]) != len(points):
            raise ValueError(f"{len(doc['jets'])} jets for {len(points)} points")
        jets = []
        for entry, p in zip(doc["jets"], points):
            coeffs = {tuple(map(int, key.split(","))): value
                      for key, value in entry["coeffs"].items()}
            jets.append(PolyJet.from_coeff_map(n, p, coeffs))
        return JetField(tuple(points), tuple(jets), degree, alpha)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed jet field document: {exc}") from exc


def cmd_whitney(args) -> int:
    if not args.field:
        raise InputError("--field <jet field json> is required")
    F = _load_field(Path(args.field))
    try:
        ext = extend(F, kappa_F=args.kappa_f)
    except WhitneyGateError as exc:
        raise InputError(f"jet field rejected: {exc}") from exc
    out = _out_dir(args)
    n = F.n if F.points else 1
    if args.query:
        queries = [_parse_point(q, n) for q in args.query.split(";")]
    else:
        arr = np.asarray(F.points, dtype=float) if F.points else np.zeros((1, n))
        lo, hi = arr.min(axis=0) - 0.5, arr.max(axis=0) + 0.5
        queries = [tuple(p) for p in np.linspace(lo, hi, 50)]
    orders = [MultiIndex((0,) * n)]
    for m in range(1, min(F.degree, 2) + 1):
        for ax in range(n):
            orders.append(MultiIndex(tuple(m if j == ax else 0 for j in range(n))))
    header = ["x"] + [f"D{''.join(map(str, o.entries))}g" for o in orders]
    lines = [",".join(header)]
    table = ext.eval(np.asarray(queries, dtype=float).reshape(-1, n), orders)[:, :, 0]
    for q, row in zip(queries, table):
        lines.append(",".join([";".join(_fmt(c) for c in q)] + [_fmt(v) for v in row]))
    csv_path = out / "whitney_extension.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    seminorm, c_impl = (None, None)
    if args.hoelder_pairs:
        seminorm, c_impl = empirical_hoelder(ext, pair_count=args.hoelder_pairs)
    payload = {
        "command": "whitney",
        "configuration": {"field": str(args.field), "degree": F.degree,
                          "alpha": F.alpha, "points": len(F.points)},
        "kappa_F": ext.kappa_F,
        "hoelder_seminorm": seminorm,
        "C_impl": c_impl,
        "csv": csv_path.name,
    }
    _write_report(out, "whitney", payload)
    return EXIT_OK


def cmd_suite(args) -> int:
    root = Path(__file__).resolve().parents[2]
    if args.name == "acceptance":
        target = root / "tests" / "test_acceptance.py"
    else:  # "invariants"; the parser allows no other name
        target = root / "tests"
    if not target.exists():
        raise InputError(f"suite path {target} not found")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", str(target)])
    return EXIT_OK if proc.returncode == 0 else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 3, input error, instead of 2, inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with exactly the options its cmd_* reads."""
    parser = _Parser(
        prog="ptdiff",
        description="numerical toolkit for pointwise differentiability of distributions")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--corpus": {"help": "directory of corpus documents"},
        "--item": {"help": "corpus item id"},
        "--point": {"help": "comma-separated coordinates"},
        "--alpha": {"type": _ALPHA},
        "--i": {"type": _order(0)},
        "--l": {"type": _order(0), "default": 0, "help": "jet order on the derivative side"},
        "--grid": {"type": _GRID, "help": "r0,levels"},
        "--dict": {"type": _DICT, "help": "size,seed"},
        "--field": {"help": "jet field JSON document"},
        "--query": {"help": "semicolon-separated query points"},
        "--kappa-f": {"type": _KAPPA, "dest": "kappa_f", "help": "compatibility gate constant"},
        "--hoelder-pairs": {"type": _PAIRS, "default": 0,
                            "help": "sample pairs for the empirical Hoelder measurement"},
        "--out": {"help": "report directory (default ./reports)"},
        "name": {"choices": ("acceptance", "invariants")},
    }
    commands = (  # name, function, help, lowest --k (None: any), options
        # negative orders are defined (delta_0 has order -2 on R)
        ("classify", cmd_classify, "order / (k, alpha) verdict at a point", None,
         "--corpus --item --point --k --alpha --i --grid --dict --out"),
        ("jet", cmd_jet, "estimate the order-k jet at a point", 0,
         "--corpus --item --point --k --grid --out"),
        ("transfer", cmd_transfer, "derivative order/jet consistency check", 1,
         "--corpus --item --point --k --l --grid --dict --out"),
        ("poincare", cmd_poincare, "negative-order inequality ratio table", 0,
         "--corpus --item --point --k --i --dict --out"),
        ("whitney", cmd_whitney, "extend a jet field and tabulate it", None,
         "--field --query --kappa-f --hoelder-pairs --out"),
        ("suite", cmd_suite, "run the acceptance or invariant battery", None, "name"))
    for name, fn, text, k_min, names in commands:
        p = sub.add_parser(name, help=text, allow_abbrev=False)  # --i never means --item
        p.set_defaults(fn=fn)
        spec = {**options, "--k": {"type": _order(k_min)}}
        for option in names.split():
            p.add_argument(option, **spec[option])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, CorpusError, DomainError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QuadratureNonConvergence as exc:
        print(f"inconclusive: quadrature did not converge: value {exc.value!r}, "
              f"bound {exc.error_bound!r}, cells {exc.cells}", file=sys.stderr)
        if "item" in args:  # a corpus command: its report's place, the arguments, the failure
            _write_report(_out_dir(args), f"{args.command}_{args.item}", {
                "command": args.command,
                "arguments": {k: v for k, v in vars(args).items() if v is not None
                              and k not in ("command", "fn", "out")},
                "nonconvergence": {"value": float(exc.value), "bound": float(exc.error_bound),
                                   "cells": int(exc.cells)}})
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
