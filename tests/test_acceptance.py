"""End-to-end acceptance battery: one pass/fail line per criterion.

Each test exercises one headline capability of the toolkit against frozen
closed-form oracles and prints a single [PASS]/[FAIL] line via report_line.
The ninth line, the invariant battery, is computed by conftest.py at the
end of the session from the outcomes of the module suites.
"""

import math
import re
import time

import numpy as np
import pytest
from conftest import report_line

from ptdiff import (ClassifierConfig, HalfSpace, JetConfig, JetField,
                    MultiIndex, PolyJet, QuadratureConfig, analytic_kappa,
                    build_jet, check_derivative_transfer, classify,
                    empirical_hoelder, estimate_jet, extend,
                    function_distribution, localization_check, make_point_set,
                    measure_kappa, partition_of_unity, rho, verify,
                    verify_reproduction, xi_set, zero_index)

QUAD = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-13, max_cells=2 ** 12)

CLS = ClassifierConfig(
    levels=10, dict_size=8, seed=0,
    quad=QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 11),
    jet_config=JetConfig(levels=8))

ANALYTIC_ITEMS = ("exp", "exp_neg", "sq", "cubic", "sin4", "cos4")


def test_jet_recovery_exp(kernel_cache):
    """estimate_jet on exp at 0, order 3: all four coefficients equal 1."""
    t0 = time.time()
    T = function_distribution(1, "exp(x1)")
    est = estimate_jet(T, [0.0], 3, kernel=kernel_cache(1, 5),
                       config=JetConfig(levels=10))
    cm = est.jet.coeff_map()
    errs = [abs(cm[(m,)][0] - 1.0) for m in range(4)]
    elapsed = time.time() - t0
    ok = max(errs) <= 1e-6 and elapsed <= 30.0
    report_line("jet recovery exp order 3", ok,
                f"max coeff err {max(errs):.2e}, {elapsed:.1f}s")
    assert ok


def test_polynomial_exactness(corpus, kernel_cache):
    """Kernel-convolution jets reproduce degree <= k-1 polynomials exactly."""
    radii = [2.0 ** (-j) for j in range(8)]
    # vanishing high-order coefficients integrate to ~0; a 1e-9 absolute
    # floor keeps the adaptive refinement from chasing pure roundoff while
    # staying an order of magnitude inside the 1e-8 exactness gate
    quad = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-9, max_cells=2 ** 13)
    worst = 0.0
    for deg in range(5):
        item = corpus[f"poly_deg{deg}"]
        T = item.build()
        expected = {(int(e),): v for e, v in item.atoms[0]["coeffs"].items()}
        k = deg + 1
        kernel = kernel_cache(1, max(k, 2))
        for r in radii:
            jet = build_jet(T, [0.0], k, kernel, r, quad)
            for xi, vals in jet.coeff_map().items():
                err = abs(vals[0] - expected.get(xi, 0.0))
                worst = max(worst, err)
    ok = worst <= 1e-8
    report_line("polynomial jet exactness", ok,
                f"worst defect {worst:.2e} over 5 items x 8 radii")
    assert ok


def _odd_in_x1(label: str) -> bool:
    """Whether a 2-D probe is bump * u1^p u2^q with p odd, so odd in x1."""
    m = re.fullmatch(r"bump\*x\^\((\d+), (\d+)\)", label)
    return m is not None and int(m.group(1)) % 2 == 1


def test_classification_table(corpus):
    """All annotated verdicts on the closed-form corpus are reproduced."""
    failures = []
    claims = 0
    osc_order2 = None  # the report of the claim osc at 0, k = 2
    for iid in ("heaviside", "abs_sqrt", "osc", "delta0", "radial_root2d", "step2d",
                "delta2d", "layer2d", "gauss2d"):
        item = corpus[iid]
        T = item.build()
        for c in item.classification_claims:
            rep = classify(T, list(c.point), c.k, alpha=c.alpha, config=CLS)
            claims += 1
            if iid == "osc" and c.point == (0.0,) and c.k == 2 and c.alpha is None:
                osc_order2 = rep
            if rep.verdict != c.verdict:
                failures.append(f"{iid} k={c.k} alpha={c.alpha}: "
                                f"{rep.verdict} != {c.verdict}")
                continue
            if iid == "heaviside" and c.k == 0:
                one_sided = [w for w in rep.witnesses if "half_axis" in w]
                if len(rep.witnesses) < 2 or not one_sided:
                    failures.append("heaviside k=0 witness certificate")
            if iid in ("abs_sqrt", "radial_root2d") and c.k == 0 and c.alpha is None:
                if not (abs(rep.beta_hat - 0.5) <= 0.05):
                    failures.append(f"{iid} beta_hat {rep.beta_hat}")
            if iid == "step2d" and c.k == 0 and not any(map(_odd_in_x1, rep.witnesses)):
                failures.append(f"step2d k=0 witnesses {rep.witnesses}")
            if iid == "delta0" and c.point == (0.7,):
                dust = max((abs(v[0]) for v in rep.jet.coeff_map().values()),
                           default=0.0)
                if dust > 1e-8:
                    failures.append(f"delta0 at 0.7 nonzero jet {dust:.1e}")
    # the order-2 second differential of x^2 sin(1/x) vanishes
    if osc_order2 is None:
        failures.append("osc k=2 claim at 0 missing")
    else:
        d2 = abs(osc_order2.jet.coeff_map().get((2,), [0.0])[0])
        if osc_order2.verdict != "confirmed" or d2 > 1e-6:
            failures.append(f"osc second differential {d2:.1e}")
    ok = not failures
    report_line("classification table", ok,
                f"{claims} annotated claims" if ok else "; ".join(failures))
    assert ok, failures


def test_poincare_matrix(kernel_cache, dict_cache):
    """Certified ratio <= 1 on the analytic-kappa items, plus sharpness."""
    t0 = time.time()
    failures = []
    worst_ratio = 0.0
    for iid in ANALYTIC_ITEMS:
        item_exprs = {"exp": "exp(x1)", "exp_neg": "exp(-x1)", "sq": "x1^2",
                      "cubic": "x1^3+2*x1", "sin4": "sin(x1/4)",
                      "cos4": "cos(x1/4)"}
        T = function_distribution(1, item_exprs[iid])
        for k in (1, 2, 3):
            for i in (0, 1):
                K = ([0.0], 1.0 + k)
                kap = analytic_kappa(iid, k, i, K)
                rep = verify(T, k, i, [0.0], kernel_cache(1, max(k, 2)),
                             dict_cache(1, 1, i, 6, 0), C=([0.0], 1.0),
                             r=1.0, kappa=kap, config=QUAD)
                if kap == 0.0:
                    # both sides vanish analytically; only roundoff remains
                    num = max(row.numerator for row in rep.rows)
                    if num > 1e-8:
                        failures.append(f"{iid} k={k} i={i} numerator {num:.1e}")
                    continue
                worst_ratio = max(worst_ratio, rep.max_ratio)
                if rep.max_ratio > 1.0:
                    failures.append(f"{iid} k={k} i={i} ratio {rep.max_ratio:.3f}")
    # sharpness of the dictionary estimate against the analytic constant
    big = dict_cache(1, 1, 0, 64, 0)
    for iid in ANALYTIC_ITEMS:
        item_exprs = {"exp": "exp(x1)", "exp_neg": "exp(-x1)", "sq": "x1^2",
                      "cubic": "x1^3+2*x1", "sin4": "sin(x1/4)",
                      "cos4": "cos(x1/4)"}
        T = function_distribution(1, item_exprs[iid])
        best = 0.0
        for k in (1, 2, 3):
            K = ([0.0], 1.0 + k)
            kap = analytic_kappa(iid, k, 0, K)
            if kap == 0.0:
                continue
            est = measure_kappa(T, k, 0, big, K, QUAD)
            best = max(best, est.value / kap)
            if best >= 0.85:
                break
        if best < 0.8:
            failures.append(f"{iid} sharpness {best:.3f}")
    elapsed = time.time() - t0
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.0f}s")
    ok = not failures
    report_line("poincare certification matrix", ok,
                f"worst ratio {worst_ratio:.3f}, {elapsed:.0f}s"
                if ok else "; ".join(failures))
    assert ok, failures


def test_derivative_transfer(corpus, kernel_cache):
    """Order transfer to derivatives is consistent wherever classifiable."""
    cases = [("exp", [0.0], 1, 1), ("sq", [0.0], 1, 1), ("cubic", [0.0], 2, 1),
             ("heaviside", [0.7], 1, 1), ("delta0", [0.7], 1, 2),
             ("poly_deg2", [0.0], 1, 1), ("poly_deg3", [0.0], 1, 2)]
    failures = []
    for iid, a, k, l in cases:
        rep = check_derivative_transfer(corpus[iid].build(), a, k, l=l,
                                        kernel=kernel_cache(1, 4), config=CLS)
        if rep.status != "consistent" or rep.max_jet_deviation > 1e-5:
            failures.append(f"{iid}: {rep.status} dev={rep.max_jet_deviation:.1e}")
    ok = not failures
    report_line("derivative transfer", ok,
                f"{len(cases)} cases consistent" if ok else "; ".join(failures))
    assert ok, failures


def test_moment_kernels(kernel_cache):
    """Residuals <= 1e-10 for n <= 2, k <= 5; reproduction on 20 probes."""
    worst_res = 0.0
    for n in (1, 2):
        for k in range(1, 6):
            kernel = kernel_cache(n, k)
            worst_res = max(worst_res, max(kernel.moment_residuals.values()))
    rng = np.random.default_rng(7)
    worst_rep = 0.0
    count = 0
    while count < 20:
        n = 1 if count % 2 == 0 else 2
        k = 2 + count % 4
        deg = int(rng.integers(0, k))
        cm = {xi.entries: float(rng.uniform(-1.0, 1.0))
              for m in range(deg + 1) for xi in xi_set(n, m)}
        Q = PolyJet.from_coeff_map(n, [0.0] * n, cm)
        x = rng.uniform(-0.5, 0.5, size=n)
        r = float(rng.uniform(0.05, 0.5))
        worst_rep = max(worst_rep, verify_reproduction(kernel_cache(n, k), Q,
                                                       x, r, QUAD))
        count += 1
    ok = worst_res <= 1e-10 and worst_rep <= 1e-8
    report_line("moment kernels", ok,
                f"residual {worst_res:.1e}, reproduction {worst_rep:.1e}")
    assert ok


def test_whitney_extension(dict_cache):
    """Consistency functional, partition properties, 50-point interpolation."""
    failures = []
    # hand-computed consistency values on three example fields
    pts = (0.0, 0.3, 0.8)
    Q = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): -2.0, (2,): 4.0})
    F1 = JetField(tuple((p,) for p in pts),
                  tuple(Q.recenter([p]) for p in pts), 2, 1.0)
    if rho(F1, 2.0) > 1e-10:
        failures.append("global polynomial rho")
    F2 = JetField(((0.0,), (1.0,)),
                  (PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0}),
                   PolyJet.from_coeff_map(1, [1.0], {(0,): 2.0})), 0, 1.0)
    if not math.isclose(rho(F2, 1.0), 2.0, rel_tol=1e-12):
        failures.append("two-point rho")
    eps, delta = 0.3, 0.01
    F3 = JetField(((0.0,), (delta,)),
                  (PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0}),
                   PolyJet.from_coeff_map(1, [delta], {(0,): eps, (1,): 0.0})),
                  1, 1.0)
    if not math.isclose(rho(F3, delta), eps / delta, rel_tol=1e-12):
        failures.append("constant-jet rho")
    # partition of unity around a point set at 10^3 probes
    A = make_point_set([[0.0]])
    part = partition_of_unity(A, ([0.0], 1.0))
    rng = np.random.default_rng(11)
    xs = rng.uniform(-0.95, 0.95, size=1000)
    xs = xs[np.abs(xs) > 20.0 * part.h_floor]
    rows, ci, D = part.weight_jets(xs[:, None], 0, part.h(xs[:, None]))
    z = D[zero_index(1)]
    sums = np.bincount(rows, weights=z, minlength=len(xs))
    if np.any(np.abs(sums - 1.0) > 1e-10):
        failures.append(f"partition sum at {xs[np.argmax(np.abs(sums - 1.0))]:.3f}")
    rows, ci = rows[z > 0], ci[z > 0]
    bad = (np.abs(xs[rows] - part.centers[ci, 0]) > 10 * part.radii[ci]) | (
        part.h(xs[:, None])[rows] < part.radii[ci] / 3.0 - 1e-12)
    if bad.any():
        failures.append(f"support/h bound at {xs[rows[np.argmax(bad)]]:.3f}")
    # 50-point sin jet field: the extension interpolates every jet
    pts50 = np.sort(rng.uniform(0.0, 1.0, size=50))
    jets = []
    for p in pts50:
        cycle = [math.sin(p), math.cos(p), -math.sin(p), -math.cos(p)]
        jets.append(PolyJet.from_coeff_map(1, [p],
                                           {(m,): cycle[m] for m in range(3)}))
    F = JetField(tuple((p,) for p in pts50), tuple(jets), 2, 1.0)
    ext = extend(F)
    worst_interp = 0.0
    for p in pts50:
        cycle = [math.sin(p), math.cos(p), -math.sin(p), -math.cos(p)]
        for m in range(3):
            got = ext.eval([p], MultiIndex((m,)))[0]
            worst_interp = max(worst_interp, abs(got - cycle[m]))
    if worst_interp > 1e-8:
        failures.append(f"interpolation {worst_interp:.1e}")
    semi, c_impl = empirical_hoelder(ext, pair_count=10 ** 4)
    if not (math.isfinite(c_impl) and semi >= 0.0):
        failures.append("empirical hoelder")
    ok = not failures
    report_line("whitney extension", ok,
                f"interp {worst_interp:.1e}, C_impl {c_impl:.3g}"
                if ok else "; ".join(failures))
    assert ok, failures


def test_localization(dict_cache):
    """Localized pairing bound certified on 5 analytic configurations."""
    A = HalfSpace(0, 0.0, "le")
    part = partition_of_unity(A, ([0.0], 3.0))
    T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
    probes0 = dict_cache(1, 1, 0, 6, 0)
    failures = []
    # (label, T, A, partition, r, i, lambda, kappa, probes)
    configs = [
        ("halfspace r=1", T, A, part, 1.0, 0, 0.0, 2.0, probes0),
        ("halfspace r=0.5", T, A, part, 0.5, 0, 0.0, 2.0, probes0),
        ("lambda=1", T, A, part, 1.0, 0, 1.0, 4.0 / 3.0, probes0),
        ("i=1 seminorm", T, A, part, 1.0, 1, 0.0, 4.0, dict_cache(1, 1, 1, 6, 0)),
        ("point set", T, make_point_set([[0.0]]), None, 1.0, 0, 0.0, 2.0,
         probes0),
    ]
    worst = 0.0
    for label, Tc, Ac, pc, r, i, lam, kap, probes in configs:
        rep = localization_check(Tc, Ac, [0.0], r, i, lam, kap, probes,
                                 partition=pc, config=QUAD)
        worst = max(worst, rep.max_ratio)
        if rep.max_ratio > 1.0:
            failures.append(f"{label} ratio {rep.max_ratio:.3f}")
    Tz = function_distribution(1, "0")
    rep = localization_check(Tz, A, [0.0], 1.0, 0, 0.0, 1.0, probes0,
                             partition=part, config=QUAD)
    if rep.max_ratio != 0.0:
        failures.append("zero distribution")
    ok = not failures
    report_line("localization bound", ok,
                f"worst ratio {worst:.3f} over 5 configs + zero"
                if ok else "; ".join(failures))
    assert ok, failures
