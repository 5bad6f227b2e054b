"""Negative-order Poincare inequality: kappa measurement, constants, ratios."""

import math

import numpy as np
import pytest

from ptdiff import (DivergentKappaError, PolyJet, ProbeDictionary,
                    QuadratureNonConvergence, analytic_kappa, build_jet, delta_distribution,
                    derivative, function_distribution, gamma, has_analytic_kappa,
                    measure_kappa, pair, pair_many, polynomial_distribution, subtract_jet,
                    unit_ball_volume, verify, xi_set)
from ptdiff.jetestimator import kernel_pairings
from ptdiff.poincare import SHRINK_MEMBERS, SHRINK_STEPS, KappaEstimate, RatioRow
from ptdiff.quadrature import QuadratureConfig

QUAD = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-13, max_cells=2 ** 12)


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


class TestGamma:
    def test_forced_arithmetic(self):
        # m=0, k=1, n=1, i=0, r=1, diamC=1: (2s) * 3^2 = 18 s
        for s in (1.0, 0.37, 5.0):
            assert gamma(0, 1, 1, 0, 1.0, 1.0, sup_norm=s) == pytest.approx(
                18.0 * s, rel=1e-14)

    def test_single_factor_form(self):
        # m = k-1 leaves one product factor
        n, i, r, diam, s = 2, 1, 0.5, 2.0, 3.0
        for k in (1, 2, 3):
            expect = (n * unit_ball_volume(n) * s) * (2.0 * r + diam) ** (1 + n + i)
            assert gamma(k - 1, k, n, i, r, diam, sup_norm=s) == pytest.approx(
                expect, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma(1, 1, 1, 0, 1.0, 1.0, sup_norm=1.0)
        with pytest.raises(ValueError):
            gamma(-1, 1, 1, 0, 1.0, 1.0, sup_norm=1.0)

    def test_requires_kernel_or_supnorm(self):
        with pytest.raises(ValueError):
            gamma(0, 1, 1, 0, 1.0, 1.0)

    def test_monotone_in_arguments(self):
        rs = np.linspace(0.1, 2.0, 7)
        diams = np.linspace(0.5, 4.0, 7)
        sups = np.linspace(0.5, 8.0, 7)
        for k, m, n, i in ((1, 0, 1, 0), (3, 1, 2, 1)):
            v_r = [gamma(m, k, n, i, r, 1.0, sup_norm=1.0) for r in rs]
            v_d = [gamma(m, k, n, i, 1.0, d, sup_norm=1.0) for d in diams]
            v_s = [gamma(m, k, n, i, 1.0, 1.0, sup_norm=s) for s in sups]
            for seq in (v_r, v_d, v_s):
                assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


class TestMeasureKappa:
    def test_sine_dictionary_lower_bound(self, dict_cache):
        # kappa for k=1, i=0 on B(0,2) is the L1 norm of cos there
        T = function_distribution(1, "sin(x1)")
        exact = 4.0 - 2.0 * math.sin(2.0)
        est = measure_kappa(T, 1, 0, dict_cache(1, 1, 0, 64, 0), ([0.0], 2.0),
                            QUAD)
        assert not est.divergent
        assert 1.9 <= est.value <= exact * (1 + 1e-6)

    def test_heaviside_first_order_bounded(self, dict_cache):
        # D^1 heaviside = a point mass: bounded against sup|phi|, kappa <= 1
        T = function_distribution(1, "heaviside(x1)")
        est = measure_kappa(T, 1, 0, dict_cache(1, 1, 0, 16, 0), ([0.0], 1.0),
                            QUAD)
        assert not est.divergent
        assert 0.5 <= est.value <= 1.0 + 1e-6

    def test_heaviside_second_order_divergent(self, dict_cache):
        # D^2 heaviside pairs to -phi'(0): blows up under nu^0 normalization
        T = function_distribution(1, "heaviside(x1)")
        est = measure_kappa(T, 2, 0, dict_cache(1, 1, 0, 16, 0), ([0.0], 1.0),
                            QUAD)
        assert est.divergent
        assert all(g > math.sqrt(2.0) for g in est.growth)

    def test_zero_distribution(self, dict_cache):
        T = function_distribution(1, "0")
        est = measure_kappa(T, 1, 0, dict_cache(1, 1, 0, 8, 0), ([0.0], 1.0),
                            QUAD)
        assert est.value == 0.0 and not est.divergent

    def test_wrong_probe_order_rejected(self, dict_cache):
        T = function_distribution(1, "sin(x1)")
        with pytest.raises(ValueError):
            measure_kappa(T, 1, 0, dict_cache(1, 1, 1, 8, 0), ([0.0], 1.0))

    @pytest.mark.parametrize("item, k, i, size", [("sin4", 1, 0, 12), ("heaviside", 1, 0, 12),
                                                  ("heaviside", 2, 0, 16), ("sin4", 2, 1, 6),
                                                  ("heaviside", 2, 0, 5)])
    def test_against_pairing_every_family(self, item, k, i, size, corpus, dict_cache):
        # the shrinking family at the radius of K is read from the first
        # family: the same estimate, bit for bit, as pairing it again, also
        # for a dictionary with fewer than SHRINK_MEMBERS members
        T = corpus[item].build()
        probes = dict_cache(1, 1, i, size, 0)
        K = ([0.0], 1.0 + k)
        want = _kappa_pairing_every_family(T, k, i, probes, K, QUAD)
        assert _kappa_bits(measure_kappa(T, k, i, probes, K, QUAD)) == _kappa_bits(want)

    def test_2d_against_pairing_every_family(self, corpus, dict_cache):
        # two orders per probe: the family's values are the first
        # SHRINK_MEMBERS probes' values at every order.  The probe of the
        # largest value is put sixth, past the first SHRINK_MEMBERS values
        T = corpus["gauss2d"].build()
        loose = QuadratureConfig(rel_tol=1e-6, abs_floor=1e-10, max_cells=2 ** 10)
        members = dict_cache(2, 1, 0, 15, 0).members
        members = members[2:7] + members[1:2] + members[7:10]
        probes = ProbeDictionary(2, 1, 0, len(members), 0, members)
        K = ([0.1, -0.2], 1.0)
        got = measure_kappa(T, 1, 0, probes, K, loose)
        assert got.probe_argmax == members[5].label
        want = _kappa_pairing_every_family(T, 1, 0, probes, K, loose)
        assert _kappa_bits(got) == _kappa_bits(want)


def _kappa_bits(est):
    return (est.value.hex(), est.divergent, [g.hex() for g in est.growth], est.order_argmax,
            est.probe_argmax)


def _kappa_pairing_every_family(T, k, i, probes, K, config):
    """measure_kappa with every family paired, the shrinking family at the
    radius of K too: the reference."""
    center = np.asarray(K[0], dtype=float).reshape(T.n)
    radius = float(K[1])
    orders = xi_set(T.n, k)
    best, best_o, best_label = 0.0, orders[0].entries, ""
    deriv_Ts = [derivative(T, o) for o in orders]
    families = [(radius, probes.members)] + [
        (radius * 2.0 ** (-t), probes.members[:SHRINK_MEMBERS]) for t in range(SHRINK_STEPS + 1)]
    results = iter(pair_many([(To, member.rescale(center, s)) for s, members in families
                              for member in members for To in deriv_Ts], config))
    for member in probes.members:
        for o in orders:
            v = abs(next(results).value) * radius ** i
            if v > best:
                best, best_o, best_label = v, o.entries, member.label
    levels = [max([abs(next(results).value) * s ** i for _ in members for _ in orders],
                  default=0.0) for s, members in families[1:]]
    growth = tuple(levels[t + 1] / levels[t] if levels[t] > 0 else 0.0
                   for t in range(SHRINK_STEPS))
    divergent = all(g > math.sqrt(2.0) for g in growth)
    return KappaEstimate(best, divergent, growth, best_o, best_label)


class TestAnalyticKappa:
    def test_spot_values(self):
        # exp: every derivative is exp, L1 on [-4, 4] is e^4 - e^{-4}
        assert analytic_kappa("exp", 1, 0, ([0.0], 4.0)) == pytest.approx(
            math.exp(4) - math.exp(-4), rel=1e-14)
        # sq: second derivative is 2, L1 on [-2, 2] is 8; first is |2x|, L1 is 8
        assert analytic_kappa("sq", 2, 0, ([0.0], 2.0)) == pytest.approx(8.0)
        assert analytic_kappa("sq", 2, 1, ([0.0], 2.0)) == pytest.approx(8.0)

    def test_above_k_uses_support_width(self):
        # i > k: kappa = L1 norm of f itself times |K|^{i-k}
        base = analytic_kappa("exp", 1, 1, ([0.0], 1.0))
        assert analytic_kappa("exp", 1, 2, ([0.0], 1.0)) == pytest.approx(
            2.0 * base, rel=1e-13)

    def test_quadrature_domination(self, corpus):
        # closed forms dominate brute-force L1 quadrature of the derivative
        from ptdiff import integrate_box
        for iid, deriv in (("sin4", lambda x: -np.sin(x / 4.0) / 16.0),
                           ("cubic", lambda x: 6.0 * x)):
            v, _, _ = integrate_box(lambda p: np.abs(deriv(p[:, 0])),
                                    [-2.0], [2.0])
            got = analytic_kappa(iid, 2, 0, ([0.0], 2.0))
            assert got == pytest.approx(v, rel=1e-8), iid

    def test_registry(self):
        assert has_analytic_kappa("exp") and not has_analytic_kappa("heaviside")


class TestBuildJet:
    def test_polynomial_exact_every_radius(self, kernel_cache):
        # degree <= k-1 polynomials are reproduced exactly by construction
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 3.0, (1,): 2.0})
        T = polynomial_distribution(P)
        kernel = kernel_cache(1, 2)
        for r in (1.0, 0.5, 0.1, 0.02):
            jet = build_jet(T, [0.0], 2, kernel, r, QUAD)
            assert jet.coeff_map()[(0,)][0] == pytest.approx(3.0, abs=1e-8)
            assert jet.coeff_map()[(1,)][0] == pytest.approx(2.0, abs=1e-8)

    def test_delta_support_separation(self, kernel_cache):
        T = delta_distribution(1, [0.5])
        jet = build_jet(T, [0.0], 1, kernel_cache(1, 2), 0.25, QUAD)
        assert jet.coeff_map()[(0,)][0] == 0.0

    def test_zero_order(self, kernel_cache):
        T = function_distribution(1, "exp(x1)")
        jet = build_jet(T, [0.0], 0, kernel_cache(1, 2), 0.5, QUAD)
        assert np.all(jet.eval([0.3]) == 0.0)

    @pytest.mark.parametrize("item, k", [("sin4", 1), ("exp", 1), ("heaviside", 1),
                                         ("sin4", 2), ("sin4", 3), ("annuli", 1),
                                         ("annuli", 2), ("annuli", 3)])
    def test_against_scalar_pairings(self, item, k, corpus, kernel_cache):
        # one vector pairing against one scalar pairing per (xi, c): the
        # same jet bit for bit for k = 1 and d = 1, else within both bounds
        T = corpus[item].build()
        a, r = [0.2], 0.5
        kernel = kernel_cache(1, max(k, 2))
        jet = build_jet(T, a, k, kernel, r)
        values, bounds = kernel_pairings(T, np.asarray(a), k - 1, kernel, [r],
                                         QuadratureConfig(), strict=True)
        assert jet.degree_bound == k - 1 and np.array_equal(jet.coeffs, values[0])
        ref, ref_bounds = _scalar_build_jet(T, a, k, kernel, r)
        if k == 1 and T.d == 1:
            assert np.array_equal(jet.coeffs, ref)
        assert np.all(np.abs(jet.coeffs - ref) <= bounds[0][:, None] + ref_bounds)

    def test_budget_hit_raises(self, corpus, kernel_cache):
        T = corpus["heaviside"].build()
        tight = QuadratureConfig(rel_tol=1e-14, abs_floor=0.0, max_cells=8)
        with pytest.raises(QuadratureNonConvergence):
            build_jet(T, [0.0], 2, kernel_cache(1, 2), 0.5, tight)


def _scalar_build_jet(T, a, k, kernel, r):
    """The degree-(k-1) jet from one scalar pairing (D^xi T)(Phi_r e_c) per
    (xi, c), as build_jet computed it before it was one vector pairing:
    the reference, with each value's bound."""
    a = np.asarray(a, dtype=float).reshape(T.n)
    xis = [xi for m in range(0, k) for xi in xi_set(T.n, m)]
    results = pair_many([(derivative(T, xi), kernel.directed(a, r, T.d, c))
                         for xi in xis for c in range(T.d)], QuadratureConfig())
    out = np.array([(res.value, res.abs_error_bound) for res in results])
    return out[:, 0].reshape(len(xis), T.d), out[:, 1].reshape(len(xis), T.d)


class TestVerify:
    def test_analytic_kappa_certifies(self, kernel_cache, dict_cache):
        # direct numerical embodiment of the inequality with closed-form kappa
        probes = dict_cache(1, 1, 0, 6, 0)
        for iid, k in (("sin4", 2), ("sq", 2), ("exp", 1)):
            T = function_distribution(
                1, {"sin4": "sin(x1/4)", "sq": "x1^2", "exp": "exp(x1)"}[iid])
            K = ([0.0], 1.0 + k)
            kap = analytic_kappa(iid, k, 0, K)
            rep = verify(T, k, 0, [0.0], kernel_cache(1, max(k, 2)), probes,
                         C=([0.0], 1.0), r=1.0, kappa=kap, config=QUAD)
            assert rep.kappa_is_analytic
            assert rep.max_ratio <= 1.0, (iid, rep.max_ratio)

    def test_higher_seminorm_orders(self, kernel_cache, dict_cache):
        # i up to 2 including i above k; kappa stays analytic via the
        # support-width bound and the ratio stays certified
        T = function_distribution(1, "sin(x1/4)")
        for k, i in ((1, 1), (1, 2), (3, 2)):
            probes = dict_cache(1, 1, i, 6, 0)
            K = ([0.0], 1.0 + k)
            kap = analytic_kappa("sin4", k, i, K)
            rep = verify(T, k, i, [0.0], kernel_cache(1, max(k, 2)), probes,
                         C=([0.0], 1.0), r=1.0, kappa=kap, config=QUAD)
            assert rep.max_ratio <= 1.0, (k, i, rep.max_ratio)

    def test_polynomial_numerators_vanish(self, kernel_cache, dict_cache):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): -2.0})
        T = polynomial_distribution(P)
        rep = verify(T, 2, 0, [0.0], kernel_cache(1, 2), dict_cache(1, 1, 0, 6, 0),
                     C=([0.0], 1.0), r=0.5, kappa=1.0, config=QUAD)
        assert max(row.numerator for row in rep.rows) <= 1e-9

    def test_jet_idempotence(self, kernel_cache, dict_cache):
        # replacing T by T minus its own constructed jet leaves the
        # numerators unchanged, because the kernel reproduces the jet exactly
        T = function_distribution(1, "x1^2")
        kernel = kernel_cache(1, 3)
        probes = dict_cache(1, 1, 0, 6, 0)
        rep1 = verify(T, 2, 0, [0.0], kernel, probes, C=([0.0], 1.0), r=0.5,
                      kappa=10.0, config=QUAD)
        T2 = subtract_jet(T, rep1.jet)
        rep2 = verify(T2, 2, 0, [0.0], kernel, probes, C=([0.0], 1.0), r=0.5,
                      kappa=10.0, config=QUAD)
        for a, b in zip(rep1.rows, rep2.rows):
            assert b.numerator == pytest.approx(a.numerator, abs=1e-9)

    def test_divergent_without_analytic_kappa(self, kernel_cache, dict_cache):
        T = function_distribution(1, "heaviside(x1)")
        with pytest.raises(DivergentKappaError):
            verify(T, 2, 0, [0.0], kernel_cache(1, 3), dict_cache(1, 1, 0, 8, 0),
                   C=([0.0], 1.0), r=0.5, config=QUAD)

    @pytest.mark.parametrize("item, k", [("sin4", 1), ("exp", 2), ("sin4", 2)])
    def test_rows_against_one_pairing_per_member(self, item, k, corpus, kernel_cache,
                                                 dict_cache):
        # one engine call per derivative of T: every row bit for bit as one
        # pair call per probe gave it
        T = corpus[item].build()
        kernel = kernel_cache(1, max(k, 2))
        probes = dict_cache(1, 1, 0, 8, 0)
        C, r = ([0.0], 1.0), 1.0
        kappa = analytic_kappa(item, k, 0, ([0.0], 1.0 + k))
        rep = verify(T, k, 0, [0.0], kernel, probes, C=C, r=r, kappa=kappa)
        want = []
        for m in range(k):
            g = gamma(m, k, 1, 0, r, 2.0, kernel=kernel)
            for xi in xi_set(1, m):
                Txi = derivative(T, xi)
                Pxi = polynomial_distribution(rep.jet.derivative(xi))
                for member in probes.members:
                    theta = member.rescale(np.array([0.0]), 1.0)
                    numer = abs(pair(Txi, theta).value - pair(Pxi, theta).value)
                    denom = g * kappa * 1.0 ** 0
                    want.append(RatioRow(m, xi.entries, member.label, numer, denom,
                                         numer / denom))
        assert len(rep.rows) == len(want)
        for got, row in zip(rep.rows, want):
            assert (got.m, got.xi, got.theta_label) == (row.m, row.xi, row.theta_label)
            assert [v.hex() for v in (got.numerator, got.denominator, got.ratio)] == \
                [v.hex() for v in (row.numerator, row.denominator, row.ratio)]

    def test_csv_lines_schema(self, kernel_cache, dict_cache):
        T = function_distribution(1, "exp(x1)")
        rep = verify(T, 1, 0, [0.0], kernel_cache(1, 2), dict_cache(1, 1, 0, 6, 0),
                     C=([0.0], 1.0), r=0.5, kappa=analytic_kappa("exp", 1, 0, ([0.0], 1.5)),
                     config=QUAD)
        lines = rep.csv_lines()
        assert lines[0] == "m,xi,theta,numerator,denominator,ratio"
        assert len(lines) == 1 + len(rep.rows)
