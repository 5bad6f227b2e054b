"""Jet estimation, scaled pairings, decay classification, derivative transfer."""

import math

import numpy as np
import pytest

from ptdiff import (JetConfig, MultiIndex, PolyJet, classify,
                    check_derivative_transfer, delta_distribution, estimate_jet,
                    function_distribution, polynomial_distribution,
                    scaled_pairing, standard_bump, xi_set)
from ptdiff.jetestimator import CONFIRMED, INCONCLUSIVE, REFUTED

HALF_BUMP_MASS = 0.22199690808403966  # int_0^1 exp(1/(x^2-1)) dx


class TestScaledPairing:
    def test_delta_scale_free(self):
        # k = -1 with the zero jet: r^{-(-1)-1} delta(phi(./r)) = phi(0)
        T = delta_distribution(1, [0.0])
        phi = standard_bump(1)
        for r in (1.0, 0.5, 0.125):
            res = scaled_pairing(T, PolyJet.zero(1), [0.0], -1, phi, r)
            assert res.value == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_heaviside_plateau(self):
        # k = 0, zero jet: r^{-1} int H(x) phi(x/r) dx = int_0^1 phi, all r
        T = function_distribution(1, "heaviside(x1)")
        phi = standard_bump(1)
        for r in (0.4, 0.1):
            res = scaled_pairing(T, PolyJet.zero(1), [0.0], 0, phi, r)
            assert res.value == pytest.approx(HALF_BUMP_MASS, abs=1e-10)

    def test_odd_function_cancels(self):
        T = function_distribution(1, "x1^3")
        phi = standard_bump(1)
        res = scaled_pairing(T, PolyJet.zero(1), [0.0], 0, phi, 0.5)
        assert abs(res.value) <= max(res.abs_error_bound, 1e-12)

    def test_homogeneity_identity(self):
        # pairing at radius r/2 with the doubled probe equals 2^{k+n} times
        # the pairing at radius r, because the rescaled probes coincide
        T = function_distribution(1, "exp(x1)")
        phi = standard_bump(1)
        psi = phi.rescale([0.0], 2.0)
        k, r = 1, 0.5
        a = scaled_pairing(T, PolyJet.zero(1), [0.0], k, phi, r)
        b = scaled_pairing(T, PolyJet.zero(1), [0.0], k, psi, r / 2.0)
        assert b.value == pytest.approx(2.0 ** (k + 1) * a.value, rel=1e-11)

    def test_invalid_radius(self):
        T = delta_distribution(1, [0.0])
        with pytest.raises(ValueError):
            scaled_pairing(T, PolyJet.zero(1), [0.0], 0, standard_bump(1), 0.0)


class TestEstimateJet:
    def test_negative_order_zero_jet(self):
        T = function_distribution(1, "exp(x1)")
        est = estimate_jet(T, [0.0], -1)
        assert est.converged
        assert np.all(est.jet.eval([0.3]) == 0.0)

    def test_exp_order2(self, kernel_cache):
        T = function_distribution(1, "exp(x1)")
        est = estimate_jet(T, [0.0], 2, kernel=kernel_cache(1, 4),
                           config=JetConfig(levels=10))
        for xi in ((0,), (1,), (2,)):
            got = est.jet.coeff_map()[xi][0]
            assert got == pytest.approx(1.0, abs=1e-5), xi

    def test_polynomial_exact(self, kernel_cache):
        T = function_distribution(1, "x1^3+2*x1")
        est = estimate_jet(T, [0.5], 3, kernel=kernel_cache(1, 5),
                           config=JetConfig(levels=8))
        # derivatives of x^3 + 2x at 0.5: (1.125, 2.75, 3.0, 6.0)
        expect = {(0,): 1.125, (1,): 2.75, (2,): 3.0, (3,): 6.0}
        for xi, v in expect.items():
            assert est.jet.coeff_map()[xi][0] == pytest.approx(v, abs=1e-7), xi

    def test_truncation_consistency(self, kernel_cache):
        # the order-1 part of the order-2 jet matches the direct order-1 jet
        T = function_distribution(1, "exp(-x1)")
        cfg = JetConfig(levels=9)
        j2 = estimate_jet(T, [0.0], 2, kernel=kernel_cache(1, 4), config=cfg).jet
        j1 = estimate_jet(T, [0.0], 1, kernel=kernel_cache(1, 4), config=cfg).jet
        for xi in ((0,), (1,)):
            assert j2.coeff_map()[xi][0] == pytest.approx(
                j1.coeff_map()[xi][0], abs=1e-6)

    def test_traces_recorded(self, kernel_cache):
        T = function_distribution(1, "sin(x1/4)")
        est = estimate_jet(T, [0.0], 1, kernel=kernel_cache(1, 3),
                           config=JetConfig(levels=6))
        assert set(est.traces) == {(0,), (1,)}
        tr = est.traces[(1,)]
        assert len(tr.radii) == 6 and len(tr.values) == 6


class TestClassify:
    def test_smooth_confirmed(self, fast_classifier):
        T = function_distribution(1, "exp(x1)")
        rep = classify(T, [0.0], 2, config=fast_classifier())
        assert rep.verdict == CONFIRMED
        assert rep.caveat == "probe-relative"

    @pytest.mark.parametrize("n", [1, 2])
    def test_jet_uniqueness_polynomial_exhaustive(self, fast_classifier, n):
        # For a polynomial atom the true jet cancels exactly (envelope below
        # noise at every radius); perturbing any single coefficient by 1e-3
        # leaves a residual monomial whose scaled pairing does not decay, so
        # some probe witnesses a log-log slope <= 0 and the claim is refuted.
        rng = np.random.default_rng(5)
        # monomial probes up to order 3 cover every perturbation direction;
        # larger dictionaries only add cost here
        cfg = fast_classifier(n=n, levels=6, dict_size=8 if n == 1 else 10)
        for k in range(0, 4):
            cm = {xi.entries: float(rng.normal())
                  for m in range(k + 1) for xi in xi_set(n, m)}
            P = PolyJet.from_coeff_map(n, [0.0] * n, cm)
            T = polynomial_distribution(P)
            rep = classify(T, [0.0] * n, k, jet=P, config=cfg)
            assert rep.verdict == CONFIRMED, (n, k)
            for e in cm:
                bad_map = dict(cm)
                bad_map[e] += 1e-3
                bad = PolyJet.from_coeff_map(n, [0.0] * n, bad_map)
                rep = classify(T, [0.0] * n, k, jet=bad, config=cfg)
                assert rep.verdict == REFUTED, (n, k, e)
                assert rep.witnesses, (n, k, e)

    def test_heaviside_refuted_order0(self, fast_classifier):
        T = function_distribution(1, "heaviside(x1)")
        rep = classify(T, [0.0], 0, config=fast_classifier())
        assert rep.verdict == REFUTED
        assert len(rep.witnesses) >= 1

    def test_heaviside_order_minus1_alpha1(self, fast_classifier):
        T = function_distribution(1, "heaviside(x1)")
        rep = classify(T, [0.0], -1, alpha=1.0, config=fast_classifier())
        assert rep.verdict == CONFIRMED

    def test_seminorm_variants_agree(self, fast_classifier, dict_cache):
        # the i = 0 and i = 1 variants give the same verdicts here
        T = function_distribution(1, "heaviside(x1)")
        for i in (0, 1):
            rep = classify(T, [0.0], -1, alpha=1.0, i=i,
                           probes=dict_cache(1, 1, i, 8, 0),
                           config=fast_classifier())
            assert rep.verdict == CONFIRMED, i

    @pytest.mark.parametrize("broken", ["value", "bound"])
    def test_non_finite_envelope_is_inconclusive(self, monkeypatch, dict_cache, broken):
        # a NaN envelope or an infinite noise floor fails every comparison,
        # which once read as "below the noise floor at every radius": confirmed
        from ptdiff import jetestimator
        from ptdiff.distribution import PairingResult

        bad = PairingResult(math.nan, 0.0, 1) if broken == "value" else \
            PairingResult(1.0, math.inf, 1)

        def non_finite(pairs, config=None, strict=True):
            return [tuple(bad for _ in phi) if isinstance(phi, tuple) else bad
                    for _, phi in pairs]

        monkeypatch.setattr(jetestimator, "pair_many", non_finite)
        T = function_distribution(1, "heaviside(x1)")
        rep = classify(T, [0.0], 0, probes=dict_cache(1, 1, 0, 6, 0),
                       jet=PolyJet.from_coeff_map(1, [0.0], {(0,): 0.5}))
        assert rep.verdict == INCONCLUSIVE and rep.beta_hat is None

    def test_report_rows_schema(self, fast_classifier):
        T = function_distribution(1, "sq" and "x1^2")
        rep = classify(T, [0.0], 1, config=fast_classifier())
        rows = list(rep.rows())
        assert len(rows) == len(rep.radii)
        r, env, noise, probes = rows[0]
        assert len(probes) == len(rep.probe_labels)


class TestDerivativeTransfer:
    def test_smooth_consistent(self, fast_classifier, kernel_cache):
        T = function_distribution(1, "exp(x1)")
        rep = check_derivative_transfer(T, [0.0], 1, l=1,
                                        kernel=kernel_cache(1, 4),
                                        config=fast_classifier())
        assert rep.status == "consistent"
        assert rep.max_jet_deviation <= 1e-5

    def test_invalid_orders(self):
        T = function_distribution(1, "exp(x1)")
        with pytest.raises(ValueError):
            check_derivative_transfer(T, [0.0], 0)
