"""Atom pairing engine: delta rules, integration by parts, locality, dual norm."""

import math

import numpy as np
import pytest

from ptdiff import (MultiIndex, PolyJet, QuadratureConfig, TestFn, delta_distribution,
                    derivative, dual_norm, function_distribution, make_dictionary,
                    pair, pair_many, polynomial_distribution, standard_bump, subtract_jet)

BUMP_MASS_1D = 0.4439938161680793


def plus(f, g):
    """f + g for a test function g supported inside f's support ball."""
    return TestFn.of(f.n, f.d, f.atoms + g.atoms, f.support_center, f.support_radius,
                     f.max_deriv_order, f.label)


class TestPair:
    def test_delta_rule(self):
        T = delta_distribution(1, [0.0])
        res = pair(T, standard_bump(1))
        assert res.value == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert res.abs_error_bound == 0.0
        # the delta parts of one pair_many call, against a one-ball probe, a
        # plateau and a derivative view, each its pair alone bit for bit
        members = make_dictionary(1, 1, 0, 12, 0).members
        plateau = next(m for m in members if m.label == "plateau_w0.2")
        view = members[2].rescale([0.1], 0.5).derivative_view(MultiIndex((1,)))
        phis = [members[1].rescale([0.2], 0.4), plateau, view]
        deltas = [delta_distribution(1, [0.3], xi=(1,), coeff=(2.0,)),
                  delta_distribution(1, [-0.15], xi=(2,)),
                  delta_distribution(1, [0.25], coeff=(-1.5,))]
        pairs = [(T, phi) for T in deltas for phi in phis]
        pairs.append((derivative(deltas[0], (1,)), plateau))
        got = pair_many(pairs)
        assert got == [pair(T, phi) for T, phi in pairs]
        for (T, phi), res in zip(pairs[:-1], got):
            (atom,) = T.atoms
            xi = MultiIndex(atom.xi)
            want = (-1.0) ** xi.order * atom.coeff[0] * phi.eval_deriv(xi, atom.location)[0]
            assert res.value == want and res.abs_error_bound == 0.0
        assert all(res.value != 0.0 for res in got)

    def test_constant_function_mass(self):
        T = function_distribution(1, "1")
        res = pair(T, standard_bump(1))
        assert res.value == pytest.approx(BUMP_MASS_1D, abs=1e-11)

    def test_derivative_of_heaviside_is_delta(self):
        T = derivative(function_distribution(1, "heaviside(x1)"), (1,))
        res = pair(T, standard_bump(1))
        assert res.value == pytest.approx(math.exp(-1.0), abs=1e-11)

    def test_delta_derivative_sign(self):
        # (D^1 delta_0)(phi) = -phi'(0); probe with a shifted bump
        T = delta_distribution(1, [0.0], xi=(1,))
        phi = standard_bump(1).rescale([0.3], 1.0)
        expected = -phi.eval_deriv(MultiIndex((1,)), [0.0])[0]
        assert pair(T, phi).value == pytest.approx(expected, rel=1e-14)

    def test_polynomial_atom_derivative(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0, (2,): 2.0})
        T = derivative(polynomial_distribution(P), (1,))
        D = polynomial_distribution(P.derivative(MultiIndex((1,))))
        phi = standard_bump(1)
        assert pair(T, phi).value == pytest.approx(pair(D, phi).value, abs=1e-10)

    def test_locality_exact_zero(self):
        T = delta_distribution(1, [5.0])
        phi = standard_bump(1)
        res = pair(T, phi)
        assert res.value == 0.0 and res.abs_error_bound == 0.0

    def test_locality_function_support(self):
        T = function_distribution(1, "heaviside(x1-10)")
        res = pair(T, standard_bump(1))
        assert abs(res.value) <= 1e-13


class TestSubtractJet:
    def test_zero_jet_noop(self):
        T = function_distribution(1, "exp(x1)")
        phi = standard_bump(1)
        a = pair(T, phi).value
        b = pair(subtract_jet(T, PolyJet.zero(1)), phi).value
        assert a == b

    def test_self_cancellation(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): -2.0, (2,): 3.0})
        T = polynomial_distribution(P)
        res = pair(subtract_jet(T, P), standard_bump(1))
        assert abs(res.value) <= max(res.abs_error_bound, 1e-12)

    def test_taylor_remainder_decay(self):
        # exp minus its degree-2 jet at 0: the remainder is x^3/6 + x^4/24 + ...
        # The cubic term is odd and integrates to zero against the symmetric
        # bump, so the observed pairing decays like r^{4+n} = r^5.
        T = function_distribution(1, "exp(x1)")
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): 1.0, (2,): 1.0})
        R = subtract_jet(T, P)
        phi = standard_bump(1)
        vals = []
        for r in (0.2, 0.1, 0.05):
            vals.append(abs(pair(R, phi.rescale([0.0], r)).value))
        assert vals[1] / vals[0] == pytest.approx(2.0 ** -5, rel=0.15)
        assert vals[2] / vals[1] == pytest.approx(2.0 ** -5, rel=0.15)

    def test_taylor_remainder_decay_asymmetric_probe(self):
        # With an off-center probe the cubic term survives and the pairing
        # decays at the generic rate r^{3+n} = r^4.
        T = function_distribution(1, "exp(x1)")
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): 1.0, (2,): 1.0})
        R = subtract_jet(T, P)
        phi = standard_bump(1)
        vals = []
        for r in (0.2, 0.1, 0.05):
            probe = plus(phi.rescale([0.0], r), phi.rescale([0.3 * r], 0.5 * r).scaled_by(2.0))
            vals.append(abs(pair(R, probe).value))
        assert vals[1] / vals[0] == pytest.approx(2.0 ** -4, rel=0.2)
        assert vals[2] / vals[1] == pytest.approx(2.0 ** -4, rel=0.2)


class TestLinearity:
    def test_random_combinations(self, corpus):
        rng = np.random.default_rng(7)
        T = function_distribution(1, "exp(x1)")
        base = standard_bump(1)
        shifted = standard_bump(1).rescale([0.2], 0.6)
        for _ in range(50):
            a, b = rng.normal(size=2)
            combo = plus(base.scaled_by(a), shifted.scaled_by(b))
            lhs = pair(T, combo)
            rhs = a * pair(T, base).value + b * pair(T, shifted).value
            tol = lhs.abs_error_bound + (abs(a) + abs(b)) * 1e-9 + 1e-12
            assert abs(lhs.value - rhs) <= tol


class TestIntegrationByParts:
    @pytest.mark.parametrize("order", [1, 2])
    def test_identity_on_corpus(self, corpus, order):
        phi = standard_bump(1).rescale([0.1], 0.8)
        phi2 = None
        xi = MultiIndex((order,))
        for iid, item in corpus.items():
            if item.n != 1:
                continue
            T = item.build()
            probe = phi if item.d == 1 else standard_bump(1, d=item.d).rescale([0.1], 0.8)
            cfg = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-13, max_cells=2 ** 13)
            lhs = pair(derivative(T, xi), probe, cfg, strict=False)
            rhs = pair(T, probe.derivative_view(xi), cfg, strict=False)
            tol = lhs.abs_error_bound + rhs.abs_error_bound + 1e-9
            assert abs(lhs.value - (-1.0) ** order * rhs.value) <= tol, iid


class TestDualNorm:
    def test_constant_function_lower_bound(self, dict_cache):
        T = function_distribution(1, "1")
        d64 = dict_cache(1, 1, 0, 64, 0)
        v = dual_norm(T, ([0.0], 1.0), 0, d64)
        assert 1.8 <= v <= 2.0 + 1e-9

    def test_zero_distribution(self, dict_cache):
        T = function_distribution(1, "0")
        assert dual_norm(T, ([0.0], 1.0), 0, dict_cache(1, 1, 0, 8, 0)) == 0.0

    def test_delta_dual_norm(self, dict_cache):
        T = delta_distribution(1, [0.0])
        v = dual_norm(T, ([0.0], 1.0), 0, dict_cache(1, 1, 0, 64, 0))
        assert 0.9 <= v <= 1.0 + 1e-9

    def test_monotone_in_dictionary_size(self, dict_cache):
        T = function_distribution(1, "1")
        vals = [dual_norm(T, ([0.0], 1.0), 0, dict_cache(1, 1, 0, s, 0))
                for s in (8, 16, 32, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
