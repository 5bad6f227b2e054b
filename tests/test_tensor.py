"""Multi-index enumeration, jets, their tensor blocks, operator norms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_directional_max
from ptdiff import MultiIndex, PolyJet, opnorm_bounds, xi_set, zero_index
from ptdiff.tensor import eval_jets, jet_opnorms, recenter_jets, stack_jets


class TestXiSet:
    def test_n1_m3_single(self):
        assert [x.entries for x in xi_set(1, 3)] == [(3,)]

    def test_n2_m2_order(self):
        assert [x.entries for x in xi_set(2, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_n3_m2_cardinality(self):
        assert len(xi_set(3, 2)) == 6

    @given(st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_cardinality_formula(self, n, m):
        assert len(xi_set(n, m)) == math.comb(m + n - 1, n - 1)

    @given(st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_orders_and_uniqueness(self, n, m):
        xs = xi_set(n, m)
        assert len(set(xs)) == len(xs)
        assert all(x.order == m and x.n == n for x in xs)


def top_form(n, k, values):
    """The jet whose only nonzero block is the order-k one, rows in xi_set order."""
    return PolyJet.from_coeff_map(n, np.zeros(n), dict(zip(
        [xi.entries for xi in xi_set(n, k)], values)))


class TestInteriorMult:
    """o -| psi, psi[zeta + o] at zeta, is the top block of the derivative D^o."""

    def test_shift_example(self):
        out = top_form(2, 2, [1.0, 2.0, 3.0]).derivative(MultiIndex((1, 0)))
        assert out.degree_bound == 1
        assert out.tensor(1)[:, 0].tolist() == [1.0, 2.0]

    def test_zero_index_identity(self):
        P = top_form(2, 2, [1.0, 2.0, 3.0])
        assert P.derivative(zero_index(2)).tensor(2).tolist() == P.tensor(2).tolist()

    def test_full_contraction_scalar(self):
        out = top_form(2, 2, [1.0, 2.0, 3.0]).derivative(MultiIndex((1, 1)))
        assert out.degree_bound == 0
        assert out.tensor(0)[0, 0] == 2.0

    def test_coefficient_shift_exhaustive(self):
        # (o interior psi)[zeta] = psi[zeta + o] for n <= 3, degrees <= 4
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            for k in range(0, 5):
                P = top_form(n, k, rng.normal(size=len(xi_set(n, k))))
                for m in range(0, k + 1):
                    for o in xi_set(n, m):
                        out = P.derivative(o)
                        for zeta in xi_set(n, k - m):
                            assert out.coefficient(zeta)[0] == P.coefficient(zeta + o)[0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            top_form(1, 1, [1.0]).derivative(MultiIndex((1, 0)))


def random_jet(rng, n, k, d=1):
    coeffs = {xi.entries: rng.normal(size=d) for m in range(k + 1)
              for xi in xi_set(n, m)}
    center = rng.uniform(-1, 1, size=n)
    return PolyJet.from_coeff_map(n, center, coeffs, target_dim=d)


class TestPolyJet:
    def test_recenter_taylor_shift(self):
        # x^2 at 0 has derivatives (0, 0, 2); at 1 they become (1, 2, 2)
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0, (2,): 2.0})
        Q = P.recenter([1.0])
        assert Q.coefficient(MultiIndex((0,)))[0] == pytest.approx(1.0)
        assert Q.coefficient(MultiIndex((1,)))[0] == pytest.approx(2.0)
        assert Q.coefficient(MultiIndex((2,)))[0] == pytest.approx(2.0)

    def test_derivative_of_square(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0, (2,): 2.0})
        D = P.derivative(MultiIndex((1,)))
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(D.eval(xs[:, None])[:, 0], 2 * xs, atol=1e-12)

    def test_zero_jet_evaluates_zero(self):
        Z = PolyJet.zero(2)
        assert np.all(Z.eval([0.3, -0.7]) == 0.0)

    @given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_recenter_roundtrip(self, n, k, seed):
        rng = np.random.default_rng(seed)
        P = random_jet(rng, n, k)
        b = rng.uniform(-2, 2, size=n)
        Q = P.recenter(b).recenter(P.center)
        for m in range(k + 1):
            for xi in xi_set(n, m):
                assert abs(Q.coefficient(xi)[0] - P.coefficient(xi)[0]) <= \
                    1e-12 * max(1.0, abs(P.coefficient(xi)[0]))

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_derivative_matches_finite_difference(self, n, k, seed):
        rng = np.random.default_rng(seed)
        P = random_jet(rng, n, k)
        x = rng.uniform(-1, 1, size=n)
        h = 1e-5
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (P.eval(x + e)[0] - P.eval(x - e)[0]) / (2 * h)
            xi = MultiIndex(tuple(1 if t == j else 0 for t in range(n)))
            exact = P.derivative(xi).eval(x)[0]
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    @given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_recenter_preserves_values(self, n, k, seed):
        rng = np.random.default_rng(seed)
        P = random_jet(rng, n, k)
        b = rng.uniform(-2, 2, size=n)
        Q = P.recenter(b)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=n)
            assert Q.eval(x)[0] == pytest.approx(P.eval(x)[0], rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_point_value_independent_of_batch(self, n, d):
        # a point gets the same bits alone as in a batch of any size
        rng = np.random.default_rng(10 * n + d)
        P = random_jet(rng, n, 2, d)
        X = rng.uniform(-2, 2, size=(64, n))
        alone = np.array([P.eval(x) for x in X])
        for size in range(1, 65):
            assert np.array_equal(P.eval(X[:size]), alone[:size]), size


class TestStackedJets:
    # a matrix product's last bits depend on its size, so a stack padded to a
    # common degree must still recenter each jet at its own size

    @staticmethod
    def random_jets(rng, n, d, k, count):
        jets = []
        for _ in range(count):
            deg = int(rng.integers(-1, k + 1))
            cm = {xi.entries: rng.normal(size=d) * 10 ** rng.uniform(-2, 2)
                  for m in range(deg + 1) for xi in xi_set(n, m)}
            center = rng.uniform(-1.0, 1.0, size=n)
            jets.append(PolyJet.from_coeff_map(n, center, cm, d) if cm
                        else PolyJet.zero(n, d, center))
        return jets

    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_recenter_matches_polyjet(self, n, d):
        rng = np.random.default_rng(n + 2 * d)
        jets = self.random_jets(rng, n, d, 3, 200)
        centers, coeffs, degrees = stack_jets(jets, n, d, 3)
        b = rng.uniform(-1.0, 1.0, size=(200, n))
        got = recenter_jets(coeffs, degrees, b - centers)
        for row, P, at in zip(got, jets, b):
            want = P.recenter(at).coeffs
            assert np.array_equal(row[:len(want)], want)
            assert not row[len(want):].any()

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2)])
    def test_eval_matches_polyjet(self, n, d):
        rng = np.random.default_rng(7 * n + d)
        jets = self.random_jets(rng, n, d, 3, 100)
        centers, coeffs, degrees = stack_jets(jets, n, d, 3)
        X = rng.uniform(-2.0, 2.0, size=(100, n))
        for m in range(5):
            for xi in xi_set(n, m):
                got = eval_jets(coeffs, degrees, centers, X, xi)
                for row, P, x in zip(got, jets, X):
                    assert np.array_equal(row, P.derivative(xi).eval(x)), xi

    def test_eval_far_point_low_degree(self):
        # h^2 overflows at 1e155: the padded rows of the degree-0 and zero
        # jets must not add inf * 0
        jets = [PolyJet.from_coeff_map(1, [0.0], {(0,): 2.0}), PolyJet.zero(1),
                PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): 1.0, (2,): 1.0})]
        centers, coeffs, degrees = stack_jets(jets, 1, 1, 2)
        with np.errstate(over="ignore"):
            got = eval_jets(coeffs, degrees, centers, np.full((3, 1), 1e155), MultiIndex((0,)))
        assert got[:, 0].tolist() == [2.0, 0.0, math.inf]

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 1)])
    def test_opnorms_per_order(self, n, d):
        rng = np.random.default_rng(40 + n)
        jets = self.random_jets(rng, n, d, 3, 30)
        _, coeffs, _ = stack_jets(jets, n, d, 3)
        got = jet_opnorms(n, 3, coeffs)
        assert got.shape == (30, 4)
        for row, P in zip(got, jets):
            want = [opnorm_bounds(n, m, P.tensor(m))[0] for m in range(4)]
            if n == 1:
                assert row.tolist() == want
            else:
                # n = 2: a batched opnorms call refines every row while any is
                # unfinished; n = 3: the l1 bound is one matrix product per stack
                assert row.tolist() == pytest.approx(want, rel=1e-6)


class TestOpnorm:
    def test_linear_functional_euclidean(self):
        assert opnorm_bounds(2, 1, [[3.0], [4.0]])[0] == pytest.approx(5.0, rel=1e-5)

    def test_zero_tensor(self):
        assert opnorm_bounds(2, 2, np.zeros((3, 1)))[0] == 0.0

    def test_identity_form_spectral(self):
        assert opnorm_bounds(2, 2, [[1.0], [0.0], [1.0]])[0] == pytest.approx(1.0, rel=1e-5)

    @given(st.integers(1, 2), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_between_coefficient_bounds(self, n, k, seed):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(len(xi_set(n, k)), 1))
        value, certified = opnorm_bounds(n, k, block)
        # largest coefficient below, multinomially weighted l1 above
        weights = [math.factorial(k) / math.prod(map(math.factorial, xi.entries))
                   for xi in xi_set(n, k)]
        rows = np.abs(block[:, 0])
        assert rows.max() - 1e-9 <= value <= float(np.dot(weights, rows)) + 1e-9
        assert certified in (True, False)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_n2_matches_dense_reference(self, degree):
        rng = np.random.default_rng(degree)
        for d in (1, 2):
            for _ in range(10):
                coeffs = rng.normal(size=(degree + 1, d))
                value, certified = opnorm_bounds(2, degree, coeffs)
                ref = dense_directional_max(coeffs[None], degree)[0]
                assert certified
                assert abs(value - ref) <= 1e-4 * ref, (d, value, ref)
