"""Jet-consistency functional, partition of unity, localization, extension."""

import bisect
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptdiff import (FinitePointSet, HalfSpace, JetField, MultiIndex, PolyJet,
                    WhitneyGateError, empirical_hoelder, extend,
                    function_distribution, localization_check, make_point_set,
                    partition_of_unity, rho, xi_set, zero_index)
from ptdiff.quadrature import QuadratureConfig
from ptdiff.tensor import opnorm_bounds
from ptdiff.whitney import (PartitionConstructionError, WhitneyExtension, _candidate_grid,
                            _is_greedy, _nearest, _pack, _sweep_line, h_function)

QUAD = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-13, max_cells=2 ** 12)


def constant_field(points, values, alpha=1.0, degree=0):
    jets = tuple(PolyJet.from_coeff_map(1, [p], {(0,): v})
                 for p, v in zip(points, values))
    return JetField(tuple((p,) for p in points), jets, degree, alpha)


def sin_field(points, degree=2, alpha=1.0):
    jets = []
    for p in points:
        cm = {}
        for m in range(degree + 1):
            # m-th derivative of sin cycles through sin, cos, -sin, -cos
            cm[(m,)] = [math.sin(p), math.cos(p), -math.sin(p), -math.cos(p)][m % 4]
        jets.append(PolyJet.from_coeff_map(1, [p], cm))
    return JetField(tuple((p,) for p in points), tuple(jets), degree, alpha)


class TestJetField:
    def test_length_mismatch(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0})
        with pytest.raises(ValueError):
            JetField(((0.0,), (1.0,)), (P,), 0, 1.0)

    def test_alpha_range(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0})
        with pytest.raises(ValueError):
            JetField(((0.0,),), (P,), 0, 0.0)
        with pytest.raises(ValueError):
            JetField(((0.0,),), (P,), 0, 1.5)

    def test_degree_bound(self):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): 2.0})
        with pytest.raises(ValueError):
            JetField(((0.0,),), (P,), 0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        P = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0})
        with pytest.raises(ValueError, match="finite"):
            JetField(((0.0,),), (PolyJet.from_coeff_map(1, [0.0], {(0,): bad}),), 0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            JetField(((bad,),), (P,), 0, 1.0)
        with pytest.raises(ValueError):
            JetField(((0.0,),), (P,), 0, bad)

    def test_mixed_dimensions_rejected(self):
        P1 = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0})
        P2 = PolyJet.from_coeff_map(2, [0.0, 0.0], {(0, 0): 1.0})
        with pytest.raises(ValueError):
            JetField(((0.0,), (1.0, 0.0)), (P1, P2), 0, 1.0)
        with pytest.raises(ValueError):
            JetField(((0.0, 0.0),), (P1,), 0, 1.0)

    def test_stacked_layout(self):
        jets = (PolyJet.from_coeff_map(1, [0.5], {(0,): 1.0, (1,): 2.0}),
                PolyJet.zero(1, 1, [1.0]))
        F = JetField(((0.5,), (1.0,)), jets, 2, 1.0)
        assert F.centers.tolist() == [[0.5], [1.0]]
        assert F.coeffs[:, :, 0].tolist() == [[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        assert F.degrees.tolist() == [1, -1]


class TestRho:
    def test_global_polynomial_zero(self):
        Q = PolyJet.from_coeff_map(1, [0.0], {(0,): 1.0, (1,): -3.0, (2,): 4.0})
        pts = (0.0, 0.3, 0.8, 1.0)
        F = JetField(tuple((p,) for p in pts),
                     tuple(Q.recenter([p]) for p in pts), 2, 1.0)
        assert rho(F, 2.0) <= 1e-10

    def test_two_point_order0(self):
        F = constant_field((0.0, 1.0), (0.0, 2.0))
        assert rho(F, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert rho(F, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert rho(F, 0.5) == 0.0  # no pairs within range

    def test_constant_jets_order1(self):
        # constants 0 and eps at distance delta: the m=0 term is
        # eps * delta^{0-1} * 1! = eps / delta; the m=1 term vanishes
        eps, delta = 0.3, 0.01
        jets = (PolyJet.from_coeff_map(1, [0.0], {(0,): 0.0, (1,): 0.0}),
                PolyJet.from_coeff_map(1, [delta], {(0,): eps, (1,): 0.0}))
        F = JetField(((0.0,), (delta,)), jets, 1, 1.0)
        assert rho(F, delta) == pytest.approx(eps / delta, rel=1e-12)

    def test_relabel_invariance(self):
        F1 = constant_field((0.0, 0.4, 1.0), (1.0, -0.5, 2.0))
        F2 = constant_field((1.0, 0.0, 0.4), (2.0, 1.0, -0.5))
        assert rho(F1, 1.5) == pytest.approx(rho(F2, 1.5), rel=1e-14)

    def test_invalid_delta(self):
        F = constant_field((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            rho(F, 0.0)

    def test_scaling_law(self):
        # replacing points a by s*a and jets P_a by P_a(./s) multiplies every
        # pair term by s^{-k} uniformly, so rho(F_s, s delta) = s^{-k} rho(F, delta)
        rng = np.random.default_rng(9)
        for trial in range(10):
            k = int(rng.integers(0, 3))
            pts = np.sort(rng.uniform(-1, 1, size=4))
            jets = []
            for p in pts:
                cm = {(m,): float(rng.normal()) for m in range(k + 1)}
                jets.append(PolyJet.from_coeff_map(1, [p], cm))
            F = JetField(tuple((float(p),) for p in pts), tuple(jets), k, 1.0)
            s = float(rng.uniform(0.3, 3.0))
            sjets = []
            for p, P in zip(pts, jets):
                cm = {xi.entries: P.coefficient(xi)[0] * s ** (-xi.order)
                      for m in range(k + 1) for xi in xi_set(1, m)}
                sjets.append(PolyJet.from_coeff_map(1, [s * p], cm))
            Fs = JetField(tuple((float(s * p),) for p in pts), tuple(sjets), k, 1.0)
            lhs = rho(Fs, s * 1.0)
            rhs = s ** (-k) * rho(F, 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-10), trial


def gate_one_pair_at_a_time(F, delta=math.inf):
    """(rho, worst, worst_pair) by the per-pair loop: a recenter and an
    operator norm per ordered pair and order."""
    k = F.degree
    pts = [np.asarray(p, dtype=float) for p in F.points]
    rho_v, worst, worst_pair = 0.0, 0.0, None
    for ia, ib in itertools.permutations(range(len(pts)), 2):
        d = float(np.linalg.norm(pts[ia] - pts[ib]))
        if d == 0.0 or d > delta:
            continue
        Pa = F.jets[ia].recenter(pts[ib])
        Pb = F.jets[ib].recenter(pts[ib])
        for m in range(k + 1):
            norm, _ = opnorm_bounds(F.n, m, Pa.tensor(m) - Pb.tensor(m))
            term = norm * d ** (m - k) * math.factorial(k - m)
            rho_v = max(rho_v, term)
            q = term / d ** F.alpha
            if q > worst:
                worst, worst_pair = q, (F.points[ia], F.points[ib], m)
    return rho_v, worst, worst_pair


def random_field(rng, n, d, k, count):
    """Jets of mixed degrees -1..k (the zero jet included) at points with
    repeats, centered at their points or nearby."""
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    pts[1] = pts[0]
    pts[4] = pts[2]
    jets = []
    for j, p in enumerate(pts):
        deg = -1 if j == 3 else int(rng.integers(-1, k + 1))
        center = p + (0.0 if j % 2 else rng.normal(scale=0.1, size=n))
        cm = {xi.entries: rng.normal(size=d) for m in range(deg + 1) for xi in xi_set(n, m)}
        jets.append(PolyJet.from_coeff_map(n, center, cm, d) if cm else PolyJet.zero(n, d, center))
    return JetField(tuple(map(tuple, pts)), tuple(jets), k, float(rng.uniform(0.3, 1.0)))


class TestBatchedGate:
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_one_pair_at_a_time(self, n, d):
        # the arrays select the maxima, whose values come from their own pair:
        # for n = 2 too they are the per-pair loop's when it selects the same pair
        from ptdiff import whitney
        rng = np.random.default_rng(10 * n + d)
        for trial in range(6):
            F = random_field(rng, n, d, trial % 4, 11)
            for delta in (0.05, 0.4, 1.0, math.inf):
                want = gate_one_pair_at_a_time(F, delta)
                assert whitney._gate(F, delta) == want, (trial, delta)
                assert rho(F, delta) == want[0], (trial, delta)
            _, worst, pair = gate_one_pair_at_a_time(F)
            with pytest.raises(WhitneyGateError) as exc:
                extend(F, kappa_F=0.5 * worst)
            assert exc.value.worst_pair == pair
            assert str(exc.value).startswith(f"field violates the (k, alpha) gate: "
                                             f"defect {worst:.6g} ")

    def test_zero_degree_bound(self):
        F = JetField(((0.0,), (1.0,)), (PolyJet.zero(1), PolyJet.zero(1)), -1, 1.0)
        assert rho(F, 2.0) == 0.0
        assert extend(F, max_level=6).kappa_F == 0.0

    def test_extend_records_exact_worst(self):
        F = sin_field(np.random.default_rng(3).uniform(0.0, 1.0, size=30))
        _, worst, _ = gate_one_pair_at_a_time(F)
        assert extend(F, max_level=8).kappa_F == worst

    def test_blocks(self, monkeypatch):
        # more ordered pairs than one block holds: the worst pair is still the first
        from ptdiff import whitney
        F = random_field(np.random.default_rng(5), 1, 1, 2, 23)
        want = gate_one_pair_at_a_time(F, 0.7)
        monkeypatch.setattr(whitney, "_GATE_BLOCK", 17)
        assert whitney._gate(F, 0.7) == want
        # constant jets: (a, b) and (b, a) tie, in different blocks
        F = constant_field((0.0, 0.1, 0.5, 0.9), (0.0, 1.0, 0.2, 0.3))
        monkeypatch.setattr(whitney, "_GATE_BLOCK", 2)
        assert whitney._gate(F) == gate_one_pair_at_a_time(F)
        assert whitney._gate(F)[2] == ((0.0,), (0.1,), 0)
        # n = 2: a batched operator norm depends on its block, the gate's values do not
        F = random_field(np.random.default_rng(6), 2, 2, 3, 13)
        want = gate_one_pair_at_a_time(F)
        for size in (5, 64, 2 ** 12):
            monkeypatch.setattr(whitney, "_GATE_BLOCK", size)
            assert whitney._gate(F) == want, size

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2)])
    def test_jets_at_matches_per_jet_eval(self, n, d):
        rng = np.random.default_rng(20 + n)
        F = random_field(rng, n, d, 2, 9)
        ext = WhitneyExtension(F, None, np.zeros(0, dtype=int), 0.0)  # reads only the field
        which = rng.integers(0, 9, size=60)
        X = rng.uniform(-1.5, 1.5, size=(60, n))
        for m in range(4):
            for xi in xi_set(n, m):
                got = ext._jets_at(which, X, xi)
                for j in range(9):
                    sel = which == j
                    want = F.jets[j].derivative(xi).eval(X[sel])
                    assert np.array_equal(got[sel], want), (xi, j)

    def test_jets_at_far_point_mixed_degrees(self):
        # at 1e155 h^2 overflows; a row of a lower-degree jet stays finite
        F = JetField(((0.0,), (1.0,), (2.0,)),
                     (PolyJet.from_coeff_map(1, [0.0], {(0,): 3.0}), PolyJet.zero(1, 1, [1.0]),
                      PolyJet.from_coeff_map(1, [2.0], {(0,): 1.0, (2,): 1.0})), 2, 1.0)
        ext = WhitneyExtension(F, None, np.zeros(0, dtype=int), 0.0)
        X = np.full((3, 1), 1e155)
        for xi in xi_set(1, 0) + xi_set(1, 1):
            with np.errstate(over="ignore"):
                got = ext._jets_at(np.arange(3), X, xi)
                want = [F.jets[j].derivative(xi).eval(X[j]) for j in range(3)]
            assert np.array_equal(got, np.array(want)), xi
            assert np.isfinite(got[:2]).all(), xi


class TestPartition:
    def test_h_values(self):
        A = make_point_set([[0.0]])
        pts = np.array([[0.5], [2.0], [0.01]])
        h = h_function(A, pts)
        assert h[0] == pytest.approx(0.025, rel=1e-14)
        assert h[1] == pytest.approx(0.05, rel=1e-14)  # min(1, 2)/20
        assert h[2] == pytest.approx(0.0005, rel=1e-12)

    def test_point_partition_properties(self):
        A = make_point_set([[0.0]])
        part = partition_of_unity(A, ([0.0], 1.0))
        assert part.V[0] == 1.0
        assert set(part.V) == {0, 1, 2}
        assert part.overlap_bound >= 1
        X = np.array([[0.5], [-0.5], [0.1], [-0.1]])
        rows, ci, D = part.weight_jets(X, 0, part.h(X))
        z = D[zero_index(1)]
        assert np.all(np.abs(np.bincount(rows, weights=z, minlength=4) - 1.0) <= 1e-10)
        # support containment and h-comparability at these probes
        rows, ci = rows[z > 0], ci[z > 0]
        assert np.all(np.abs(X[rows, 0] - part.centers[ci, 0]) <= 10 * part.radii[ci])
        assert np.all(part.h(X)[rows] >= part.radii[ci] / 3.0 - 1e-12)

    def test_derivative_bounds_recorded(self):
        A = make_point_set([[0.0]])
        part = partition_of_unity(A, ([0.0], 1.0))
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.9, 0.9, size=40)
        xs = xs[np.abs(xs) > part.h_floor * 20.0]
        h = part.h(xs[:, None])
        rows, _, D = part.weight_jets(xs[:, None], 2, h)
        hx = h[rows]
        assert np.all(np.abs(D[MultiIndex((1,))]) <= part.V[1] / hx * (1 + 1e-6))
        assert np.all(np.abs(D[MultiIndex((2,))]) <= part.V[2] / hx ** 2 * (1 + 1e-6))

    def test_halfspace_partition(self):
        A = HalfSpace(axis=0, value=0.0, side="le")
        part = partition_of_unity(A, ([1.0], 1.0))
        X = np.array([[0.5], [1.0], [1.8]])
        rows, _, D = part.weight_jets(X, 0, part.h(X))
        sums = np.bincount(rows, weights=D[zero_index(1)], minlength=3)
        assert np.all(np.abs(sums - 1.0) <= 1e-10)

    def test_region_inside_A_rejected(self):
        A = HalfSpace(axis=0, value=10.0, side="le")
        with pytest.raises(PartitionConstructionError):
            partition_of_unity(A, ([0.0], 1.0))

    def test_weight_order_cap(self):
        A = make_point_set([[0.0]])
        part = partition_of_unity(A, ([0.0], 1.0))
        with pytest.raises(ValueError):
            part.weight_jets(np.array([[0.5]]), 3, np.array([0.025]))


@pytest.fixture(scope="module")
def halfspace_partition():
    return partition_of_unity(HalfSpace(0, 0.0, "le"), ([0.0], 3.0))


class TestLocalization:
    # T = g L^1 with g(x) = exp(-8 (x - 1.5)^2): ||g||_inf = 1 attained at
    # distance 1.5 from A = {x <= 0}.  For balls B(b, s) with b in A,
    # |T(phi)| <= 2 s sup_{B(b,s)} g sup|phi|, which certifies
    #   lambda = 0, i = 0: kappa = 2
    #   lambda = 1, i = 0: kappa = 4/3   (sup_{x <= s} g <= s / 1.5 for s <= 3)
    #   lambda = 0, i = 1: kappa = 4     (sup|phi| <= 2 s sup|phi'|)

    def test_zero_distribution(self, dict_cache, halfspace_partition):
        T = function_distribution(1, "0")
        rep = localization_check(T, HalfSpace(0, 0.0, "le"), [0.0], 1.0, 0, 0.0,
                                 1.0, dict_cache(1, 1, 0, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.max_ratio == 0.0

    def test_bump_against_halfspace(self, dict_cache, halfspace_partition):
        T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
        A = HalfSpace(0, 0.0, "le")
        rep = localization_check(T, A, [0.0], 1.0, 0, 0.0, 2.0,
                                 dict_cache(1, 1, 0, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.measure == pytest.approx(3.0, rel=1e-12)
        assert rep.delta == pytest.approx(1.0)
        assert rep.gamma == pytest.approx(15.0)
        assert 0.0 < rep.max_ratio <= 1.0

    def test_smaller_radius(self, dict_cache, halfspace_partition):
        T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
        rep = localization_check(T, HalfSpace(0, 0.0, "le"), [0.0], 0.5, 0, 0.0,
                                 2.0, dict_cache(1, 1, 0, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.max_ratio <= 1.0

    def test_lambda_one(self, dict_cache, halfspace_partition):
        T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
        rep = localization_check(T, HalfSpace(0, 0.0, "le"), [0.0], 1.0, 0, 1.0,
                                 4.0 / 3.0, dict_cache(1, 1, 0, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.max_ratio <= 1.0

    def test_first_order_seminorm(self, dict_cache, halfspace_partition):
        T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
        rep = localization_check(T, HalfSpace(0, 0.0, "le"), [0.0], 1.0, 1, 0.0,
                                 4.0, dict_cache(1, 1, 1, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.max_ratio <= 1.0

    def test_finite_point_set(self, dict_cache):
        # A = {0}: the complement measure is the full ball, kappa = 2 ||g||
        T = function_distribution(1, "exp(-8*(x1-1.5)^2)")
        A = make_point_set([[0.0]])
        rep = localization_check(T, A, [0.0], 1.0, 0, 0.0, 2.0,
                                 dict_cache(1, 1, 0, 6, 0), config=QUAD)
        assert rep.measure == pytest.approx(6.0, rel=1e-12)
        assert rep.max_ratio <= 1.0

    def test_probe_away_from_support(self, dict_cache, halfspace_partition):
        # the distribution sits outside B(a, r): every numerator is zero
        T = function_distribution(1, "exp(-8*(x1-9)^2) @sing(9)")
        rep = localization_check(T, HalfSpace(0, 0.0, "le"), [0.0], 1.0, 0, 0.0,
                                 2.0, dict_cache(1, 1, 0, 6, 0),
                                 partition=halfspace_partition, config=QUAD)
        assert rep.max_ratio <= 1e-10


class TestExtension:
    def test_two_point_lipschitz(self):
        F = constant_field((0.0, 1.0), (0.0, 1.0))
        ext = extend(F, kappa_F=1.0)
        assert ext.eval([0.0])[0] == pytest.approx(0.0, abs=1e-12)
        assert ext.eval([1.0])[0] == pytest.approx(1.0, abs=1e-12)
        semi, c_impl = empirical_hoelder(ext, pair_count=2000)
        assert semi > 0.0 and c_impl == pytest.approx(semi, rel=1e-12)

    def test_sin_field_interpolation(self):
        rng = np.random.default_rng(12)
        pts = np.sort(rng.uniform(0.0, 1.0, size=50))
        F = sin_field(pts)
        ext = extend(F)
        for p in pts:
            for m in range(3):
                got = ext.eval([p], MultiIndex((m,)))[0]
                want = [math.sin(p), math.cos(p), -math.sin(p), -math.cos(p)][m % 4]
                assert got == pytest.approx(want, abs=1e-8), (p, m)

    def test_polynomial_reproduction(self):
        Q = PolyJet.from_coeff_map(1, [0.0], {(0,): 0.5, (1,): -1.0, (2,): 3.0})
        pts = (0.0, 0.2, 0.45, 0.7, 0.9, 1.0)
        F = JetField(tuple((p,) for p in pts),
                     tuple(Q.recenter([p]) for p in pts), 2, 1.0)
        ext = extend(F, kappa_F=1e-9)
        for x in np.linspace(0.05, 0.95, 9):
            assert ext.eval([x])[0] == pytest.approx(Q.eval([x])[0], abs=1e-8)

    def test_empty_field(self):
        F = JetField((), (), 0, 1.0)
        ext = extend(F)
        assert np.all(ext.eval([0.3]) == 0.0)

    def test_gate_rejection(self):
        # steep data with a tiny admissible constant must be rejected,
        # and the offending pair is reported
        F = constant_field((0.0, 0.01), (0.0, 1.0))
        with pytest.raises(WhitneyGateError) as exc:
            extend(F, kappa_F=1.0)
        assert exc.value.worst_pair is not None

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
    def test_gate_constant_must_be_finite_and_positive(self, kappa):
        # the gate test worst > kappa_F * (1 + 1e-9) is False for nan and
        # inf, which would accept a field of defect 1e4
        F = constant_field(tuple(j * 1e-3 for j in range(10)), (0.0,) * 9 + (10.0,))
        with pytest.raises(WhitneyGateError):
            extend(F, kappa_F=2.0)
        with pytest.raises(ValueError, match="finite and positive"):
            extend(F, kappa_F=kappa)

    def test_gate_constant_recorded(self):
        F = constant_field((0.0, 1.0), (0.0, 2.0))
        ext = extend(F)
        assert ext.kappa_F == pytest.approx(2.0, rel=1e-12)

    def test_hoelder_seminorm_recorded(self):
        pts = np.linspace(0.0, 1.0, 12)
        F = sin_field(pts)
        ext = extend(F)
        semi, c_impl = empirical_hoelder(ext, pair_count=1000)
        assert semi >= 0.0
        assert math.isfinite(c_impl)


def field_2d(points):
    """Exact order-2 jets of sin(x) cos(y) at 2-D points."""
    jets = []
    for x, y in points:
        s, c, sy, cy = math.sin(x), math.cos(x), math.sin(y), math.cos(y)
        jets.append(PolyJet.from_coeff_map(2, [x, y], {
            (0, 0): s * cy, (1, 0): c * cy, (0, 1): -s * sy,
            (2, 0): -s * cy, (1, 1): -c * sy, (0, 2): -s * cy}))
    return JetField(tuple(map(tuple, points)), tuple(jets), 2, 1.0)


def brute_force_pairs(part, X):
    """The (row, center) pairs with |x - c| < 10 h(c), one point at a time over all centers."""
    out = []
    for r, x in enumerate(X):
        d = np.linalg.norm(part.centers - x[None, :], axis=1)
        out.extend((r, int(c)) for c in np.nonzero(d < 10.0 * part.radii)[0])
    return out


def batch_tolerance(ext, X, m):
    """How far an order-m value of ext at the rows X may move with its batch.

    A row's D^rest P can differ in the last bit with the size of the batch
    it is evaluated in (BLAS blocking); that bit is multiplied by D^eta
    zeta, which grows like h^-|eta| near the data.
    """
    h = ext.partition.h(X)
    return 1e-13 + 1e-15 * np.where(h > 0, h, 1.0) ** -m


def hoelder_per_scale(ext, pair_count, seed=0):
    """(seminorm, bound): empirical_hoelder's seminorm with one eval call per
    scale and top multi-index, and the most that batch_tolerance lets the
    seminorm of the same pairs differ from it."""
    F = ext.field
    rng = np.random.default_rng(seed)
    center = np.asarray(ext.partition.region[0])
    radius = ext.partition.region[1]
    best = bound = 0.0
    batch = max(1, pair_count // 10)
    for scale_pow in range(10):
        sep = radius * 2.0 ** (-scale_pow - 3)
        xs = rng.uniform(center - 0.6 * radius, center + 0.6 * radius,
                         size=(batch, F.n))
        dirs = rng.normal(size=(batch, F.n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        ys = xs + sep * dirs
        for xi in xi_set(F.n, F.degree):
            g = ext.eval(np.concatenate([xs, ys]), xi)
            num = np.max(np.abs(g[:batch] - g[batch:]), axis=1)
            best = max(best, float(np.max(num)) / sep ** F.alpha)
        tol = batch_tolerance(ext, np.concatenate([xs, ys]), F.degree)
        bound = max(bound, float(np.max(tol[:batch] + tol[batch:])) / sep ** F.alpha)
    return best, bound


class TestBatch:
    @staticmethod
    def case(dim):
        """(extension, rows): data rows, collar rows and rows off the data."""
        rng = np.random.default_rng(4)
        if dim == 1:
            data = np.linspace(0.0, 1.0, 12)[:, None]
            ext = extend(sin_field(data[:, 0]))
            off = rng.uniform(-0.5, 1.5, size=(40, 1))
        else:
            data = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.8], [0.1, 0.9], [0.9, 0.1]])
            ext = extend(field_2d(data), max_level=6)
            off = rng.uniform(-0.3, 1.3, size=(40, dim))
        # collar points: far below the floor, where no center is active
        collar = data[:3] + 1e-7
        assert not ext.partition.weight_jets(collar, 0, ext.partition.h(collar))[2][
            zero_index(dim)].any()
        return ext, np.concatenate([data, collar, off])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_eval_matches_pointwise(self, dim):
        ext, X = self.case(dim)
        for m in range(3):
            for xi in xi_set(dim, m):
                batch = ext.eval(X, xi)
                rows = np.array([ext.eval(x, xi) for x in X])
                assert batch.shape == rows.shape == (X.shape[0], 1)
                assert np.all(np.abs(batch - rows)[:, 0] <= batch_tolerance(ext, X, m)), xi

    @pytest.mark.parametrize("dim", [1, 2])
    def test_sequence_eval_matches_each_index(self, dim):
        ext, X = self.case(dim)
        xis = [xi for m in range(3) for xi in xi_set(dim, m)]
        for seq in (xis, xis[::-1], xis[:1], xis[1:dim + 1]):
            got = ext.eval(X, seq)
            assert got.shape == (X.shape[0], len(seq), 1)
            for j, xi in enumerate(seq):
                assert np.array_equal(got[:, j], ext.eval(X, xi)), xi
        one = ext.eval(X[3], xis)
        assert one.shape == (len(xis), 1)
        for j, xi in enumerate(xis):
            assert np.array_equal(one[j], ext.eval(X[3], xi)), xi
        assert ext.eval(X, []).shape == (X.shape[0], 0, 1)

    @pytest.mark.parametrize("dim,pairs", [(1, 100), (1, 2000), (2, 100), (2, 500)])
    def test_hoelder_matches_per_scale_evaluation(self, dim, pairs, monkeypatch):
        # all scales' pairs in blocks of eval calls: in 1-D the seminorm of
        # one call per scale to the last bit, in 2-D within the batch tolerance
        from ptdiff import whitney
        ext, _ = self.case(dim)
        want, bound = hoelder_per_scale(ext, pairs)
        for block in (whitney._HOELDER_BLOCK, 37):
            monkeypatch.setattr(whitney, "_HOELDER_BLOCK", block)
            semi, c_impl = empirical_hoelder(ext, pair_count=pairs)
            assert semi > 0.0 and c_impl == semi / ext.kappa_F
            if dim == 1:
                assert semi == want, block
            else:
                assert abs(semi - want) <= bound, block

    @pytest.mark.parametrize("case", ["points-1d", "points-2d", "halfspace-2d"])
    def test_active_pairs_match_brute_force(self, case):
        rng = np.random.default_rng(6)
        if case == "points-1d":
            part = partition_of_unity(make_point_set([[0.0], [0.3], [0.35]]), ([0.2], 1.0),
                                      max_level=10, probe_count=200)
            X = rng.uniform(-0.8, 1.2, size=(300, 1))
        elif case == "points-2d":
            part = partition_of_unity(make_point_set([[0.0, 0.0], [0.3, 0.1]]),
                                      ((0.0, 0.0), 1.0), max_level=6, probe_count=200)
            X = rng.uniform(-0.9, 0.9, size=(200, 2))
        else:
            part = partition_of_unity(HalfSpace(0, 0.0, "le"), ((0.5, 0.0), 1.0),
                                      max_level=6, probe_count=200)
            X = rng.uniform([-0.5, -1.0], [1.5, 1.0], size=(200, 2))
        rows, centers = part.active_pairs(X, part.h(X))
        assert list(zip(rows.tolist(), centers.tolist())) == brute_force_pairs(part, X)
        assert len(rows) > len(X)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_point_set_dist_exact(self, dim):
        rng = np.random.default_rng(8)
        arr = rng.uniform(-1.0, 1.0, size=(37, dim))
        pts = rng.uniform(-2.0, 2.0, size=(500, dim))
        reference = np.min(np.linalg.norm(pts[:, None, :] - arr[None, :, :], axis=2), axis=1)
        assert np.array_equal(make_point_set(arr).dist(pts), reference)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_empty_point_set_dist(self, dim):
        # an empty set arrives as np.asarray(()), of shape (0,), whatever dim
        assert np.all(FinitePointSet(()).dist(np.zeros((4, dim))) == np.inf)


def scan_nearest(points, X):
    """The n-dimensional nearest-point scan: a running minimum over every point."""
    top = max(np.abs(c[np.isfinite(c)]).max(initial=0.0) for c in (points, X))
    scale = 2.0 ** (500 - math.frexp(top)[1]) if 2.0 ** 500 < top else 1.0
    best = np.full(X.shape[0], np.inf)
    arg = np.zeros(X.shape[0], dtype=np.int64)
    tied = np.zeros(X.shape[0], dtype=bool)
    Xs = X * scale
    for j, p in enumerate(points * scale):
        d2 = np.sum((Xs - p) ** 2, axis=1)
        closer = d2 < best
        tied = ~closer & (tied | (d2 == best))
        best[closer] = d2[closer]
        arg[closer] = j
    for i in np.flatnonzero(tied & np.isfinite(X).all(axis=1)):
        exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(X[i], p)) for p in points]
        arg[i] = exact.index(min(exact))
    return arg, np.sqrt(best) / scale


@st.composite
def line_cases(draw):
    """(points (npts, 1), queries (nq, 1)) on a line, from one of six families."""
    kind = draw(st.sampled_from(["random", "ties", "far", "huge", "nonfinite", "no-rows"]))
    small = st.floats(-10.0, 10.0)
    if kind == "ties":
        # halves of small integers, duplicates likely; queries at the points
        # and at exact midpoints of two of them
        pts = [i / 2 for i in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=10))]
        pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=10))
        qs = pts + [(a + b) / 2 for a, b in pairs]
    elif kind == "far":
        # every distance to the points rounds to one float near 1e17
        pts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=10))
        qs = [s * 1e17 + o for s, o in draw(st.lists(
            st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(-64, 64)), min_size=1, max_size=10))]
    elif kind == "huge":
        big = st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1.0, 1.0), st.integers(490, 1020))
        pts = draw(st.lists(st.one_of(big, small), min_size=1, max_size=10))
        qs = draw(st.lists(st.one_of(big, small), max_size=10))
    else:
        pts = draw(st.lists(small, min_size=1, max_size=12))
        qs = [] if kind == "no-rows" else draw(st.lists(st.floats(-20.0, 20.0), max_size=12))
        if kind == "nonfinite":
            odd = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300])
            qs = qs + draw(st.lists(odd, min_size=1, max_size=4))
            qs = draw(st.permutations(qs))
    return (np.array(pts, dtype=float).reshape(-1, 1),
            np.array(qs, dtype=float).reshape(-1, 1))


@settings(max_examples=300, deadline=None)
@given(line_cases())
@example((np.array([[0.0], [1.0]]), np.zeros((0, 1))))
@example((np.array([[1.0], [0.0], [1.0]]), np.array([[0.5], [1.0], [math.nan]])))
def test_nearest_line_matches_scan(case):
    points, X = case
    with np.errstate(over="ignore"):
        arg, dist = _nearest(points, X)
        ref_arg, ref_dist = scan_nearest(points, X)
    assert arg.dtype == ref_arg.dtype and arg.tolist() == ref_arg.tolist()
    assert dist.dtype == ref_dist.dtype and dist.tobytes() == ref_dist.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nearest_scaling_ignores_nonfinite_rows(n, bad):
    # a row that is not finite leaves the overflow scaling of the others on
    points = np.zeros((2, n))
    points[1, 0] = 1.0
    X = np.zeros((2, n))
    X[0, 0], X[1, 0] = 1e300, bad
    arg, dist = _nearest(points, X)
    assert arg.tolist() == [1, 0] and dist.tolist() == [1e300, math.inf]
    assert _nearest(points, X[:1])[1].tolist() == [1e300]


def slab_pack(cand, h):
    """Greedy packing that tests every kept center in the coordinate-0 slab of (40/19) h(t)."""
    pts, hs = cand.tolist(), h.tolist()
    keys, kept = [], []

    def overlaps(c, t):
        d2 = 0.0
        for a, b in zip(pts[c], pts[t]):
            d2 += (a - b) * (a - b)
        return math.sqrt(d2) < hs[c] + hs[t]

    for t, (x0, ht) in enumerate(zip(cand[:, 0].tolist(), hs)):
        w = 40.0 / 19.0 * ht * (1.0 + 1e-9)
        lo = bisect.bisect_left(keys, x0 - w)
        hi = bisect.bisect_right(keys, x0 + w, lo)
        if any(overlaps(c, t) for c in kept[lo:hi]):
            continue
        at = bisect.bisect_right(keys, x0, lo, hi)
        keys.insert(at, x0)
        kept.insert(at, t)
    return np.array(sorted(kept), dtype=np.int64)


class TestPackLine:
    @staticmethod
    def ordered_grid(A, region, max_level):
        # the candidates of partition_of_unity, in its order
        cand, h = _candidate_grid(A, region, 1, max_level)
        # the grid's h is h_function's, row for row
        assert np.array_equal(h, h_function(A, cand))
        order = np.argsort(-h)
        return cand[order], h[order]

    @pytest.mark.parametrize("seed", range(4))
    def test_point_set_grid_matches_slab(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 30)), 1))
        cand, h = self.ordered_grid(make_point_set(pts), ((0.0,), 2.0), 12)
        kept = _pack(cand, h)
        assert kept.size > 10 and kept.tolist() == slab_pack(cand, h).tolist()

    @pytest.mark.parametrize("side", ["le", "ge"])
    def test_half_line_grid_matches_slab(self, side):
        cand, h = self.ordered_grid(HalfSpace(0, 0.25, side), ((0.0,), 1.5), 12)
        kept = _pack(cand, h)
        assert kept.size > 10 and kept.tolist() == slab_pack(cand, h).tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_touching_intervals(self, seed):
        # h = 1/4 + x/40 is 1/40-Lipschitz; candidates sit where intervals
        # touch exactly and one ulp either side, in a shuffled order
        xs, x = [], 0.0
        for _ in range(12):
            xs.append(x)
            # x' - x = h(x) + h(x') solved for x', then rounded
            x = (x + 0.25 + x / 40.0 + 0.25) / (1.0 - 1.0 / 40.0)
        near = [np.nextafter(v, s) for v in xs for s in (-np.inf, np.inf)]
        mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
        rng = np.random.default_rng(seed)
        cand = np.array(xs + near + mids)[rng.permutation(len(xs) + len(near) + len(mids))]
        cand = cand.reshape(-1, 1)
        h = 0.25 + cand[:, 0] / 40.0
        kept = _pack(cand, h)
        assert kept.tolist() == slab_pack(cand, h).tolist()
        # the touching tests decide some candidates either way
        assert 0 < kept.size < cand.shape[0]


def full_grid(A, region, n, max_level):
    """_candidate_grid without its 1-D windows: h at every point of every level."""
    center = np.asarray(region[0], dtype=float).reshape(n)
    radius = float(region[1])
    cands, hs = [np.zeros((0, n))], [np.zeros(0)]
    for level in range(1, max_level + 1):
        spacing = radius / 2 ** level
        axes = [np.arange(center[j] - radius, center[j] + radius + spacing / 2, spacing)
                for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        h = h_function(A, pts)
        keep = (h >= spacing / 4.0) & (h <= spacing * 4.0)
        cands.append(pts[keep])
        hs.append(h[keep])
    return np.concatenate(cands), np.concatenate(hs)


def jittered_field(seed, count=40):
    """(point set, region) of a jittered 1-D field, with the region ``extend`` gives it."""
    rng = np.random.default_rng(seed)
    pts = (np.arange(count) + 0.5 + rng.uniform(-0.25, 0.25, size=count)) / count
    center = (pts.min() + pts.max()) / 2.0
    return make_point_set(pts[:, None]), ((center,), float(np.max(np.abs(pts - center))) + 1.0)


LINE_SETS = {
    # h clipped at 1/20 on [-3, -1], [1, 2], [4, 9] and [11, 13]
    "plateau": (make_point_set([[0.0], [3.0], [10.0]]), ((5.0,), 8.0), 12),
    # exact grid midpoints and candidates repeated across levels
    "dyadic": (make_point_set(np.arange(17)[:, None] / 16), ((0.5,), 1.0), 12),
    "uniform-200": (make_point_set(np.random.default_rng(0).uniform(0.0, 1.0, (200, 1))),
                    ((0.5,), 1.5), 14),
    **{f"field-{seed}": (*jittered_field(seed), 14) for seed in (1, 2, 3)},
}


class TestLineSweeps:
    """The 1-D packing, candidate grid and active pairs against the general versions."""

    @pytest.mark.parametrize("case", sorted(LINE_SETS))
    def test_sweep_is_the_greedy(self, case):
        A, region, levels = LINE_SETS[case]
        cand, h = TestPackLine.ordered_grid(A, region, levels)
        swept = _sweep_line(cand[:, 0], h)
        # the sweep's rows pass the check, so the slab loop does not run
        assert swept is not None and _is_greedy(cand[:, 0], h, *swept)
        assert swept[0].tolist() == _pack(cand, h).tolist() == slab_pack(cand, h).tolist()

    @pytest.mark.parametrize("x,h", [
        # the valley at 0.01 overlaps the kept 0.0105 on its own side of 0
        ([-0.5, 0.5, -0.3, 0.0105, 0.01], [0.025, 0.025, 0.015, 0.000525, 0.0005]),
        # the second row clears the first, though x + h rounds past x_0 - h_0
        ([0.10693527929607104, 0.009908689665855851, -0.01402519293613896],
         [0.049158824426225566, 0.04786776520398962, 0.043080988683590664]),
        # the second row overlaps the first, though x + h rounds below x_0 - h_0
        ([1.8195289525024236, 1.7805260458007066, 1.7433280282162504],
         [0.02040389790948893, 0.018599008792228127, 0.016739107913005313]),
    ])
    def test_sweep_at_hand_built_edges(self, x, h):
        x, h = np.array(x), np.array(h)
        swept = _sweep_line(x, h)
        assert swept is not None and _is_greedy(x, h, *swept)
        assert swept[0].tolist() == slab_pack(x[:, None], h).tolist()

    def test_fallback_decides_out_of_order(self):
        # the candidates of field-1 in a shuffled order: h no longer descends
        A, region, levels = LINE_SETS["field-1"]
        cand, h = TestPackLine.ordered_grid(A, region, 10)
        shuffle = np.random.default_rng(3).permutation(h.size)
        cand, h = cand[shuffle], h[shuffle]
        swept = _sweep_line(cand[:, 0], h)
        assert swept is None or not _is_greedy(cand[:, 0], h, *swept)
        assert _pack(cand, h).tolist() == slab_pack(cand, h).tolist()

    def test_check_rejects_other_rows(self):
        A, region, levels = LINE_SETS["plateau"]
        cand, h = TestPackLine.ordered_grid(A, region, levels)
        x = cand[:, 0]
        kept, witness = _sweep_line(x, h)
        dropped = np.setdiff1d(np.arange(x.size), kept)
        assert _is_greedy(x, h, kept, witness)
        assert not _is_greedy(x, h, kept[1:], witness)  # a row missing
        assert not _is_greedy(x, h, np.union1d(kept, dropped[:1]), witness)  # a row too many
        wrong = witness.copy()
        wrong[dropped[0]] = dropped[0]  # a dropped row is not its own witness
        assert not _is_greedy(x, h, kept, wrong)

    @pytest.mark.parametrize("A,region", [
        (make_point_set(np.random.default_rng(2).uniform(-1.0, 1.0, (25, 1))), ((0.0,), 2.0)),
        (make_point_set(np.arange(17)[:, None] / 16), ((0.5,), 1.0)),
        (make_point_set([[0.0], [3.0], [10.0]]), ((5.0,), 8.0)),
        (make_point_set([[0.1]]), ((0.0,), 0.7)),
        (HalfSpace(0, 0.25, "le"), ((0.0,), 1.5)),
        (HalfSpace(0, 0.25, "ge"), ((0.0,), 1.5)),
    ])
    def test_grid_matches_full_grid(self, A, region):
        got, want = _candidate_grid(A, region, 1, 13), full_grid(A, region, 1, 13)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_grid_evaluates_the_band_windows(self, monkeypatch):
        # TestPartitionPins' 40-point field: 65,546 grid points in all, of
        # which about 18,000 lie within 80 s of a data point at their level
        from ptdiff import whitney
        counted = []

        def counting(A, pts):
            counted.append(pts.shape[0])
            return h_function(A, pts)

        monkeypatch.setattr(whitney, "h_function", counting)
        _candidate_grid(jittered_field(5)[0], ((0.5,), 1.5), 1, 14)
        assert sum(counted) <= 20_000

    def test_distances_settle_no_ties(self, monkeypatch):
        # every exact grid midpoint of a dyadic set ties; only the index needs settling
        from ptdiff import whitney

        def refuse(*args):
            raise AssertionError("exact tie settling")

        monkeypatch.setattr(whitney, "Fraction", refuse)
        points = np.arange(33)[:, None] / 32
        cand, h = _candidate_grid(make_point_set(points), ((0.5,), 1.0), 1, 10)
        assert np.array_equal(h, make_point_set(points).dist(cand) / 20.0)
        with pytest.raises(AssertionError, match="exact tie settling"):
            _nearest(points, np.array([[1 / 64]]))

    @pytest.mark.parametrize("case", ["dyadic", "field-1"])
    def test_line_active_pairs_at_the_ends(self, case):
        A, region, _ = LINE_SETS[case]
        part = partition_of_unity(A, region, max_level=10, probe_count=200)
        c, r = part.centers[:, 0], 10.0 * part.radii
        ends = np.concatenate([c - r, c + r])
        X = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])[:, None]
        rows, centers = part.active_pairs(X, part.h(X))
        assert list(zip(rows.tolist(), centers.tolist())) == brute_force_pairs(part, X)
        assert len(rows) > len(X)


class TestPartitionPins:
    # centers, overlap and V of two partitions, taken from the one-point
    # implementation before evaluation was batched

    def test_point_1d(self):
        part = partition_of_unity(make_point_set([[0.0]]), ([0.0], 1.0))
        assert part.centers.shape == (142, 1)
        assert part.overlap_bound == 11
        assert part.V[1] == pytest.approx(0.07166853331447237, rel=1e-12)
        assert part.V[2] == pytest.approx(0.09815721099568832, rel=1e-12)

    def test_halfspace_2d(self):
        part = partition_of_unity(HalfSpace(0, 0.0, "le"), ((0.5, 0.0), 1.0),
                                  max_level=7, probe_count=200)
        assert part.centers.shape == (3103, 2)
        assert part.overlap_bound == 76
        assert part.V[1] == pytest.approx(0.014931030058468972, rel=1e-12)
        assert part.V[2] == pytest.approx(0.01831140503429391, rel=1e-12)

    def test_point_1d_jittered_digest(self):
        # the kept centers of a 40-point field, as bytes, pinned before the
        # 1-D packing tested only the two kept neighbours
        rng = np.random.default_rng(5)
        pts = (np.arange(40) + 0.5 + rng.uniform(-0.25, 0.25, size=40)) / 40
        part = partition_of_unity(make_point_set(pts[:, None]), ((0.5,), 1.5), probe_count=200)
        assert part.centers.shape == (2187, 1)
        assert hashlib.sha256(part.centers.tobytes()).hexdigest() == (
            "700cd9ed59e4f10f27467307d03fd767ac07d50fae44372c2b349511423cebf0")

    def test_no_probe_above_floor_refines(self):
        # at level 5 the floor is 0.0625 and h never exceeds 0.05, so no probe
        # is checked; that attempt fails and the grid is refined
        part = partition_of_unity(HalfSpace(0, 0.0, "le"), ((0.5, 0.0), 1.0),
                                  max_level=5, probe_count=200)
        assert part.overlap_bound >= 1
        assert part.V[1] > 0.0
