"""Jet-consistency functional, partition of unity, localization, extension."""

import itertools
import math

import numpy as np
import pytest

from ptdiff import (FinitePointSet, HalfSpace, JetField, MultiIndex, PolyJet,
                    WhitneyGateError, empirical_hoelder, extend,
                    function_distribution, localization_check, make_point_set,
                    partition_of_unity, rho, xi_set)
from ptdiff.quadrature import QuadratureConfig
from ptdiff.tensor import opnorm_bounds
from ptdiff.whitney import PartitionConstructionError, WhitneyExtension, h_function

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
            norm, _ = opnorm_bounds(Pa.tensor(m) - Pb.tensor(m))
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
        for x in (0.5, -0.5, 0.1, -0.1):
            idx, z = part.weights([x])
            assert abs(z.sum() - 1.0) <= 1e-10, x
            # support containment and h-comparability at this probe
            hx = float(part.h(np.array([[x]]))[0])
            for ci, zi in zip(idx, z):
                if zi > 0:
                    assert abs(x - part.centers[ci, 0]) <= 10 * part.radii[ci]
                    assert hx >= part.radii[ci] / 3.0 - 1e-12

    def test_derivative_bounds_recorded(self):
        A = make_point_set([[0.0]])
        part = partition_of_unity(A, ([0.0], 1.0))
        rng = np.random.default_rng(3)
        xs = rng.uniform(-0.9, 0.9, size=40)
        xs = xs[np.abs(xs) > part.h_floor * 20.0]
        for x in xs:
            hx = float(part.h(np.array([[x]]))[0])
            _, d1 = part.weight_deriv([x], MultiIndex((1,)))
            _, d2 = part.weight_deriv([x], MultiIndex((2,)))
            if d1.size:
                assert np.max(np.abs(d1)) <= part.V[1] / hx * (1 + 1e-6)
            if d2.size:
                assert np.max(np.abs(d2)) <= part.V[2] / hx ** 2 * (1 + 1e-6)

    def test_halfspace_partition(self):
        A = HalfSpace(axis=0, value=0.0, side="le")
        part = partition_of_unity(A, ([1.0], 1.0))
        for x in (0.5, 1.0, 1.8):
            _, z = part.weights([x])
            assert abs(z.sum() - 1.0) <= 1e-10, x

    def test_region_inside_A_rejected(self):
        A = HalfSpace(axis=0, value=10.0, side="le")
        with pytest.raises(PartitionConstructionError):
            partition_of_unity(A, ([0.0], 1.0))

    def test_weight_order_cap(self):
        A = make_point_set([[0.0]])
        part = partition_of_unity(A, ([0.0], 1.0))
        with pytest.raises(ValueError):
            part.weight_deriv([0.5], MultiIndex((3,)))


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


class TestBatch:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_eval_matches_pointwise(self, dim):
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
        for x in collar:
            assert ext.partition.weights(x)[1].sum() == 0.0
        X = np.concatenate([data, collar, off])
        h = ext.partition.h(X)
        for m in range(3):
            for xi in xi_set(dim, m):
                batch = ext.eval(X, xi)
                rows = np.array([ext.eval(x, xi) for x in X])
                assert batch.shape == rows.shape == (X.shape[0], 1)
                # a row's D^rest P can differ in the last bit with the size of the
                # batch it is evaluated in (BLAS blocking); that bit is multiplied
                # by D^eta zeta, which grows like h^-|eta| near the data
                tol = 1e-13 + 1e-15 * np.where(h > 0, h, 1.0) ** -m
                assert np.all(np.abs(batch - rows)[:, 0] <= tol), xi

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
        rows, centers = part.active_pairs(X)
        assert list(zip(rows.tolist(), centers.tolist())) == brute_force_pairs(part, X)
        assert len(rows) > len(X)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_point_set_dist_exact(self, dim):
        rng = np.random.default_rng(8)
        arr = rng.uniform(-1.0, 1.0, size=(37, dim))
        pts = rng.uniform(-2.0, 2.0, size=(500, dim))
        reference = np.min(np.linalg.norm(pts[:, None, :] - arr[None, :, :], axis=2), axis=1)
        assert np.array_equal(make_point_set(arr).dist(pts), reference)

    def test_empty_point_set_dist(self):
        assert np.all(FinitePointSet(()).dist(np.zeros((4, 2))) == np.inf)


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

    def test_no_probe_above_floor_refines(self):
        # at level 5 the floor is 0.0625 and h never exceeds 0.05, so no probe
        # is checked; that attempt fails and the grid is refined
        part = partition_of_unity(HalfSpace(0, 0.0, "le"), ((0.5, 0.0), 1.0),
                                  max_level=5, probe_count=200)
        assert part.overlap_bound >= 1
        assert part.V[1] > 0.0
