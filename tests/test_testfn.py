"""Bump-based test functions: derivatives, rescaling, seminorms, dictionaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_directional_max
from ptdiff import (MultiIndex, bump_monomial, make_dictionary, seminorm,
                    standard_bump, xi_set)
from ptdiff import cores, testfn
from ptdiff.cores import UnsupportedOrderError, bump_1d
from ptdiff.testfn import _candidate_stream, _sum_of_bumps


class TestEvalDeriv:
    def test_bump_value_at_origin(self):
        b = standard_bump(1)
        assert b.eval_deriv(MultiIndex((0,)), [0.0])[0] == pytest.approx(
            math.exp(-1.0), rel=1e-14)

    def test_bump_first_derivative_odd(self):
        b = standard_bump(1)
        assert b.eval_deriv(MultiIndex((1,)), [0.0])[0] == 0.0

    def test_zero_outside_support(self):
        rng = np.random.default_rng(0)
        b = standard_bump(2)
        pts = rng.uniform(1.0, 3.0, size=(100, 2)) * rng.choice([-1, 1], size=(100, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        for xi in (MultiIndex((0, 0)), MultiIndex((1, 0)), MultiIndex((2, 1))):
            vals = b.eval_deriv(xi, pts)
            assert np.all(vals == 0.0)

    def test_finite_difference_consistency(self):
        # central differences of D^xi reproduce D^{xi+e_j} at interior points
        rng = np.random.default_rng(1)
        b = standard_bump(1)
        pts = rng.uniform(-0.8, 0.8, size=100)
        h = 1e-6
        for order in range(0, 3):
            lo = b.eval_deriv(MultiIndex((order,)), (pts - h)[:, None])[:, 0]
            hi = b.eval_deriv(MultiIndex((order,)), (pts + h)[:, None])[:, 0]
            fd = (hi - lo) / (2 * h)
            exact = b.eval_deriv(MultiIndex((order + 1,)), pts[:, None])[:, 0]
            scale = np.max(np.abs(exact)) + 1.0
            assert np.max(np.abs(fd - exact)) <= 1e-5 * scale

    def test_order_too_high_rejected(self):
        b = standard_bump(1)
        with pytest.raises(UnsupportedOrderError):
            b.eval_deriv(MultiIndex((9,)), [0.0])

    def test_bump_1d_matches(self):
        xs = np.linspace(-0.9, 0.9, 11)
        b = standard_bump(1)
        np.testing.assert_allclose(
            bump_1d(xs), b.eval_deriv(MultiIndex((0,)), xs[:, None])[:, 0],
            rtol=1e-14)


def _off_axis_probe(seed):
    """Seeded 2-D sum of three signed bumps with off-axis centers."""
    if seed is None:
        return _sum_of_bumps(2, 1, [((0.3, 0.2), 0.5, 1.0),
                                    ((-0.2, -0.35), 0.4, -0.7)], 0, "off")
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(3):
        rad, ang = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2.0 * np.pi)
        terms.append(((rad * np.cos(ang), rad * np.sin(ang)),
                      float(rng.uniform(0.25, 0.45)), float(rng.uniform(-1.0, 1.0))))
    return _sum_of_bumps(2, 1, terms, 0, f"off_{seed}")


def _dense_seminorm(phi, i):
    """sup of the order-i operator norm by grid search, 4,096 directions per point.

    A 129^2 grid over the support box, then around each of its 8 best
    points three nested 21^2 grids, each ten times finer than the one
    before (final spacing 2 r / 128 / 1000).
    """
    indices = xi_set(2, i)

    def norms(pts):
        values = np.stack([phi.eval_deriv(xi, pts) for xi in indices], axis=1)
        return dense_directional_max(values, i)

    def square(half, count):
        g = np.linspace(-half, half, count)
        return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)

    h = 2.0 * phi.support_radius / 128
    pts = np.asarray(phi.support_center) + square(phi.support_radius, 129)
    vals = norms(pts)
    best = float(vals.max())
    for center in pts[np.argsort(vals)[-8:]]:
        width = h
        for _ in range(3):
            local = center + square(width, 21)
            lv = norms(local)
            center = local[int(lv.argmax())]
            best = max(best, float(lv.max()))
            width /= 10.0
    return best


def _atom_loop(phi, xi, pts):
    """D^xi phi summed one atom at a time over every point: the reference."""
    if isinstance(phi, testfn.DerivedTestFn):
        return _atom_loop(phi.base, xi + phi.offset, pts)
    out = np.zeros((pts.shape[0], phi.d))
    for a in phi.atoms:
        u = (pts - np.asarray(a.center)) / a.radius
        vals = cores.core_eval(phi.n, a.kind, a.core_xi, xi, u)
        out += (a.radius ** (-xi.order) * vals)[:, None] * np.asarray(a.coeff)[None, :]
    return out


def _probe(n, label, seed=3):
    return next(c for c in _candidate_stream(n, 1, seed) if c.label == label)


def _boundary_points(phi, rng, count=6):
    """Points within 1e-12 (relative) of atom support spheres, on both sides."""
    n = phi.n
    atoms = getattr(phi, "base", phi).atoms
    rows = []
    for a in atoms[:: max(1, len(atoms) // count)]:
        for rel in (-1e-12, -4e-13, 0.0, 4e-13, 1e-12):
            v = rng.normal(size=n)
            rows.append(np.asarray(a.center) + a.radius * (1.0 + rel) * v / np.linalg.norm(v))
    return np.asarray(rows)


def _mixed_kinds():
    """Bump and bump-times-monomial atoms at different centers: two core groups."""
    mono = bump_monomial(2, (1, 1)).rescale([0.2, -0.1], 0.6)
    return mono.plus(standard_bump(2).rescale([-0.3, 0.25], 0.5)).plus(
        bump_monomial(2, (0, 2)).rescale([0.1, 0.3], 0.4))


BATCH_PROBES = {
    "plateau_1d_w0.2": lambda kc: _probe(1, "plateau_w0.2"),
    "plateau_1d_w0.05": lambda kc: _probe(1, "plateau_w0.05"),
    "odd_plateau_1d_w0.1": lambda kc: _probe(1, "odd_plateau_axis0_w0.1"),
    "random_1d": lambda kc: _probe(1, "random_0"),
    "plateau_2d_w0.2": lambda kc: _probe(2, "plateau_w0.2"),
    "odd_plateau_2d_axis1_w0.2": lambda kc: _probe(2, "odd_plateau_axis1_w0.2"),
    "random_2d_rescaled": lambda kc: _probe(2, "random_1").rescale([0.3, -0.2], 0.7),
    "mixed_kinds_2d": lambda kc: _mixed_kinds(),
    "moment_kernel_1d_deg4": lambda kc: kc(1, 4).translated_scaled([0.1], 0.3),
    "derived_plateau_1d": lambda kc: _probe(1, "plateau_w0.1").derivative_view(
        MultiIndex((1,))),
}


class TestBatchedAtoms:
    """Batched eval_deriv is bit-identical to the per-atom loop."""

    @pytest.mark.parametrize("name", sorted(BATCH_PROBES))
    def test_bit_identical(self, name, kernel_cache):
        phi = BATCH_PROBES[name](kernel_cache)
        rng = np.random.default_rng(11)
        c = np.asarray(phi.support_center)
        r = phi.support_radius
        pts = np.concatenate([c + rng.uniform(-1.3 * r, 1.3 * r, size=(400, phi.n)),
                              _boundary_points(phi, rng)])
        for order in range(0, 4):
            for xi in xi_set(phi.n, order):
                got = phi.eval_deriv(xi, pts)
                assert got.shape == (pts.shape[0], phi.d)
                assert np.array_equal(got, _atom_loop(phi, xi, pts)), (name, xi.entries)
                one = phi.eval_deriv(xi, pts[7])
                assert one.shape == (phi.d,)
                assert np.array_equal(one, _atom_loop(phi, xi, pts[7:8])[0])
                empty = phi.eval_deriv(xi, np.empty((0, phi.n)))
                assert empty.shape == (0, phi.d)

    @pytest.mark.parametrize("n", [1, 2])
    def test_blocks_cross_pairs(self, n, monkeypatch):
        phi = _probe(n, "plateau_w0.1")
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.1, 1.1, size=(600, n))
        want = [_atom_loop(phi, xi, pts) for xi in xi_set(n, 1)]
        monkeypatch.setattr(testfn, "PAIR_BLOCK", 97)
        for xi, ref in zip(xi_set(n, 1), want):
            assert np.array_equal(phi.eval_deriv(xi, pts), ref)

    def test_far_and_non_finite_points(self):
        # points far outside every box make a batch span far more bins than
        # the atoms need; a non-finite point is 0, as in the per-atom loop
        phi = _probe(2, "plateau_w0.2")
        pts = np.array([[5.0, 5.0], [-7.0, 0.0], [0.0, 0.0], [0.05, -0.3],
                        [300.0, -200.0], [1e-9, 1e-9]])
        for xi in xi_set(2, 2):
            assert np.array_equal(phi.eval_deriv(xi, pts), _atom_loop(phi, xi, pts))
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf):
                odd = np.vstack([pts, [[bad, 0.1]]])
                got = phi.eval_deriv(xi_set(2, 0)[0], odd)
                assert got[-1, 0] == 0.0
                assert np.array_equal(got[:-1], phi.eval_deriv(xi_set(2, 0)[0], pts))

    def test_plateau_2d_seminorm_pinned(self):
        # the value before atoms were culled, to the last bit
        assert seminorm(_probe(2, "plateau_w0.2", seed=0), 0) == 1.9636091265808011


class TestSeminorm:
    def test_nu0_closed_form(self):
        assert seminorm(standard_bump(1), 0) == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_nu1_grid_value(self):
        # the maximum of |b'| sits near x = 0.755
        assert seminorm(standard_bump(1), 1) == pytest.approx(0.7984296758, rel=1e-4)

    def test_zero_function(self):
        z = standard_bump(1).scaled_by(0.0)
        assert seminorm(z, 0) == 0.0

    def test_rescale_chain_rule(self):
        b = standard_bump(1)
        for r in (0.5, 0.25, 2.0):
            scaled = b.rescale([0.0], r)
            assert seminorm(scaled, 1) == pytest.approx(seminorm(b, 1) / r, rel=1e-3)

    def test_top_indices_match_stable_argsort(self):
        # the screen's candidates: the first count of a stable argsort of -values
        rng = np.random.default_rng(7)
        screens = [np.zeros(100), np.zeros(9), rng.uniform(size=9), rng.uniform(size=64),
                   np.round(rng.uniform(size=500), 1), rng.integers(0, 3, size=300) * 0.5,
                   np.where(rng.uniform(size=400) < 0.9, 0.0, rng.uniform(size=400)),
                   np.repeat(rng.uniform(size=40), 5), np.zeros(0)]
        for values in screens:
            for count in (1, 5, 64, 65, 200):
                want = np.sort(np.argsort(-values, kind="stable")[:count])
                assert np.array_equal(testfn._top_indices(values, count), want), (values, count)

    def test_short_grid(self):
        # 9 grid points, fewer than SCREEN_CANDIDATES: every point is a candidate
        assert seminorm(standard_bump(1), 0, grid_points=8) == pytest.approx(
            math.exp(-1.0), rel=1e-6)

    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_2d_matches_dense_reference(self, seed, i):
        # the documented tolerance: a lower bound within rel_tol = 1e-4
        phi = _off_axis_probe(seed)
        got = seminorm(phi, i)
        ref = _dense_seminorm(phi, i)
        assert abs(got - ref) <= 1e-4 * ref, (got, ref)


class TestRescale:
    def test_identity(self):
        b = standard_bump(1)
        xs = np.linspace(-1.5, 1.5, 13)[:, None]
        np.testing.assert_allclose(b.rescale([0.0], 1.0)(xs), b(xs), rtol=1e-14)

    def test_support_scaling(self):
        b = standard_bump(1).rescale([0.0], 0.5)
        assert b.support_radius == pytest.approx(0.5)
        assert b([[0.6]])[0, 0] == 0.0
        assert b([[0.3]])[0, 0] > 0.0

    def test_derivative_chain_rule_values(self):
        b = standard_bump(1)
        r, a = 0.3, 0.2
        scaled = b.rescale([a], r)
        xs = np.linspace(a - 0.25, a + 0.25, 7)
        inner = ((xs - a) / r)[:, None]
        got = scaled.eval_deriv(MultiIndex((2,)), xs[:, None])[:, 0]
        ref = b.eval_deriv(MultiIndex((2,)), inner)[:, 0] / r ** 2
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


class TestDictionary:
    def test_size_and_normalization(self):
        d = make_dictionary(1, 1, 0, 8, 7)
        assert len(d.members) == 8
        for m in d.members:
            nu = seminorm(m, 0)
            assert 0.0 < nu <= 1.0 + 1e-9

    def test_determinism(self):
        a = make_dictionary(1, 1, 0, 8, 7)
        b = make_dictionary(1, 1, 0, 8, 7)
        assert [m.label for m in a.members] == [m.label for m in b.members]
        xs = np.linspace(-0.9, 0.9, 5)[:, None]
        for ma, mb in zip(a.members, b.members):
            np.testing.assert_array_equal(ma(xs), mb(xs))

    def test_prefix_stability(self):
        small = make_dictionary(1, 1, 0, 6, 3)
        large = make_dictionary(1, 1, 0, 12, 3)
        assert [m.label for m in small.members] == \
            [m.label for m in large.members[:6]]

    @given(st.integers(0, 2), st.integers(0, 50))
    @settings(max_examples=12, deadline=None)
    def test_scaling_inequality(self, i, seed):
        # sup||D^m phi|| <= r^{i-m} sup||D^i phi|| for rescaled members
        d = make_dictionary(1, 1, i, 6, seed)
        r = 0.5
        for member in d.members[:4]:
            phi = member.rescale([0.0], r)
            for m in range(0, i + 1):
                lhs = seminorm(phi, m)
                rhs = r ** (i - m) * seminorm(phi, i)
                assert lhs <= rhs * (1 + 1e-3)
