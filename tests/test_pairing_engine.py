"""The lockstep quadrature engine and pair_many: equal to one integral at a time.

Every pairing, every integral and every test-function value is held to
the one-at-a-time result bit for bit, and the values to an independent
adaptive quadrature (scipy's QUADPACK) within their stated bounds.  The
closed-form pairing of polynomials is held to quadrature, and its bump
moments to mpmath, within the sum of the bounds.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from ptdiff import (ClassifierConfig, JetConfig, MultiIndex, PairingResult, PolyJet,
                    QuadratureConfig, QuadratureNonConvergence, TestFn, classify,
                    delta_distribution, derivative, function_distribution, integrate_box,
                    integrate_boxes, make_dictionary, pair, pair_many, polynomial_distribution,
                    subtract_jet, xi_set, zero_index)
from ptdiff import distribution, momentkernel, quadrature, testfn
from ptdiff.cores import core_eval
from ptdiff.testfn import StackedFns, eval_stacked

CLASSIFY_QUAD = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 12)
T_GAUSS2D = function_distribution(2, "exp(-x1^2-x2^2)")


def _one_at_a_time(pairs, config):
    return [pair(T, phi, config, strict=False) for T, phi in pairs]


class TestPairMany:
    @pytest.mark.parametrize("item", ["heaviside", "abs_sqrt", "exp", "osc"])
    def test_corpus_1d(self, corpus, item):
        T = corpus[item].build()
        R = subtract_jet(T, PolyJet.from_coeff_map(1, [0.0], {(0,): 0.5, (1,): 0.25}))
        probes = make_dictionary(1, 1, 0, 12, 1).members
        radii = 2.0 ** -np.arange(10)
        pairs = [(R, m.rescale([0.0], float(r))) for m in probes for r in radii]
        got = pair_many(pairs, CLASSIFY_QUAD, strict=False)
        assert all(isinstance(g, PairingResult) for g in got)
        assert got == _one_at_a_time(pairs, CLASSIFY_QUAD)

    def test_gauss2d(self, corpus):
        # one-ball probes and multi-ball plateaus and random sums, all in one
        # stacked evaluator
        T = corpus["gauss2d"].build()
        members = make_dictionary(2, 1, 0, 15, 0).members
        probes = [m for m in members if len(m.atoms) == 1][:6]
        stream = itertools.islice(testfn._candidate_stream(2, 1, 0), 40)
        multi = [c for c in stream
                 if c.label in ("plateau_w0.2", "odd_plateau_axis0_w0.2", "random_0")]
        assert len(multi) == 3 and all(len(m.atoms) > 1 for m in multi)
        a = [0.2, -0.1]
        pairs = [(T, m.rescale(a, float(r))) for m in probes for r in 2.0 ** -np.arange(5)]
        pairs += [(T, m.rescale(a, r)) for m in multi for r in (1.0, 0.5, 0.25)]
        config = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 7)
        assert pair_many(pairs, config, strict=False) == _one_at_a_time(pairs, config)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["function", "polynomial", "delta"])
    def test_zero_test_function(self, n, kind):
        # a test function without atoms is the zero function: it pairs to 0
        # with bound 0, alone or between other probes of one call
        origin = (0.0,) * n
        T = {"function": function_distribution(n, "x1"),
             "polynomial": polynomial_distribution(PolyJet.from_coeff_map(
                 n, origin, {(0,) * n: 1.0, (1,) + (0,) * (n - 1): 2.0})),
             "delta": delta_distribution(n, (0.1,) * n)}[kind]
        zero = TestFn.of(n, 1, (), origin, 1.0)
        res = pair(T, zero)
        assert (res.value, res.abs_error_bound) == (0.0, 0.0)
        probes = make_dictionary(n, 1, 0, 4, 0).members
        pairs = [(T, probes[0].rescale(origin, 0.5)), (T, zero), (T, probes[3])]
        assert pair_many(pairs, CLASSIFY_QUAD, strict=False) == \
            _one_at_a_time(pairs, CLASSIFY_QUAD)

    def test_mixed_atoms_and_targets(self, corpus):
        # one call: delta atoms, derivative atoms, a polynomial-only T and a
        # d = 2 target, whose integrals run in a separate engine group
        probes = make_dictionary(1, 1, 0, 8, 0).members
        probes2 = make_dictionary(1, 2, 0, 6, 0).members
        heaviside = corpus["heaviside"].build()
        dists = [corpus["delta0"].build(), derivative(heaviside, (1,)),
                 derivative(derivative(heaviside, (1,)), (1,)), corpus["poly_deg3"].build()]
        pairs = [(T, m.rescale([0.1], r)) for T in dists for m in probes for r in (1.0, 0.3)]
        annuli = corpus["annuli"].build()
        pairs += [(annuli, m.rescale([0.0], r)) for m in probes2 for r in (1.0, 0.3)]
        pairs += [(heaviside, m.rescale([0.0], 0.5).derivative_view(MultiIndex((1,))))
                  for m in probes]
        assert pair_many(pairs, CLASSIFY_QUAD, strict=False) == \
            _one_at_a_time(pairs, CLASSIFY_QUAD)

    def test_empty_and_incompatible(self, corpus):
        assert pair_many([]) == []
        probe = make_dictionary(1, 2, 0, 4, 0).members[0]
        with pytest.raises(ValueError):
            pair_many([(corpus["heaviside"].build(), probe)])


def _oscillating(p):
    x = p[:, 0]
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = x[nz] ** 2 * np.sin(1.0 / x[nz])
    return out


ENGINE_CASES = [
    # (integrand, lo, hi, split coordinates)
    (_oscillating, [-1.0], [1.0], [[0.0]]),  # cells freeze at the width floor
    (lambda p: np.sin(50.0 / (p[:, 0] + 1.001)), [-1.0], [1.0], ()),  # budget
    (lambda p: np.cos(p[:, 0]), [1.0], [1.0], ()),  # empty box
    (lambda p: np.abs(p[:, 0] - 0.3), [-1.0], [1.0], [[0.3]]),  # split coordinate
    (lambda p: np.exp(p[:, 0]), [0.0], [2.0], ()),
    (lambda p: np.sin(50.0 / (p[:, 0] + 1.01)), [-1.0], [1.0], ()),  # budget, larger
]
ENGINE_CONFIG = QuadratureConfig(rel_tol=1e-13, abs_floor=0.0, max_cells=64, min_width=1e-3)


def _dispatch(fs):
    def f(pts, job):
        assert np.all(np.diff(job) >= 0)  # each job's points are one run
        out = np.empty(len(pts))
        for j in np.unique(job):
            sel = job == j
            out[sel] = fs[j](pts[sel])
        return out
    return f


class TestIntegrateBoxes:
    def test_equals_one_at_a_time(self):
        fs = [c[0] for c in ENGINE_CASES]
        jobs = [c[1:] for c in ENGINE_CASES]
        got = integrate_boxes(_dispatch(fs), jobs, ENGINE_CONFIG, strict=False)
        want = [integrate_box(f, *job, config=ENGINE_CONFIG, strict=False)
                for f, job in zip(fs, jobs)]
        assert got == want
        assert got[2] == (0.0, 0.0, 0)
        assert all(isinstance(v, float) and isinstance(c, int) for v, _, c in got)

    def test_strict_raises_first_failing_job(self):
        fs = [c[0] for c in ENGINE_CASES]
        jobs = [c[1:] for c in ENGINE_CASES]
        failures = {}  # job -> (value, bound, cells) of its strict failure alone
        for j, (f, job) in enumerate(zip(fs, jobs)):
            try:
                integrate_box(f, *job, config=ENGINE_CONFIG)
            except QuadratureNonConvergence as exc:
                failures[j] = (exc.value, exc.error_bound, exc.cells)
        assert len(failures) >= 2
        for first in failures:  # the jobs from each failing one on: it fails first
            with pytest.raises(QuadratureNonConvergence) as many:
                integrate_boxes(_dispatch(fs[first:]), jobs[first:], ENGINE_CONFIG)
            assert (many.value.value, many.value.error_bound, many.value.cells) == \
                failures[first]

    def test_two_dimensional_jobs(self):
        fs = [lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2),
              lambda p: np.abs(p[:, 0] * p[:, 1]) ** 0.3,
              lambda p: np.sin(3.0 * p[:, 1]) ** 2]
        jobs = [([-3.0, -3.0], [3.0, 3.0], ()), ([-1.0, -1.0], [1.0, 1.0], [[0.0], [0.0]]),
                ([0.0, 0.0], [100.0, 1.0], ())]
        config = QuadratureConfig(max_cells=2 ** 8)
        got = integrate_boxes(_dispatch(fs), jobs, config, strict=False)
        assert got == [integrate_box(f, *job, config=config, strict=False)
                       for f, job in zip(fs, jobs)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_points_and_runs(self, n, monkeypatch):
        # every integrand call gets the cells' points in the cell-major
        # broadcast order, bit for bit, and each job's points as one run,
        # the runs in ascending job order; both in the coarse round and in
        # the split rounds, whose halves lie along the axis each cell carries
        calls = []  # per _cell_values call: (lo, hi, job, axis, [(pts, job) per f call], axes)
        cell_values = quadrature._cell_values

        def spy(f, lo, hi, job, axis=None):
            seen = []

            def g(pts, pjob):
                seen.append((pts.copy(), pjob.copy()))
                if n > 1:
                    assert pts.flags.f_contiguous  # built axis by axis
                return f(pts, pjob)
            out, axes = cell_values(g, lo, hi, job, axis)
            calls.append((lo.copy(), hi.copy(), job.copy(), axis, seen, axes))
            return out, axes

        monkeypatch.setattr(quadrature, "_cell_values", spy)
        fs = [lambda p: np.exp(-np.sum(p * p, axis=1)),
              lambda p: np.abs(p[:, 0] - 0.3) ** 0.5, lambda p: np.cos(5.0 * p[:, -1])]
        jobs = [([-2.0] * n, [2.0] * n, ()), ([-1.0] * n, [1.0] * n, [[0.3]] + [[]] * (n - 1)),
                ([0.0] * n, [0.0] + [1.0] * (n - 1), ()), ([0.0] * n, [1.5] * n, ())]
        config = QuadratureConfig(rel_tol=1e-12, max_cells=2 ** (10 - 2 * n))
        got = integrate_boxes(_dispatch([fs[0], fs[1], fs[2], fs[2]]), jobs, config,
                              strict=False)
        assert got[2] == (0.0, 0.0, 0)
        assert calls[0][3] is None and len(calls) >= 3
        assert all(axis is not None for _, _, _, axis, *_ in calls[1:])

        def cells(job, lo, hi):
            return list(zip(job.tolist(), map(tuple, lo.tolist()), map(tuple, hi.tolist())))
        carried = {}  # n >= 2: each cell's axis, from the call that evaluated its values
        for lo, hi, job, axis, seen, axes in calls:
            split = axis is not None
            ref = quadrature._gl_nodes(quadrature.GL_ORDER, n)[0]
            low = quadrature._gl_nodes(quadrature.GL_ORDER_LOW if split else
                                       quadrature.GL_ORDER, n)[0]
            want = lo[:, None, :] + low * (hi - lo)[:, None, :]
            if n == 1:  # no axis is chosen: every cell splits along its one axis
                assert axes == 0 and (axis is None or axis == 0)
            else:
                assert axes.shape == ((len(lo), 2) if split else (len(lo),))
                assert np.all((0 <= axes) & (axes < n))
            if split:  # the halves along each cell's axis come first
                rows = np.arange(len(lo))
                mid = (lo[rows, axis] + hi[rows, axis]) / 2.0
                h_lo = np.stack([lo, lo], axis=1)
                h_hi = np.stack([hi, hi], axis=1)
                h_hi[rows, 0, axis] = mid
                h_lo[rows, 1, axis] = mid
                halves = h_lo[:, :, None, :] + ref * (h_hi - h_lo)[:, :, None, :]
                want = np.concatenate([halves.reshape(len(lo), -1, n), want], axis=1)
                if n > 1:
                    assert axis.tolist() == [carried[c] for c in cells(job, lo, hi)]
                    carried.update(zip(cells(job.repeat(2), h_lo.reshape(-1, n),
                                             h_hi.reshape(-1, n)), axes.ravel().tolist()))
            elif n > 1:
                carried.update(zip(cells(job, lo, hi), axes.tolist()))
            pts = np.concatenate([p for p, _ in seen])
            assert np.array_equal(pts, want.reshape(-1, n))
            assert np.array_equal(np.concatenate([j for _, j in seen]),
                                  job.repeat(want.shape[1]))
            for _, pjob in seen:  # one run per job, ascending
                assert np.all(np.diff(pjob) >= 0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            integrate_boxes(lambda p, j: np.ones(len(p)), [([0.0], [1.0], ()),
                                                           ([0.0, 0.0], [1.0, 1.0], ())])


def _atom_loop(phi, xi, pts):
    """D^xi phi summed one atom at a time over every point: the reference."""
    if phi.offset is not None:
        xi = xi + phi.offset
    out = np.zeros((pts.shape[0], phi.d))
    for a in phi.atoms:
        u = (pts - np.asarray(a.center)) / a.radius
        vals = testfn.cores.core_eval(phi.n, a.kind, a.core_xi, xi, u)
        out += (a.radius ** (-xi.order) * vals)[:, None] * np.asarray(a.coeff)[None, :]
    return out


class TestStackedEvaluator:
    def test_one_index_per_stack(self, monkeypatch):
        # one pair_many of a 1-D plateau pairing evaluates its culled job in
        # several engine rounds, each with new points, and builds the
        # stack's atom-bin index once
        phi = next(c for c in testfn._candidate_stream(1, 1, 0) if c.label == "plateau_w0.1")
        phi = phi.rescale([0.1], 0.5)
        builds, calls = [], []
        build, culled = StackedFns.bins.func, testfn._culled_sums
        monkeypatch.setattr(StackedFns.bins, "func", lambda st: builds.append(st) or build(st))
        monkeypatch.setattr(testfn, "_culled_sums", lambda *a: calls.append(a) or culled(*a))
        T = function_distribution(1, "abs(x1)^(1/2)")
        (result,) = pair_many([(T, phi)], CLASSIFY_QUAD, strict=False)
        assert len(calls) > 1 and len(builds) == 1
        assert result == pair(T, phi, CLASSIFY_QUAD, strict=False)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", [None, 97])
    def test_equals_per_function(self, n, block, monkeypatch, kernel_cache):
        if block:
            monkeypatch.setattr(quadrature, "BLOCK_POINTS", block)
        rng = np.random.default_rng(7)
        members = make_dictionary(n, 1, 0, 16 if n == 1 else 15, 2).members + (
            kernel_cache(n, 3).testfn,)
        # one-support (bump, monomials, a moment kernel: several atoms on
        # one ball) and multi-atom (plateaus, random) probes, rescaled, each
        # with several derivative orders
        cols = []
        for k, member in enumerate(members):
            phi = member.rescale(rng.uniform(-1, 1, size=n), float(rng.uniform(0.05, 2.0)))
            cols.append([(phi, xi_set(n, order)[k % len(xi_set(n, order))])
                         for order in range(3)])
        # one column per job; then three: one function's three derivatives
        # (one ball, or culled), a function with a derivative view of it, and
        # two functions on two balls, culled whatever their atoms
        first = xi_set(n, 1)[0]
        triples = cols + [[a, b, (a[0].derivative_view(first), a[1])] for a, b, _ in cols]
        triples += [[a, b[1], b[2]] for (a, _, _), b in zip(cols, cols[1:])]
        for m, jobs in ((1, [col for three in cols for col in three]), (3, triples)):
            pts, job = [], []
            for j, columns in enumerate(jobs):
                for phi, _ in ([columns] if m == 1 else columns):
                    c, r = np.asarray(phi.support_center), phi.support_radius
                    size = int(rng.integers(1, 60))
                    pts.append(c + rng.uniform(-1.2 * r, 1.2 * r, size=(size, n)))
                    job += [j] * size
            pts = np.concatenate(pts)
            job = np.asarray(job)
            order = rng.permutation(len(job))  # runs need not be contiguous
            got = eval_stacked(StackedFns.of(jobs), pts[order], job[order])
            assert got.shape == (len(job), m, 1)
            for j, columns in enumerate(jobs):
                sel = job[order] == j
                for c, (phi, xi) in enumerate([columns] if m == 1 else columns):
                    want = _atom_loop(phi, xi, pts[order][sel])
                    assert np.array_equal(got[sel, c], want), (m, j, c, phi.label, xi.entries)
                    assert np.array_equal(got[sel, c], phi.eval_deriv(xi, pts[order][sel]))

    def test_derivative_views(self):
        members = make_dictionary(1, 1, 0, 12, 0).members
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.1, 1.1, size=(300, 1))
        views = [m.derivative_view(MultiIndex((1,))) for m in members]
        jobs = [(v, MultiIndex((1,))) for v in views]
        job = np.repeat(np.arange(len(jobs)), 25)
        got = eval_stacked(StackedFns.of(jobs), pts, job)
        for j, (m, v) in enumerate(zip(members, views)):
            sel = job == j
            assert v.offset == MultiIndex((1,)) and v.atoms == m.atoms
            assert np.array_equal(got[sel, 0], _atom_loop(m, MultiIndex((2,)), pts[sel]))
            assert np.array_equal(got[sel, 0], v.eval_deriv(MultiIndex((1,)), pts[sel]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_view_of_view(self, n, kernel_cache):
        # D^b (D^a phi) is D^(a + b) phi: the same function, bit for bit
        rng = np.random.default_rng(11)
        members = make_dictionary(n, 1, 0, 12, 0).members + (kernel_cache(n, 3).testfn,)
        first, second = xi_set(n, 1)[0], xi_set(n, 2)[-1]
        pts = rng.uniform(-1.1, 1.1, size=(200, n))
        for phi in members:
            twice = phi.derivative_view(first).derivative_view(second)
            once = phi.derivative_view(first + second)
            assert twice == once
            assert twice.max_deriv_order == phi.max_deriv_order - 3
            for xi in (zero_index(n), first):
                assert np.array_equal(twice.eval_deriv(xi, pts), once.eval_deriv(xi, pts))

    def test_order_above_bound(self):
        phi = make_dictionary(1, 1, 0, 4, 0).members[0]
        top = phi.max_deriv_order
        with pytest.raises(testfn.UnsupportedOrderError):
            StackedFns.of([(phi, MultiIndex((top + 1,)))])
        # a view's bound is what its base has left: the same total order fails
        for view in (phi.derivative_view(MultiIndex((2,))),
                     phi.derivative_view(MultiIndex((1,))).derivative_view(MultiIndex((1,)))):
            assert view.max_deriv_order == top - 2
            StackedFns.of([(view, MultiIndex((top - 2,)))])
            with pytest.raises(testfn.UnsupportedOrderError):
                StackedFns.of([(view, MultiIndex((top - 1,)))])


def _reference(T, phi):
    """T(phi) by QUADPACK over phi's support, split at T's singular points."""
    (atom,) = T.atoms
    c, r = phi.support_center[0], phi.support_radius
    cuts = [s for s in atom.singularities.axis_coordinates(0) if c - r < s < c + r]

    def f(x):
        pt = np.array([[x]])
        return float(atom.eval(pt)[0, 0] * phi(pt)[0, 0])

    value, err = 0.0, 0.0
    edges = [c - r] + sorted(cuts) + [c + r]
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        value += v
        err += e
    return value, err


class TestHonesty:
    """pair_many's bounds hold against an independent adaptive quadrature."""

    @pytest.mark.parametrize("item", ["heaviside", "abs_sqrt", "exp", "sin4"])
    def test_against_quadpack(self, corpus, item):
        T = corpus[item].build()
        probes = make_dictionary(1, 1, 0, 12, 0).members
        pick = [probes[k] for k in (0, 3, 6, 11)]  # bump, x^3 bump, plateau, random
        pairs = [(T, m.rescale([0.0], r)) for m in pick for r in (1.0, 0.125, 1e-3)]
        for (_, phi), res in zip(pairs, pair_many(pairs, CLASSIFY_QUAD, strict=False)):
            ref, ref_err = _reference(T, phi)
            assert math.isfinite(res.value)
            assert abs(res.value - ref) <= res.abs_error_bound + ref_err, (phi.label, ref)


def _closed_form(phi, axis=None):
    """(x, y) -> a one-atom 2-D test function phi, or its derivative along
    axis for a plain bump, written out from the bump formula."""
    (atom,) = phi.atoms
    c, rho = atom.center, atom.radius
    p, q = atom.core_xi or (0, 0)

    def f(x, y):
        u = ((x - c[0]) / rho, (y - c[1]) / rho)
        s = u[0] ** 2 + u[1] ** 2
        if s >= 1.0 - 1e-12:
            return 0.0
        value = atom.coeff[0] * u[0] ** p * u[1] ** q * math.exp(1.0 / (s - 1.0))
        if axis is None:
            return value
        # d/dx_j exp(1/(s - 1)) = -2 u_j / (s - 1)^2 exp(1/(s - 1)) / rho
        return value * -2.0 * u[axis] / ((s - 1.0) ** 2 * rho)
    return f


def _disk_reference(f, c, rho, x_from=-math.inf):
    """The integral of f over the disk B(c, rho), or over its part with
    x >= x_from, by scipy's dblquad, in cartesian limits: (value, error
    estimate)."""
    def half(x):
        return math.sqrt(max(rho * rho - (x - c[0]) ** 2, 0.0))
    return integrate.dblquad(lambda y, x: f(x, y), max(c[0] - rho, x_from), c[0] + rho,
                             lambda x: c[1] - half(x), lambda x: c[1] + half(x),
                             epsabs=1e-14, epsrel=1e-12)


def _panel_reference(f, lo, hi, panels):
    """The integral of f over the 2-D box [lo, hi] by a 16-point
    Gauss-Legendre rule on each of panels x panels equal panels."""
    x, w = np.polynomial.legendre.leggauss(16)
    nodes, wts = [], []
    for a, b in zip(lo, hi):
        edges = np.linspace(a, b, panels + 1)
        half = np.diff(edges)[:, None] / 2.0
        nodes.append((edges[:-1, None] + half * (1.0 + x)).ravel())
        wts.append((half * w).ravel())
    grid = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(np.sum(f(grid) * np.outer(*wts).ravel()))


class TestHonesty2D:
    """2-D pairings, over a disk in polar coordinates or over a support box
    cut at a singularity, hold their bounds against an independent
    cartesian quadrature over the same disk."""

    def test_gauss2d_against_dblquad(self, kernel_cache):
        a = (0.2, -0.1)
        members = make_dictionary(2, 1, 0, 8, 0).members
        probes = [members[k] for k in (0, 1, 4, 6)]  # bump, x^(1, 0), x^(1, 1), x^(3, 0)
        kernel = kernel_cache(2, 2)
        assert len(kernel.testfn.atoms) == 1 and kernel.testfn.atoms[0].core_xi is None
        pairs, refs = [], []
        for r in (0.5, 1.0 / 64):
            for m in probes:
                phi = m.rescale(a, r)
                pairs.append((T_GAUSS2D, phi))
                refs.append([(_closed_form(phi), phi)])
            fn = kernel.directed(a, r)
            pairs.append((T_GAUSS2D, (fn, fn.derivative_view(MultiIndex((1, 0))),
                                      fn.derivative_view(MultiIndex((0, 1))))))
            refs.append([(_closed_form(fn, axis), fn) for axis in (None, 0, 1)])
        got = pair_many(pairs, CLASSIFY_QUAD)
        checked = 0
        for res, ref in zip(got, refs):
            for one, (f, phi) in zip(res if isinstance(res, tuple) else (res,), ref):
                (atom,) = phi.atoms
                want, want_err = _disk_reference(
                    lambda x, y: math.exp(-x * x - y * y) * f(x, y), atom.center, atom.radius)
                assert abs(one.value - want) <= one.abs_error_bound + want_err, (
                    phi.label, atom.radius, one, want, want_err)
                checked += 1
        assert checked == 14

    @pytest.mark.parametrize("item, center", [("radial_root2d", (0.0, 0.0)),
                                              ("step2d", (0.004, 0.05))])
    def test_cusp_and_cut_against_dblquad(self, corpus, item, center, monkeypatch):
        # where the split axis matters most: the radial root's cusp at the
        # center of its disks (polar cells), and the step's cut through
        # every disk (box cells)
        data, x_from, polar = {"radial_root2d": (lambda x, y: (x * x + y * y) ** 0.25,
                                                 -math.inf, True),
                               "step2d": (lambda x, y: 1.0, 0.0, False)}[item]
        boxes = []

        def spy(f, jobs, *args):
            boxes.extend(jobs)
            return integrate_boxes(f, jobs, *args)
        monkeypatch.setattr(distribution, "integrate_boxes", spy)
        members = make_dictionary(2, 1, 0, 8, 0).members
        # bump, x^(1, 0), x^(2, 0), x^(1, 1)
        phis = [members[k].rescale(center, r) for r in (0.5, 1.0 / 64) for k in (0, 1, 3, 4)]
        got = pair_many([(corpus[item].build(), phi) for phi in phis], CLASSIFY_QUAD)
        assert [(tuple(lo), tuple(hi)) == ((0.0, 0.0), (1.0, 1.0))
                for lo, hi, _ in boxes] == [polar] * len(phis)
        for one, phi in zip(got, phis):
            f, (atom,) = _closed_form(phi), phi.atoms
            want, want_err = _disk_reference(lambda x, y: data(x, y) * f(x, y), atom.center,
                                             atom.radius, x_from)
            assert abs(one.value - want) <= one.abs_error_bound + want_err, (
                phi.label, atom.radius, one, want, want_err)


class TestPolarDispatch:
    """Which jobs pair_many integrates over their disk in polar coordinates."""

    def test_box_paths_and_a_polar_job(self, monkeypatch):
        # one mixed call: a one-ball job with a cut through its disk and a
        # plateau stay on their support boxes, and hold their bounds
        # against independent references; a 1-D job stays on its box bit
        # for bit (pinned with float.hex before the polar path existed); a
        # one-ball job with the cut outside its disk goes polar
        step, step1 = function_distribution(2, "heaviside(x1)"), function_distribution(
            1, "heaviside(x1)")
        members = make_dictionary(2, 1, 0, 4, 0).members
        plateau = next(c for c in itertools.islice(testfn._candidate_stream(2, 1, 0), 40)
                       if c.label == "plateau_w0.2")
        pairs = [(step, members[1].rescale([0.1, 0.05], 0.5)),
                 (T_GAUSS2D, plateau.rescale([0.2, -0.1], 0.5)),
                 (step1, make_dictionary(1, 1, 0, 4, 0).members[1].rescale([0.1], 0.5)),
                 (step, members[0].rescale([0.7, 0.0], 0.5))]
        boxes = []

        def spy(f, jobs, *args):
            boxes.extend(jobs)
            return integrate_boxes(f, jobs, *args)
        monkeypatch.setattr(distribution, "integrate_boxes", spy)
        config = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 7)
        got = pair_many(pairs, config, strict=False)
        assert (got[2].value.hex(), got[2].abs_error_bound.hex(), got[2].quadrature_cells) == (
            "0x1.03ea1c34c3050p-2", "0x1.4ea8258000000p-39", 10)
        # the step is 1 on x1 > 0: the probe's integral over that part of its disk
        (atom,) = pairs[0][1].atoms
        want, want_err = _disk_reference(_closed_form(pairs[0][1]), atom.center, atom.radius,
                                         x_from=0.0)
        assert abs(got[0].value - want) <= got[0].abs_error_bound + want_err
        # the plateau (197 atoms) by composite Gauss-Legendre on its box:
        # 16 and then 32 panels a side, their gap taken as the error
        phi = pairs[1][1]
        c, r = np.asarray(phi.support_center), phi.support_radius

        def f(p):
            return np.exp(-np.sum(p * p, axis=1)) * phi(p)[:, 0]
        want, coarse = (_panel_reference(f, c - r, c + r, panels) for panels in (32, 16))
        assert abs(got[1].value - want) <= got[1].abs_error_bound + abs(want - coarse)
        assert [tuple(map(tuple, box[:2])) for box in boxes] == [
            ((-0.4, -0.45), (0.6, 0.55)), ((-0.3, -0.6), (0.7, 0.4)),
            ((0.0, 0.0), (1.0, 1.0)), ((-0.4,), (0.6,))]
        # heaviside is 1 on the whole disk: the pairing is the probe's mass
        phi = pairs[3][1]
        mass = momentkernel.moment_table(2)[0][0] * phi.radii[0] ** 2 * phi.coeffs[0, 0]
        assert abs(got[3].value - mass) <= got[3].abs_error_bound + 4 * np.spacing(mass)
        assert got[3].quadrature_cells < 64

    def test_cusp_cells_split_in_radius(self, corpus, monkeypatch):
        # the radial root's cusp (rho s)^(1/2) at the center of every disk
        # is rough in s alone: its classify at the origin, jet included,
        # evaluates at most a quarter of the 9,524 cells that bisecting
        # each cell along its widest axis took
        cells = []

        def spy(f, jobs, *args):
            results = integrate_boxes(f, jobs, *args)
            cells.extend(c for *_, c in results)
            return results
        monkeypatch.setattr(distribution, "integrate_boxes", spy)
        config = ClassifierConfig(levels=10, dict_size=8, seed=0, quad=QuadratureConfig(
            rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 11), jet_config=JetConfig(levels=8))
        rep = classify(corpus["radial_root2d"].build(), [0.0, 0.0], 0, config=config)
        assert rep.verdict == "confirmed" and 0 < sum(cells) <= 9524 // 4


def _by_quadrature(P, phi, config):
    """integral <P, phi> by adaptive quadrature over phi's support."""
    zero = MultiIndex((0,) * phi.n)
    c, r = np.asarray(phi.support_center), phi.support_radius
    return integrate_box(lambda pts: np.einsum("ij,ij->i", P.eval(pts), phi.eval_deriv(zero, pts)),
                         c - r, c + r, (), config, strict=False)


def _random_jet(rng, n, d, k, center):
    return PolyJet(n, d, center, k, rng.normal(size=(math.comb(k + n, n), d)))


class TestClosedForm:
    """Polynomial parts are paired in closed form from the bump moments."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_against_quadrature(self, n):
        rng = np.random.default_rng(5)
        tight = QuadratureConfig(rel_tol=1e-13, abs_floor=1e-16, max_cells=2 ** 14)
        # a 2-D plateau (197 atoms) takes tight quadrature 16,385 cells
        budget = QuadratureConfig(rel_tol=1e-13, abs_floor=1e-16, max_cells=2 ** 10)
        cores_ = [testfn.standard_bump(n)] + [testfn.bump_monomial(n, xi.entries)
                                             for m in (1, 2, 3) for xi in xi_set(n, m)]
        offsets = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)]
        cases = []  # (jet, test function, reference quadrature)
        for j, psi in enumerate(cores_):  # each core with some degree and offset
            a = rng.uniform(-0.5, 0.5, size=n)
            P = _random_jet(rng, n, 1, j % 7, a + rng.uniform(0.2, 0.6, size=n))
            phi = psi.rescale(a, float(rng.uniform(0.3, 1.5)))
            offset = MultiIndex(offsets[j % 3])
            cases.append((P, phi if offset.order == 0 else phi.derivative_view(offset), tight))
        for k in range(7):  # every degree against the bump
            a = rng.uniform(-0.5, 0.5, size=n)
            phi = cores_[0].rescale(a, 0.8).derivative_view(MultiIndex(offsets[k % 3]))
            cases.append((_random_jet(rng, n, 1, k, a - 0.4), phi, tight))
        members = make_dictionary(n, 1, 0, 16 if n == 1 else 15, 0).members
        plateau = next(m for m in members if m.label == "plateau_w0.2")
        cases.append((_random_jet(rng, n, 1, 6, np.full(n, 0.3)),
                      plateau.rescale(np.full(n, -0.1), 0.9), tight if n == 1 else budget))
        d2 = make_dictionary(n, 2, 0, 8, 0).members  # d = 2: both components
        cases += [(_random_jet(rng, n, 2, 4, np.full(n, 0.3)), m.rescale(np.zeros(n), 0.6), tight)
                  for m in (d2[0], d2[1], d2[-1])]
        for P, phi, config in cases:
            got = pair(polynomial_distribution(P), phi)
            assert got.quadrature_cells == 0
            assert 0.0 <= got.abs_error_bound <= 1e-11 * (1.0 + abs(got.value))
            value, bound, _ = _by_quadrature(P, phi, config)
            assert abs(got.value - value) <= got.abs_error_bound + bound, \
                (phi.label, P.degree_bound, got, value, bound)

    def test_many_equal_one_at_a_time(self):
        # the polynomial parts of one call are one array pass; each result
        # is the pairing's alone, bit for bit
        rng = np.random.default_rng(8)
        members = make_dictionary(1, 1, 0, 12, 0).members
        T = subtract_jet(derivative(polynomial_distribution(
            _random_jet(rng, 1, 1, 5, [0.1])), (1,)), _random_jet(rng, 1, 1, 3, [-0.2]))
        pairs = [(T, m.rescale([0.0], r)) for m in members for r in (1.0, 0.01)]
        pairs += [(polynomial_distribution(_random_jet(rng, 1, 1, k, [0.3])),
                   members[k].rescale([0.2], 0.5).derivative_view(MultiIndex((k % 3,))))
                  for k in range(7)]
        assert pair_many(pairs) == _one_at_a_time(pairs, QuadratureConfig())

    def test_moments_against_mpmath(self):
        # the table's 1-D moments and 2-D radial integrals at 30 digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        values, bounds = momentkernel.moment_table(1)
        for e in range(momentkernel.MOMENT_ORDER + 1):
            if e % 2:
                assert values[e] == 0.0 and bounds[e] == 0.0
                continue
            want = mp.quad(lambda x: x ** e * mp.exp(1 / (x * x - 1)), [-1, 0, 1])
            assert abs(values[e] - want) <= bounds[e], e
        for p in range(1, momentkernel.MOMENT_ORDER + 2, 2):
            got, bound = momentkernel._radial_moment(p)
            want = mp.quad(lambda r: r ** p * mp.exp(1 / (r * r - 1)), [0, 1])
            assert abs(got - want) <= bound, p


class TestRepeatableWork:
    def test_classify_repeats_its_counts(self, corpus, monkeypatch):
        # a fresh process: empty moment caches.  After the first kernel
        # build, every repeated call does the same work, so a moment filled
        # lazily in the first call shows as a count
        for cached in (momentkernel._moment, momentkernel._radial_moment,
                       momentkernel._moment_table):
            cached.cache_clear()
        counts = {"integrate_box": 0, "core_eval": 0, "points": 0}

        def counting_box(*args, **kwargs):
            counts["integrate_box"] += 1
            return integrate_box(*args, **kwargs)

        def counting_core(n, kind, core_xi, deriv_xi, pts, **kwargs):
            counts["core_eval"] += 1
            counts["points"] += len(pts)
            return core_eval(n, kind, core_xi, deriv_xi, pts, **kwargs)

        monkeypatch.setattr(momentkernel, "integrate_box", counting_box)
        monkeypatch.setattr(testfn.cores, "core_eval", counting_core)
        momentkernel.build_kernel(1, 2)
        assert counts["integrate_box"] > 0
        T = corpus["heaviside"].build()
        config = ClassifierConfig(levels=6, dict_size=8)
        seen = []
        for _ in range(2):
            before = dict(counts)
            classify(T, [0.0], 1, config=config)
            seen.append({key: counts[key] - before[key] for key in counts})
        assert seen[0] == seen[1]
        assert seen[0]["core_eval"] > 0


class TestOneBlock:
    """No pairing depends on ``quadrature.BLOCK_POINTS``, the block of the
    engine's cells and of the culled pairs: values, bounds and cell counts
    are bit-identical down to one cell a block."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", ["97", "one cell"])
    def test_pair_many(self, n, block, corpus, kernel_cache, monkeypatch):
        config = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 7)
        if n == 1:
            T, kernel, a = corpus["heaviside"].build(), kernel_cache(1, 4), [0.1]
        else:
            T, kernel, a = corpus["gauss2d"].build(), kernel_cache(2, 2), [0.2, -0.1]
        stream = list(itertools.islice(testfn._candidate_stream(n, 1, 0), 40))
        one_ball = [c for c in stream if len(c.atoms) == 1][:3]
        plateau = next(c for c in stream if c.label == "plateau_w0.2")
        xis = [xi for m in range(2) for xi in xi_set(n, m)]
        pairs = []
        for r in (0.5, 0.1):  # scalar jobs, an M-column kernel job, a culled job
            pairs += [(T, phi.rescale(a, r)) for phi in one_ball]
            pairs.append((T, tuple(kernel.directed(a, r).derivative_view(xi) for xi in xis)))
            pairs.append((T, plateau.rescale(a, r)))

        def bits():
            results = pair_many(pairs, config, strict=False)
            return [(res.value.hex(), res.abs_error_bound.hex(), res.quadrature_cells)
                    for row in results for res in (row if isinstance(row, tuple) else (row,))]
        want = bits()
        cell = 2 * quadrature.GL_ORDER ** n + quadrature.GL_ORDER_LOW ** n
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", 97 if block == "97" else cell)
        assert bits() == want


class TestBoundedMemory:
    def test_repeated_classify_reuses_its_pages(self):
        # a second 2-D classify (gauss2d, six single-atom probes,
        # five levels) in one process faults in under 1,000 pages: its
        # blocks' temporaries reuse the memory of the first
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from ptdiff import (ClassifierConfig, PolyJet, ProbeDictionary, classify,\n"
            "                    get_item, make_dictionary)\n"
            "members = make_dictionary(2, 1, 0, 15, 0).members\n"
            "single = tuple(m for m in members if len(m.atoms) == 1)[:6]\n"
            "probes = ProbeDictionary(2, 1, 0, len(single), 0, single)\n"
            "T = get_item('gauss2d').build()\n"
            "a = np.array([0.2, -0.1])\n"
            "g = float(np.exp(-a @ a))\n"
            "jet = PolyJet.from_coeff_map(2, a, {(0, 0): g, (1, 0): -2 * a[0] * g,\n"
            "                                    (0, 1): -2 * a[1] * g})\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    report = classify(T, a, 1, probes=probes, jet=jet,\n"
            "                      config=ClassifierConfig(levels=5))\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "    assert report.verdict == 'confirmed', report.verdict\n"
            "print(*faults)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        first, second = map(int, out.stdout.split())
        if first == 0:
            pytest.skip("the platform reports no minor faults")
        assert second < 1000, (first, second)

    def test_repeated_1d_classify_reuses_its_pages(self):
        # the same in 1-D, in a process that has built no 2-D dictionary,
        # whose freed arrays raise the allocator's thresholds: a second
        # classify of heaviside (twelve probes, ten levels) faults in under
        # 1,000 pages, as its culled blocks reuse their block arrays
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from ptdiff import ClassifierConfig, classify, get_item\n"
            "T = get_item('heaviside').build()\n"
            "config = ClassifierConfig(r0=1.0, levels=10, dict_size=12, seed=1)\n"
            "faults = []\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    report = classify(T, [0.0], 0, config=config)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "    assert report.verdict == 'refuted', report.verdict\n"
            "print(*faults)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        first, second = map(int, out.stdout.split())
        if first == 0:
            pytest.skip("the platform reports no minor faults")
        assert second < 1000, (first, second)

    def test_culled_kept_arrays_are_bounded(self):
        # after the heaviside classify above, the culled search keeps at
        # most 1.03 MB of block arrays, a few entries per point or pair of
        # one block
        code = (
            "from ptdiff import ClassifierConfig, classify, get_item, quadrature\n"
            "T = get_item('heaviside').build()\n"
            "config = ClassifierConfig(r0=1.0, levels=10, dict_size=12, seed=1)\n"
            "classify(T, [0.0], 0, config=config)\n"
            "print(sum(a.nbytes for name, a in vars(quadrature._KEPT).items()\n"
            "          if not name.startswith(('ball_', 'polar_'))))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert int(out.stdout) <= 1.03e6


def _columns(fs):
    """f(pts, job) -> (npts, M) of M integrands on every job."""
    return lambda pts, job: np.column_stack([f(pts) for f in fs])


def _within_bounds(vector, scalars):
    values, bounds, _ = vector
    for c, (v, e, _) in enumerate(scalars):
        assert abs(values[c] - v) <= bounds[c] + e, (c, values[c], v, bounds[c], e)


class TestVectorJobs:
    """Engine jobs with M components on one mesh, and vector pairings."""

    @pytest.mark.parametrize("case", ["exp", "osc", "gauss2d"])
    def test_engine_against_per_component(self, case):
        if case == "gauss2d":
            g = lambda p: np.exp(-p[:, 0] ** 2 - p[:, 1] ** 2)  # noqa: E731
            fs = [g, lambda p: g(p) * p[:, 0], lambda p: g(p) * p[:, 1] ** 2,
                  lambda p: g(p) * np.cos(3.0 * p[:, 0] * p[:, 1])]
            jobs = [([-1.0, -0.5], [1.5, 1.0], ()), ([-2.0, -2.0], [2.0, 2.0], [[0.0], []])]
        else:
            h = (lambda p: np.exp(p[:, 0])) if case == "exp" else _oscillating
            fs = [h, lambda p: np.cos(2.0 * p[:, 0]) * h(p), lambda p: p[:, 0] ** 3]
            jobs = [([-1.0], [1.0], [[0.0]]), ([0.0], [2.0], ())]
        config = QuadratureConfig(rel_tol=1e-11, abs_floor=1e-15, max_cells=2 ** 12,
                                  min_width=1e-6)
        got = integrate_boxes(_columns(fs), jobs, config, strict=False)
        for job, vector in zip(jobs, got):
            assert vector[0].shape == vector[1].shape == (len(fs),)
            _within_bounds(vector, [integrate_box(f, *job, config=config, strict=False)
                                    for f in fs])

    def test_one_column_equals_scalar(self):
        fs = [c[0] for c in ENGINE_CASES]
        jobs = [c[1:] for c in ENGINE_CASES]
        got = integrate_boxes(lambda p, j: _dispatch(fs)(p, j)[:, None], jobs, ENGINE_CONFIG,
                              strict=False)
        want = integrate_boxes(_dispatch(fs), jobs, ENGINE_CONFIG, strict=False)
        assert [(float(v[0]), float(e[0]), c) for v, e, c in got] == want

    def test_easy_component_keeps_its_own_bound(self):
        # a hard component runs out of budget on the shared mesh; the easy
        # one reports its own small bound, not the hard one's
        hard = lambda p: np.sin(50.0 / (p[:, 0] + 1.001))  # noqa: E731
        config = QuadratureConfig(rel_tol=1e-12, abs_floor=0.0, max_cells=64, min_width=0.0)
        (values, bounds, cells), = integrate_boxes(
            _columns([hard, np.cos]), [([-1.0], [1.0], ())], config, strict=False)
        assert cells >= 64
        assert bounds[0] > 1e-6
        assert bounds[1] <= 1e-12 * abs(values[1])
        assert abs(values[1] - 2.0 * math.sin(1.0)) <= bounds[1] + 1e-15
        # abs_floor = 0 with a component that vanishes: no division by zero
        (values, bounds, _), = integrate_boxes(
            _columns([np.cos, lambda p: np.zeros(len(p))]), [([-1.0], [1.0], ())], config)
        assert values[1] == bounds[1] == 0.0 and bounds[0] <= 1e-12 * values[0]

    def test_strict_raises_for_the_budget_hit_component(self):
        hard = lambda p: np.sin(50.0 / (p[:, 0] + 1.001))  # noqa: E731
        jobs = [([-1.0], [1.0], ()), ([0.0], [1.0], ())]
        fs = [np.cos, hard, np.exp]
        loose = integrate_boxes(_columns(fs), jobs, ENGINE_CONFIG, strict=False)
        with pytest.raises(QuadratureNonConvergence) as exc:
            integrate_boxes(_columns(fs), jobs, ENGINE_CONFIG)
        values, bounds, cells = loose[0]
        assert (exc.value.value, exc.value.error_bound, exc.value.cells) == \
            (values[1], bounds[1], cells)

    def test_vector_pairing_against_scalar_pairs(self, corpus, kernel_cache):
        config = QuadratureConfig(rel_tol=1e-11, abs_floor=1e-15, max_cells=2 ** 14)
        cases = []
        for item, n, k, a in (("exp", 1, 4, [0.1]), ("osc", 1, 3, [0.0]),
                              ("gauss2d", 2, 2, [0.2, -0.1])):
            T = corpus[item].build()
            xis = [xi for m in range(k) for xi in xi_set(n, m)]
            for r in (0.5, 0.03):
                fn = kernel_cache(n, k).directed(a, r)
                cases.append((T, tuple(fn.derivative_view(xi) for xi in xis)))
        members = make_dictionary(1, 1, 0, 12, 0).members
        one_ball = tuple(m.rescale([0.3], 0.2) for m in members[:4])  # bump, x, x^2, x^3
        cases.append((subtract_jet(derivative(corpus["heaviside"].build(), (1,)),
                                   PolyJet.from_coeff_map(1, [0.3], {(0,): 0.5})), one_ball))
        for (T, phis), got in zip(cases, pair_many(cases, config, strict=False)):
            assert len(got) == len(phis)
            want = pair_many([(T, phi) for phi in phis], config, strict=False)
            assert len({res.quadrature_cells for res in got}) == 1
            for g, w in zip(got, want):
                assert abs(g.value - w.value) <= g.abs_error_bound + w.abs_error_bound, \
                    (g, w)
        # each result is the pairing's alone, whatever else the call holds
        alone = [pair_many([case], config, strict=False)[0] for case in cases[:3]]
        assert alone == pair_many(cases[:3], config, strict=False)

    @pytest.mark.parametrize("n", [1, 2])
    def test_several_layouts_bit_for_bit(self, n, corpus, kernel_cache):
        # vector pairings of two layouts (kernel derivatives, one-ball
        # monomial probes) with one (n, d, M) share an engine, at
        # interleaved radii, with a T built per radius, so several data:
        # each equals its pairing alone
        config = QuadratureConfig(rel_tol=1e-10, abs_floor=1e-15, max_cells=2 ** 12)
        if n == 1:
            kernel, a, data = kernel_cache(1, 4), [0.1], ("exp", "sin4")
            xis = [xi for m in range(4) for xi in xi_set(1, m)]
            probes = make_dictionary(1, 1, 0, 12, 0).members[:4]  # bump, x, x^2, x^3
        else:
            kernel, a, data = kernel_cache(2, 2), [0.2, -0.1], ("gauss2d",)
            xis = [MultiIndex((0, 0)), MultiIndex((1, 0)), MultiIndex((0, 1))]
            probes = (testfn.standard_bump(2), testfn.bump_monomial(2, (1, 0)),
                      testfn.bump_monomial(2, (0, 1)))
        cases = []
        for i, r in enumerate((0.5, 0.2, 0.05)):
            T = corpus[data[i % len(data)]].build()
            fn = kernel.directed(a, r)
            cases.append((T, tuple(fn.derivative_view(xi) for xi in xis)))
            cases.append((T, tuple(p.rescale(a, r) for p in probes)))
        got = pair_many(cases, config, strict=False)
        assert got == [pair_many([case], config, strict=False)[0] for case in cases]

    @pytest.mark.parametrize("d", [1, 2])
    def test_column_integrand_is_scalar_integrand(self, d, kernel_cache):
        # component c of a vector job is data . phi_c on a contiguous
        # (points, d) array: the scalar integrand of (data, phi_c), bit for
        # bit, on the support box and on the disk in polar coordinates
        kernel, a = kernel_cache(2, 2), [0.2, -0.1]
        (data,) = function_distribution(2, ["exp(-x1^2 - x2^2)", "cos(3*x1) * x2"][:d], d).atoms
        xis = [xi for m in range(2) for xi in xi_set(2, m)]
        jobs = [(data, tuple(kernel.directed(a, r, d, c).derivative_view(xi)
                             for xi in xis for c in range(d)), ()) for r in (0.5, 0.05)]
        rng = np.random.default_rng(9)
        pts = np.concatenate([np.asarray(a) + rng.uniform(-r, r, size=(200, 2))
                              for r in (0.5, 0.05)])
        job = np.repeat([0, 1], 200)
        boxes, disks = [None, None], [(tuple(a), r) for r in (0.5, 0.05)]
        got = distribution._integrand(jobs, d, boxes)(pts, job)
        assert got.shape == (len(pts), len(xis) * d)
        square = rng.uniform(size=(400, 2))
        polar = distribution._integrand(jobs, d, disks)(square, job)
        for c in range(got.shape[1]):
            scalar = [(f, (phis[c],), s) for f, phis, s in jobs]
            assert np.array_equal(got[:, c], distribution._integrand(scalar, d, boxes)(
                pts, job)[:, 0]), c
            assert np.array_equal(polar[:, c], distribution._integrand(scalar, d, disks)(
                square, job)[:, 0]), c
            for j, (_, phis, _) in enumerate(jobs):
                sel = job == j
                want = np.einsum("ij,ij->i", data.eval(pts[sel]),
                                 phis[c].eval_deriv(MultiIndex((0, 0)), pts[sel]))
                assert np.array_equal(got[sel, c], want), (c, j)

    def test_vector_pairing_needs_one_ball(self, corpus):
        members = make_dictionary(1, 1, 0, 12, 0).members
        T = corpus["exp"].build()
        with pytest.raises(ValueError):
            pair_many([(T, (members[0], members[0].rescale([0.5], 0.5)))])
        with pytest.raises(ValueError):
            pair_many([(T, (members[0], next(m for m in members if len(m.atoms) > 1)))])

    def test_gauss2d_kernel_derivatives_against_cubature(self, corpus, kernel_cache):
        # the 2-D independent check: T = exp(-|x|^2) against Phi_r and its
        # first derivatives, each written out here from the bump formula and
        # integrated by scipy's cubature
        cubature = pytest.importorskip("scipy.integrate").cubature
        T = corpus["gauss2d"].build()
        kernel = kernel_cache(2, 2)
        (atom,) = kernel.testfn.atoms
        a, r = np.array([0.3, -0.2]), 0.4
        fn = kernel.directed(a, r)
        phis = (fn, fn.derivative_view(MultiIndex((1, 0))), fn.derivative_view(MultiIndex((0, 1))))
        got = pair_many([(T, phis)], QuadratureConfig(rel_tol=1e-12, abs_floor=1e-15))[0]

        def integrand(x):
            u = (x - a) / r
            s = np.sum(u * u, axis=-1)
            inside = s < 1.0 - 1e-12
            sm1 = np.where(inside, s - 1.0, -1.0)
            bump = np.where(inside, np.exp(1.0 / sm1), 0.0)
            phi = atom.coeff[0] * r ** -2 * bump
            # d/dx_j exp(1/(s - 1)) = -2 u_j / (s - 1)^2 exp(1/(s - 1)) / r
            grad = phi[..., None] * (-2.0 * u / (sm1[..., None] ** 2 * r))
            g = np.exp(-np.sum(x * x, axis=-1))
            return np.concatenate([(g * phi)[..., None], g[..., None] * grad], axis=-1)

        ref = cubature(integrand, a - r, a + r, rtol=1e-11, atol=1e-14)
        assert ref.status == "converged"
        for res, want, err in zip(got, ref.estimate, ref.error):
            assert abs(res.value - want) <= res.abs_error_bound + err, (res, want, err)
