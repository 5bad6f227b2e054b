"""The lockstep quadrature engine and pair_many: equal to one integral at a time.

Every pairing, every integral and every test-function value is held to
the one-at-a-time result bit for bit, and the values to an independent
adaptive quadrature (scipy's QUADPACK) within their stated bounds.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from ptdiff import (MultiIndex, PairingResult, PolyJet, QuadratureConfig,
                    QuadratureNonConvergence, derivative, integrate_box,
                    integrate_boxes, make_dictionary, pair, pair_many,
                    subtract_jet, xi_set)
from ptdiff import testfn
from ptdiff.testfn import StackedFns, eval_stacked

CLASSIFY_QUAD = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 12)


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
        T = corpus["gauss2d"].build()
        members = make_dictionary(2, 1, 0, 15, 0).members
        probes = [m for m in members if len(m.atoms) == 1][:6]
        plateau = next(m for m in members if m.label == "plateau_w0.2")
        a = [0.2, -0.1]
        pairs = [(T, m.rescale(a, float(r))) for m in probes for r in 2.0 ** -np.arange(5)]
        pairs.append((T, plateau.rescale(a, 0.5)))
        config = QuadratureConfig(rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 7)
        assert pair_many(pairs, config, strict=False) == _one_at_a_time(pairs, config)

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

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            integrate_boxes(lambda p, j: np.ones(len(p)), [([0.0], [1.0], ()),
                                                           ([0.0, 0.0], [1.0, 1.0], ())])


def _atom_loop(phi, xi, pts):
    """D^xi phi summed one atom at a time over every point: the reference."""
    out = np.zeros((pts.shape[0], phi.d))
    for a in phi.atoms:
        u = (pts - np.asarray(a.center)) / a.radius
        vals = testfn.cores.core_eval(phi.n, a.kind, a.core_xi, xi, u)
        out += (a.radius ** (-xi.order) * vals)[:, None] * np.asarray(a.coeff)[None, :]
    return out


class TestStackedEvaluator:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", [None, 97])
    def test_equals_per_function(self, n, block, monkeypatch):
        if block:
            monkeypatch.setattr(testfn, "PAIR_BLOCK", block)
        rng = np.random.default_rng(7)
        members = make_dictionary(n, 1, 0, 16 if n == 1 else 15, 2).members
        # one-support (bump, monomials) and multi-atom (plateaus, random)
        # probes, rescaled, each with several derivative orders
        jobs, pts, job = [], [], []
        for m, member in enumerate(members):
            phi = member.rescale(rng.uniform(-1, 1, size=n), float(rng.uniform(0.05, 2.0)))
            for order in range(3):
                xi = xi_set(n, order)[m % len(xi_set(n, order))]
                c, r = np.asarray(phi.support_center), phi.support_radius
                pts.append(c + rng.uniform(-1.2 * r, 1.2 * r, size=(int(rng.integers(1, 60)), n)))
                job += [len(jobs)] * len(pts[-1])
                jobs.append((phi, xi))
        pts = np.concatenate(pts)
        job = np.asarray(job)
        order = rng.permutation(len(job))  # runs need not be contiguous
        got = eval_stacked(StackedFns.of(jobs), pts[order], job[order])
        for j, (phi, xi) in enumerate(jobs):
            sel = job[order] == j
            want = _atom_loop(phi, xi, pts[order][sel])
            assert np.array_equal(got[sel], want), (j, phi.label, xi.entries)
            assert np.array_equal(got[sel], phi.eval_deriv(xi, pts[order][sel]))

    def test_derivative_views(self):
        members = make_dictionary(1, 1, 0, 12, 0).members
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.1, 1.1, size=(300, 1))
        views = [m.derivative_view(MultiIndex((1,))) for m in members]
        jobs = [(v.base, v.offset + MultiIndex((1,))) for v in views]
        job = np.repeat(np.arange(len(jobs)), 25)
        got = eval_stacked(StackedFns.of(jobs), pts, job)
        for j, v in enumerate(views):
            sel = job == j
            assert np.array_equal(got[sel], v.eval_deriv(MultiIndex((1,)), pts[sel]))

    def test_order_above_bound(self):
        phi = make_dictionary(1, 1, 0, 4, 0).members[0]
        with pytest.raises(testfn.UnsupportedOrderError):
            StackedFns.of([(phi, MultiIndex((phi.max_deriv_order + 1,)))])


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
