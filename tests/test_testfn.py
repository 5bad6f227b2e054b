"""Bump-based test functions: derivatives, rescaling, seminorms, dictionaries."""

import itertools
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_directional_max
from ptdiff import (MultiIndex, TestFn, bump_monomial, make_dictionary, seminorm,
                    standard_bump, xi_set)
from ptdiff import cores, quadrature, tensor, testfn
from ptdiff.cores import UnsupportedOrderError
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

    @pytest.mark.parametrize("n, shape", [(1, (2,)), (2, (3, 4))])
    def test_points_of_another_shape_rejected(self, n, shape):
        # two numbers are not one 1-D point, and (3, 4) is not a batch of
        # 2-D points: neither is read as some other set of points
        b = standard_bump(n)
        with pytest.raises(ValueError, match="shape"):
            b.eval_deriv(xi_set(n, 0)[0], np.full(shape, 0.1))
        assert b.eval_deriv(xi_set(n, 0)[0], np.full(n, 0.1)).shape == (1,)
        assert b.eval_deriv(xi_set(n, 0)[0], np.full((5, n), 0.1)).shape == (5, 1)

    def test_order_too_high_rejected(self):
        b = standard_bump(1)
        with pytest.raises(UnsupportedOrderError):
            b.eval_deriv(MultiIndex((9,)), [0.0])

    def test_bump_1d_matches(self):
        xs = np.linspace(-0.9, 0.9, 11)
        b = standard_bump(1)
        np.testing.assert_allclose(
            cores.core_eval(1, cores.BUMP, None, MultiIndex((0,)), xs[:, None]),
            b.eval_deriv(MultiIndex((0,)), xs[:, None])[:, 0], rtol=1e-14)


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
    if phi.offset is not None:
        xi = xi + phi.offset
    out = np.zeros((pts.shape[0], phi.d))
    for a in phi.atoms:
        u = (pts - np.asarray(a.center)) / a.radius
        vals = cores.core_eval(phi.n, a.kind, a.core_xi, xi, u)
        out += (a.radius ** (-xi.order) * vals)[:, None] * np.asarray(a.coeff)[None, :]
    return out


def _bin_atoms(st, pts, j):
    """The atoms of each point's bin in the atom-bin index of the stack st,
    the points all of job j: row-major over the floors, each clipped to the
    margins of the job's grid."""
    origin, width, nbins, base, start, atoms, _ = st.bins
    lin = np.zeros(len(pts))
    for a in range(st.n):
        t = np.clip(np.floor((pts[:, a] - origin[a, j]) / width[j]), -1.0, nbins[a, j])
        lin = lin * (nbins[a, j] + 2.0) + t
    return [atoms[start[b]:start[b + 1]] for b in (base[j] + lin).astype(int)]


def _probe(n, label, seed=3):
    return next(c for c in _candidate_stream(n, 1, seed) if c.label == label)


def _boundary_points(phi, rng, count=6):
    """Points within 1e-12 (relative) of atom support spheres, on both sides."""
    n = phi.n
    atoms = phi.atoms
    rows = []
    for a in atoms[:: max(1, len(atoms) // count)]:
        for rel in (-1e-12, -4e-13, 0.0, 4e-13, 1e-12):
            v = rng.normal(size=n)
            rows.append(np.asarray(a.center) + a.radius * (1.0 + rel) * v / np.linalg.norm(v))
    return np.asarray(rows)


def _mixed_kinds():
    """Bump and bump-times-monomial atoms at different centers: two core groups."""
    fns = (bump_monomial(2, (1, 1)).rescale([0.2, -0.1], 0.6),
           standard_bump(2).rescale([-0.3, 0.25], 0.5),
           bump_monomial(2, (0, 2)).rescale([0.1, 0.3], 0.4))
    # every support ball lies in B(0, 1)
    return TestFn.of(2, 1, sum((f.atoms for f in fns), ()), (0.0, 0.0), 1.0)


BATCH_PROBES = {
    "plateau_1d_w0.2": lambda kc: _probe(1, "plateau_w0.2"),
    "plateau_1d_w0.05": lambda kc: _probe(1, "plateau_w0.05"),
    "odd_plateau_1d_w0.1": lambda kc: _probe(1, "odd_plateau_axis0_w0.1"),
    "random_1d": lambda kc: _probe(1, "random_0"),
    "plateau_2d_w0.2": lambda kc: _probe(2, "plateau_w0.2"),
    "odd_plateau_2d_axis1_w0.2": lambda kc: _probe(2, "odd_plateau_axis1_w0.2"),
    "random_2d_rescaled": lambda kc: _probe(2, "random_1").rescale([0.3, -0.2], 0.7),
    "mixed_kinds_2d": lambda kc: _mixed_kinds(),
    "moment_kernel_1d_deg4": lambda kc: kc(1, 4).directed([0.1], 0.3),
    "derived_plateau_1d": lambda kc: _probe(1, "plateau_w0.1").derivative_view(
        MultiIndex((1,))),
}


# each member's first atom coefficient, weight / seminorm, to the last
# bit: the dictionaries' normalizers
PINNED_NORMALIZERS = {
    (2, 1, 0, 15, 0): [
        ("bump", "0x1.5bf0a8b145769p+1"),
        ("bump*x^(1, 0)", "0x1.e4a17f1f90ef0p+2"),
        ("bump*x^(0, 1)", "0x1.e4a17f1f90ef0p+2"),
        ("bump*x^(2, 0)", "0x1.a68076de869d0p+3"),
        ("bump*x^(1, 1)", "0x1.a68071651df37p+4"),
        ("bump*x^(0, 2)", "0x1.a68076de869d0p+3"),
        ("bump*x^(3, 0)", "0x1.4686e7f432b5ap+4"),
        ("bump*x^(2, 1)", "0x1.a82bdad8e24e4p+5"),
        ("bump*x^(1, 2)", "0x1.a82bdad8e24e4p+5"),
        ("bump*x^(0, 3)", "0x1.4686e7f432b5ap+4"),
        ("half_axis0+", "0x1.5bf0a8b145769p+1"),
        ("half_axis0-", "0x1.5bf0a8b145769p+1"),
        ("half_axis1+", "0x1.5bf0a8b145769p+1"),
        ("half_axis1-", "0x1.5bf0a8b145769p+1"),
        ("plateau_w0.2", "0x1.04be8e35c702fp-1"),
    ],
    (2, 1, 1, 15, 0): [
        ("bump", "0x1.40a11c777332bp+0"),
        ("bump*x^(1, 0)", "0x1.cf9176384792ep+0"),
        ("bump*x^(0, 1)", "0x1.cf9176384792ep+0"),
        ("bump*x^(2, 0)", "0x1.3926d8d7227efp+1"),
        ("bump*x^(1, 1)", "0x1.3926dac618df4p+2"),
        ("bump*x^(0, 2)", "0x1.3926d8d7227efp+1"),
        ("bump*x^(3, 0)", "0x1.97e7b5efa584fp+1"),
        ("bump*x^(2, 1)", "0x1.08f10eda7ffdep+3"),
        ("bump*x^(1, 2)", "0x1.08f10eda7ffdfp+3"),
        ("bump*x^(0, 3)", "0x1.97e7b5efa584fp+1"),
        ("half_axis0+", "0x1.40a11c777332bp-1"),
        ("half_axis0-", "0x1.40a11c777332bp-1"),
        ("half_axis1+", "0x1.40a11c777332bp-1"),
        ("half_axis1-", "0x1.40a11c777332bp-1"),
        ("plateau_w0.2", "0x1.527d6595c5b6cp-4"),
    ],
    (2, 1, 2, 15, 0): [
        ("bump", "0x1.0844a4b601fe2p-3"),
        ("bump*x^(1, 0)", "0x1.3f762be5b12efp-3"),
        ("bump*x^(0, 1)", "0x1.3f762be5b12efp-3"),
        ("bump*x^(2, 0)", "0x1.7d6c77a73f51cp-3"),
        ("bump*x^(1, 1)", "0x1.7d6c7812ba3eap-2"),
        ("bump*x^(0, 2)", "0x1.7d6c77a73f51cp-3"),
        ("bump*x^(3, 0)", "0x1.c2fef22efa83cp-3"),
        ("bump*x^(2, 1)", "0x1.24ee4f73e04b3p-1"),
        ("bump*x^(1, 2)", "0x1.24ee4f73e04b1p-1"),
        ("bump*x^(0, 3)", "0x1.c2fef22efa83cp-3"),
        ("half_axis0+", "0x1.0844a4b601fe2p-5"),
        ("half_axis0-", "0x1.0844a4b601fe2p-5"),
        ("half_axis1+", "0x1.0844a4b601fe2p-5"),
        ("half_axis1-", "0x1.0844a4b601fe2p-5"),
        ("plateau_w0.2", "0x1.511a9f84ab9b0p-9"),
    ],
    (1, 1, 0, 12, 1): [
        ("bump", "0x1.5bf0a8b145769p+1"),
        ("bump*x^(1,)", "0x1.e4a17f1f90ef0p+2"),
        ("bump*x^(2,)", "0x1.a68076de869d0p+3"),
        ("bump*x^(3,)", "0x1.4686e7f432b5ap+4"),
        ("half_axis0+", "0x1.5bf0a8b145769p+1"),
        ("half_axis0-", "0x1.5bf0a8b145769p+1"),
        ("plateau_w0.2", "0x1.1e028ce0785d9p+0"),
        ("plateau_w0.1", "0x1.1e028ce0785dbp+0"),
        ("plateau_w0.05", "0x1.1e028ce0785cfp+0"),
        ("odd_plateau_axis0_w0.2", "-0x1.1e028ce0785d9p+0"),
        ("odd_plateau_axis0_w0.1", "-0x1.1e028ce0785dbp+0"),
        ("random_0", "0x1.3f72e08883d5fp-3"),
    ],
    (1, 1, 1, 12, 1): [
        ("bump", "0x1.40a11e113558cp+0"),
        ("bump*x^(1,)", "0x1.cf9176384792ep+0"),
        ("bump*x^(2,)", "0x1.3926d8d7227efp+1"),
        ("bump*x^(3,)", "0x1.97e7b5efa584fp+1"),
        ("half_axis0+", "0x1.40a11e113558cp-1"),
        ("half_axis0-", "0x1.40a11e113558cp-1"),
        ("plateau_w0.2", "0x1.93b130af9e951p-3"),
        ("plateau_w0.1", "0x1.93b151f9c7950p-4"),
        ("plateau_w0.05", "0x1.93b124f1d6529p-5"),
        ("odd_plateau_axis0_w0.2", "-0x1.00f6201d6a2e7p-3"),
        ("odd_plateau_axis0_w0.1", "-0x1.00f62fbab8396p-4"),
        ("random_0", "0x1.0236db0552ba1p-7"),
    ],
    (1, 1, 2, 12, 1): [
        ("bump", "0x1.0844e0fcc2fd7p-3"),
        ("bump*x^(1,)", "0x1.3f762be5b12efp-3"),
        ("bump*x^(2,)", "0x1.7d6c77a73f51cp-3"),
        ("bump*x^(3,)", "0x1.c2fef22efa83cp-3"),
        ("half_axis0+", "0x1.0844e0fcc2fd7p-5"),
        ("half_axis0-", "0x1.0844e0fcc2fd7p-5"),
        ("plateau_w0.2", "0x1.5243af5803d3cp-8"),
        ("plateau_w0.1", "0x1.524369423c944p-10"),
        ("plateau_w0.05", "0x1.524c0afe9d457p-12"),
        ("odd_plateau_axis0_w0.2", "-0x1.1a84a42649bebp-8"),
        ("odd_plateau_axis0_w0.1", "-0x1.1a84d1b79d22cp-10"),
        ("random_0", "0x1.755d62b6c3e3cp-14"),
    ],
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
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", 97)
        for xi, ref in zip(xi_set(n, 1), want):
            assert np.array_equal(phi.eval_deriv(xi, pts), ref)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bins_hold_every_atom_of_their_points(self, n):
        # each point's bin holds, in ascending order, every atom whose ball
        # holds the point, for rescaled plateaus, odd plateaus and a random
        # sum in one stack, at points in and around their supports
        rng = np.random.default_rng(4)
        labels = ("plateau_w0.1", "odd_plateau_axis0_w0.2", "random_2")
        fns = [_probe(n, label).rescale(rng.uniform(-3, 3, size=n), rng.uniform(0.01, 5))
               for label in labels]
        st = testfn.StackedFns.of([(phi, xi_set(n, 0)[0]) for phi in fns])
        for j, phi in enumerate(fns):
            c, r = np.asarray(phi.support_center), phi.support_radius
            pts = c + rng.uniform(-1.2 * r, 1.2 * r, size=(300, n))
            for x, got in zip(pts, _bin_atoms(st, pts, j)):
                near = np.sum((x - st.centers) ** 2, axis=1) < st.radii ** 2
                inside = np.flatnonzero(near & (st.job == j))
                assert np.isin(inside, got).all()
                assert (np.diff(got) > 0).all() and (st.job[got] == j).all()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_blocks_cut_candidates(self, layout, monkeypatch):
        # a dense 1-D batch at 97 points and 97 pairs a block: blocks of
        # pairs end inside the candidates of a point, which the next block
        # goes on with
        phi = _probe(1, "plateau_w0.2")
        pts = np.random.default_rng(8).uniform(-1.05, 1.05, size=(5000, 1))
        st = testfn.StackedFns.of([(phi, xi_set(1, 0)[0])])
        count = np.array([len(got) for got in _bin_atoms(st, pts[:97], 0)])
        ends = np.cumsum(count)
        edges = np.arange(97, ends[-1], 97)
        assert (((ends - count)[:, None] < edges) & (edges < ends[:, None])).any()
        wide = np.zeros((len(pts), 3))
        wide[:, 1] = pts[:, 0]
        given_pts = {"C": np.ascontiguousarray(pts), "F": np.asfortranarray(pts),
                     "strided": wide[:, 1:2]}[layout]
        want = [_atom_loop(phi, xi, pts) for order in range(3) for xi in xi_set(1, order)]
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", 97)
        got = [phi.eval_deriv(xi, given_pts) for order in range(3) for xi in xi_set(1, order)]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

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

    @pytest.mark.parametrize("args", sorted(PINNED_NORMALIZERS))
    def test_dictionary_normalizers_pinned(self, args):
        members = make_dictionary(*args).members
        got = [(m.label, float(m.atoms[0].coeff[0]).hex()) for m in members]
        assert got == PINNED_NORMALIZERS[args]

    def test_kernel_sup_norms_pinned(self, kernel_cache):
        kernel = kernel_cache(2, 2)
        got = [float(kernel.deriv_supnorm(i)).hex() for i in range(3)]
        assert got == ["0x1.93bff144b2b7bp-1", "0x1.b623fd57522f4p+0", "0x1.09cac214dc26ep+4"]


def _one_cell(n):
    """The points of one split cell of the quadrature engine."""
    return 2 * quadrature.GL_ORDER ** n + quadrature.GL_ORDER_LOW ** n


class TestOneBlock:
    """No seminorm depends on ``quadrature.BLOCK_POINTS``, the block of its
    grid rows and of the culled pairs, down to one grid row a block; the
    culled blocks' arrays are kept from block to block."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("block", ["97", "one cell"])
    def test_seminorm(self, n, block, monkeypatch):
        members = [bump_monomial(n, (1,) + (0,) * (n - 1)).rescale([0.1] * n, 0.7),
                   _probe(n, "plateau_w0.2")]
        # a 129-point grid axis: 2-D grids of one block of 127 rows and one
        # of 2 rows at the default block, of one row a block when patched
        want = [seminorm(phi, i, grid_points=128).hex() for phi in members for i in range(3)]
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", 97 if block == "97" else _one_cell(n))
        got = [seminorm(phi, i, grid_points=128).hex() for phi in members for i in range(3)]
        assert got == want

    def test_kept_arrays(self):
        # the culled search's arrays are the same memory from call to call,
        # grown to the largest request; another thread has its own
        first = testfn._kept("test", (2, 10))
        again = testfn._kept("test", 15)
        assert np.shares_memory(first, again) and again.shape == (15,)
        grown = testfn._kept("test", 100)
        assert np.shares_memory(grown, testfn._kept("test", 3))
        other = []
        thread = threading.Thread(target=lambda: other.append(testfn._kept("test", 3)))
        thread.start()
        thread.join()
        assert not np.shares_memory(grown, other[0])


def _mixed_members(n, d=2):
    """Unit-ball members (the bump in every direction, the monomials), the
    half-axis members, a plateau and a random sum, interleaved."""
    stream = list(itertools.islice(_candidate_stream(n, d, 5), 60))
    labels = [c.label for c in stream]
    unit = stream[:d] + [c for c in stream if c.label.startswith("bump*x^")]
    half = [c for c in stream if c.label.startswith("half_axis")]
    plateau, random = (stream[labels.index(name)] for name in ("plateau_w0.2", "random_1"))
    return unit[:3] + half[:1] + [plateau] + unit[3:] + half[1:] + [random]


def _whole_grid_top(phi, i, grid_points):
    """The grid points of the SCREEN_CANDIDATES best screen values on the
    whole grid at once, by ``_top_indices``: the screen before it went
    block by block."""
    lo = np.asarray(phi.support_center) - phi.support_radius
    hi = np.asarray(phi.support_center) + phi.support_radius
    pts = testfn._mesh([np.linspace(lo[j], hi[j], grid_points + 1) for j in range(phi.n)])
    screen = tensor.opnorms(phi.n, i, phi.eval_deriv(xi_set(phi.n, i), pts), None,
                            testfn.SCREEN_DIRECTIONS)[0]
    top = testfn._top_indices(screen, testfn.SCREEN_CANDIDATES)
    return pts[top], screen[top]


class TestBatchedSeminorm:
    """seminorm of a sequence: each value bit-identical to its own call."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_equals_one_call_at_a_time(self, n, i):
        phis = _mixed_members(n)
        assert len({phi.ball[:2] for phi in phis if phi.ball}) == 1 + 2 * n
        want = [seminorm(phi, i, grid_points=128).hex() for phi in phis]
        assert [v.hex() for v in seminorm(phis, i, grid_points=128)] == want

    def test_with_K_and_derivative_views(self):
        # boxes cut by K, one of them empty, views of one ball, and one
        # ball with two boxes: a half-axis member and the same atom on the
        # support B(0, 1)
        phis = _mixed_members(2, 1)
        half = next(phi for phi in phis if phi.label == "half_axis0+")
        phis += [phis[0].derivative_view(MultiIndex((1, 0))), phis[1].rescale([0.2, 0.1], 0.5),
                 _sum_of_bumps(2, 1, [(half.centers[0], half.radii[0], 1.0)], 0, "wide")]
        for K in (None, ([0.3, -0.2], 0.4), ([0.4, 0.4], 0.35), ([5.0, 5.0], 1.0)):
            want = [seminorm(phi, 1, K, grid_points=64) for phi in phis]
            assert seminorm(phis, 1, K, grid_points=64) == want
        assert seminorm(phis, 1, ([5.0, 5.0], 1.0)) == [0.0] * len(phis)

    def test_empty_and_mixed_dimensions(self):
        assert seminorm([], 1) == []
        with pytest.raises(ValueError, match="one n and d"):
            seminorm([standard_bump(1), standard_bump(2)], 0)
        with pytest.raises(ValueError, match="one n and d"):
            seminorm([standard_bump(2), standard_bump(2, d=2)], 0)
        with pytest.raises(UnsupportedOrderError):
            seminorm([standard_bump(1), standard_bump(1, max_deriv_order=1)], 2)

    @pytest.mark.parametrize("n, block, members", [
        # ties by symmetry between grid rows, 3 rows a block
        (2, 3 * 129, lambda: [standard_bump(2), bump_monomial(2, (1, 0)),
                              bump_monomial(2, (1, 1))]),
        # a small atom far from the center of its support box: 60 or more
        # of the 64 best values are 0, ties across blocks of 16 points
        (1, 16, lambda: [_sum_of_bumps(1, 1, [(np.array([0.6]), 0.02, w)], 0, "small")
                         for w in (1.0, -2.0)]),
    ], ids=["2d-symmetric", "1d-zeros"])
    def test_block_screen_is_whole_grid_top(self, n, block, members, monkeypatch):
        # the best points kept block by block are _top_indices of the whole
        # grid, ties to the lower grid index across block edges
        phis = members()
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", block)
        for i in range(3):
            axes = [np.linspace(-1.0, 1.0, 129)] * n
            got = testfn._screen(phis, i, axes)
            for phi, pts in zip(phis, got):
                want, values = _whole_grid_top(phi, i, 128)
                assert np.array_equal(pts, want), (phi.label, i)
                cut = values.min()
                ties = np.flatnonzero(values == cut)
                assert len(ties) > 1  # the cut value is tied
                if n == 1:
                    assert cut == 0.0 and len(ties) > block


ONE_BALL_FNS = {
    "bump_2d": lambda kc: standard_bump(2),
    "bump_monomial_2d": lambda kc: bump_monomial(2, (1, 2)).rescale([0.2, -0.1], 0.6),
    "kernel_1d_deg5": lambda kc: kc(1, 5).testfn,
    "kernel_2d_deg3": lambda kc: kc(2, 3).testfn,
    "kernel_2d_directed": lambda kc: kc(2, 3).directed([0.1, -0.2], 0.3, d=2, component=1),
}


class TestFusedTensors:
    """All order-i derivatives of a one-ball function at once: one core_eval
    call, each column the per-xi value bit for bit."""

    @pytest.mark.parametrize("name", sorted(ONE_BALL_FNS))
    def test_columns_bit_identical(self, name, kernel_cache, monkeypatch):
        phi = ONE_BALL_FNS[name](kernel_cache)
        assert phi.ball is not None
        rng = np.random.default_rng(4)
        c, r = np.asarray(phi.support_center), phi.support_radius
        pts = np.concatenate([c + rng.uniform(-1.2 * r, 1.2 * r, size=(300, phi.n)),
                              _boundary_points(phi, rng)])
        calls = []
        core_eval = cores.core_eval
        monkeypatch.setattr(cores, "core_eval",
                            lambda *a, **kw: calls.append(a) or core_eval(*a, **kw))
        for i in range(5):
            indices = xi_set(phi.n, i)
            calls.clear()
            got = phi.eval_deriv(indices, pts)
            assert len(calls) == 1
            assert got.shape == (len(pts), len(indices), phi.d)
            want = np.stack([_atom_loop(phi, xi, pts) for xi in indices], axis=1)
            assert np.array_equal(got, want), (name, i)
            per_xi = np.stack([phi.eval_deriv(xi, pts) for xi in indices], axis=1)
            assert np.array_equal(got, per_xi), (name, i)


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


    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -0.5, 1e-310])
    def test_radius_outside_the_normal_floats_rejected(self, r):
        with pytest.raises(testfn.ScaleError):
            standard_bump(1).rescale([0.0], r)

    def test_rescaled_atom_radius_below_the_normal_floats_rejected(self):
        plateau = _probe(1, "plateau_w0.05")  # atoms of radius 0.05
        assert plateau.rescale([0.0], 1e-300).radii.min() == 0.05 * 1e-300
        with pytest.raises(testfn.ScaleError):
            plateau.rescale([0.0], 1e-307)

    def test_atom_ball_rounded_to_a_point_rejected(self):
        # at 1e15 floats are 0.125 apart: an atom of radius 0.025 rounds to
        # its center, one of radius 0.2 keeps two last places either side
        plateau = _probe(1, "plateau_w0.05")
        with pytest.raises(testfn.ScaleError, match="zero width"):
            plateau.rescale([1e15], 0.5)
        wide = plateau.rescale([1e15], 4.0)
        assert (wide.centers[:, 0] - wide.radii < wide.centers[:, 0] + wide.radii).all()

    def test_derivative_scale_overflow_rejected(self):
        b = standard_bump(1).rescale([0.0], 1e-150)
        assert np.isfinite(b.eval_deriv(MultiIndex((2,)), [0.0])).all()  # 1e300 r^-2
        with pytest.raises(testfn.ScaleError):
            b.eval_deriv(MultiIndex((3,)), [0.0])


def _old_rescale(atoms, a, r):
    """The per-atom rescale the atom table replaced: the reference."""
    a = np.asarray(a, dtype=float)
    return tuple(replace(t, center=tuple(a + r * np.asarray(t.center)), radius=r * t.radius)
                 for t in atoms)


def _old_scaled_by(atoms, c):
    return tuple(replace(t, coeff=tuple(c * np.asarray(t.coeff))) for t in atoms)


def _old_directed(atoms, d, component):
    return tuple(replace(t, coeff=tuple(t.coeff[0] if j == component else 0.0 for j in range(d)))
                 for t in atoms)


def _old_rows(jobs):
    """The per-atom rows (center, radius, coeff, radius ** -|xi|, group, job,
    column) of StackedFns.of as arrays, and its groups: the reference.
    Each job is a list of columns (atoms, offset, xi)."""
    rows, keys = [], {}
    for j, cols in enumerate(jobs):
        for c, (atoms, offset, xi) in enumerate(cols):
            if offset is not None:
                xi = xi + offset
            rows += [(a.center, a.radius, a.coeff, a.radius ** (-xi.order),
                      keys.setdefault((a.kind, a.core_xi, xi), len(keys)), j, c) for a in atoms]
    return [np.array(col) for col in zip(*rows)], tuple(keys)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAtomTable:
    """A test function's atom table against the per-atom code it replaced,
    bit for bit: rescale, scaled_by, directed kernels, derivative views and
    the rows of StackedFns.of."""

    @pytest.fixture(scope="class")
    def pairs(self, dict_cache, kernel_cache):
        """(table function, reference atoms), the same function both ways."""
        members = [m for i in range(3) for m in dict_cache(1, 1, i, 12, 1).members]
        members += dict_cache(2, 1, 0, 15, 0).members
        kernels = [kernel_cache(n, k) for n, k in ((1, 3), (1, 4), (2, 2))]
        rng = np.random.default_rng(5)
        out = []
        for fn in members + [k.testfn for k in kernels]:
            a, r = rng.uniform(-1, 1, fn.n), float(rng.uniform(0.01, 2.0))
            c = float(rng.uniform(-3, 3))
            out.append((fn.rescale(a, r).scaled_by(c),
                        _old_scaled_by(_old_rescale(fn.atoms, a, r), c)))
        for k in kernels:
            a, r = rng.uniform(-1, 1, k.n), float(rng.uniform(0.01, 1.0))
            old = _old_scaled_by(_old_rescale(k.testfn.atoms, a, r), r ** (-k.n))
            out.append((k.directed(a, r), old))
            out.append((k.directed(a, r, 2, 1), _old_directed(old, 2, 1)))
        return out

    def test_tables(self, pairs):
        for new, old in pairs:
            assert _same_bits(new.centers, np.array([t.center for t in old]))
            assert _same_bits(new.radii, np.array([t.radius for t in old]))
            assert _same_bits(new.coeffs, np.array([t.coeff for t in old]))
            assert [new.kinds[k] for k in new.kind] == [(t.kind, t.core_xi) for t in old]
            assert new.atoms == old
            assert not new.centers.flags.writeable

    @pytest.mark.parametrize("m", [1, 3])
    def test_stacked_rows(self, pairs, m):
        shapes = {}
        for new, old in pairs:
            shapes.setdefault((new.n, new.d), []).append((new, old))
        for (n, _), fns in shapes.items():
            first = xi_set(n, 1)[0]
            cols = []  # (table function, reference atoms, reference offset, xi)
            for k, (new, old) in enumerate(fns):
                for order in range(3):
                    cols.append((new, old, None, xi_set(n, order)[k % len(xi_set(n, order))]))
                cols.append((new.derivative_view(first), old, first, xi_set(n, 1)[-1]))
            jobs = [cols[j:j + m] for j in range(0, len(cols) - m + 1, m)]
            st = testfn.StackedFns.of([[(fn, xi) for fn, _, _, xi in job] for job in jobs])
            arrays, keys = _old_rows([[(old, off, xi) for _, old, off, xi in job] for job in jobs])
            for got, want in zip((st.centers, st.radii, st.coeffs, st.scale, st.group, st.job,
                                  st.col), arrays):
                assert _same_bits(got, want)
            assert st.groups == keys


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
