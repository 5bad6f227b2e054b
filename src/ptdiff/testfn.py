"""Compactly supported smooth test functions with exact derivatives.

A TestFn is a finite sum of core atoms (bump or bump-times-monomial),
each translated, dilated, and weighted by a vector coefficient in R^d.
Derivatives up to ``max_deriv_order`` evaluate through the closed-form
prefactor recursion in :mod:`ptdiff.cores`, so integration by parts
downstream is exact.  A derivative view D^o phi is a TestFn as well: the
same atoms with offset o, whose D^xi is the atoms' D^(xi + o).

One evaluator, ``eval_stacked``, evaluates every test function: it takes
many jobs, each M (test function, derivative) columns, and gives the
values of every column of each point's job.  ``TestFn.eval_deriv`` is its
one-job case, ``seminorm`` reads its derivative tensors off one
``eval_deriv`` call per block of grid rows, and the pairing engine
evaluates all its test functions with it.

A job whose atoms share one ball (one atom, moment kernels, the
derivatives of one) needs no search.  Its layout is its atoms' core specs
(kind, core multi-index, derivative) and columns, in atom order; the runs
of the jobs of one layout take one ``run_coords`` and one ``core_eval``
call over the layout's distinct specs, and their atoms add their terms
one after another, in atom order.  Only the points of the other jobs are
sorted, once, by a key made of their job, their bin over the first n - 1
coordinates (bins a quarter of the smallest atom radius wide) and their
last coordinate, so that the points of one job and bin inside an atom's
bounding box along the last axis are one run of the sorted order: the
candidate (atom, point) pairs are these runs, atom-major, slightly more
than the boxes.  They are taken in blocks of ``quadrature.BLOCK_POINTS``
candidates, each block whole runs but for the runs cut at its two edges,
which bounds the temporaries whatever the batch.  A pair is kept when
|u|^2 < 1 - BOUNDARY_CLAMP for the point u in the atom's core
coordinates, the test ``core_eval`` makes, and the kept pairs of a block
go to ``core_eval`` in one call per core group.

Core coordinates (x - center) / radius are built one coordinate at a time
by ``run_coords``, each center and radius repeated over its run of
points: a row index of a (points, n) array is far slower than a 1-D index
of each coordinate.

The result is bit-identical to summing each function's atoms one by one
over all points: a term is (scale * value) * coeff on both paths, the
radius power is a Python float power per atom, and both paths add each
point's terms in atom order (``np.add.at`` over atom-major pairs, block
after block, for the sorted points).  The pairs the search skips added
exact zeros, which change no sum, and so do the points that are not
finite, where every atom is 0.  So a point's value never depends on its
batch, nor on the block: the blocks, one size for every large evaluation
(``quadrature``'s block contract), bound the temporaries only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cores, quadrature
from .cores import UnsupportedOrderError
from .quadrature import job_runs, run_points
from .tensor import MultiIndex, opnorms, xi_set, zero_index

DEFAULT_MAX_DERIV_ORDER = 6
# seminorm screens its whole grid with this many directions (n = 2) and
# refines the norm in angle only at the best screened points
SCREEN_DIRECTIONS = 64
SCREEN_CANDIDATES = 64
# most bins per axis of the candidate search
MAX_BINS = 1024


@dataclass(frozen=True)
class CoreAtom:
    """coeff * core((x - center) / radius); support B(center, radius)."""

    kind: str
    core_xi: Optional[Tuple[int, ...]]
    center: Tuple[float, ...]
    radius: float
    coeff: Tuple[float, ...]


@dataclass(frozen=True)
class TestFn:
    """The sum of its atoms, or with an offset the derivative view
    D^offset of that sum: D^xi of a view is the sum's D^(xi + offset), and
    its ``max_deriv_order`` is what the sum has left.  ``rescale`` and
    ``scaled_by`` act on the atoms; a view stays D^offset of the result.
    """

    __test__ = False  # a test function, not a test class for pytest to collect

    n: int
    d: int
    atoms: Tuple[CoreAtom, ...]
    support_center: Tuple[float, ...]
    support_radius: float
    max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER
    label: str = ""
    offset: Optional[MultiIndex] = None  # the derivative of the atoms' sum; None: none

    def eval_deriv(self, xi, x) -> np.ndarray:
        """D^xi phi at one point (n,), values (d,), or at points (npts, n),
        values (npts, d).  With xi a sequence of M multi-indices, every
        D^xi at once: (M, d) or (npts, M, d), each column bit-identical to
        its xi alone.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,) and (x.ndim != 2 or x.shape[1] != self.n):
            raise ValueError(f"points must have shape ({self.n},) or (npts, {self.n}), "
                             f"not {x.shape}")
        pts = x.reshape(-1, self.n)
        one = isinstance(xi, MultiIndex)
        # one job: a byte per point for its index, not eight
        out = eval_stacked(StackedFns.of([[(self, e) for e in ([xi] if one else xi)]]), pts,
                           np.zeros(len(pts), np.int8))
        out = out[:, 0] if one else out
        return out[0] if x.ndim == 1 else out

    @cached_property
    def ball(self):
        """(center, radius, support center, support radius) when all atoms
        share one ball (one atom, moment kernels), or None."""
        if not self.atoms or len({(a.center, a.radius) for a in self.atoms}) > 1:
            return None
        first = self.atoms[0]
        return first.center, first.radius, self.support_center, self.support_radius

    def __call__(self, x) -> np.ndarray:
        return self.eval_deriv(zero_index(self.n), x)

    def rescale(self, a, r: float) -> "TestFn":
        """x -> phi((x - a) / r); derivatives pick up the exact r^{-|xi|}."""
        if r <= 0:
            raise ValueError("rescale radius must be positive")
        a = np.asarray(a, dtype=float).reshape(self.n)
        atoms = tuple(
            replace(t, center=tuple(a + r * np.asarray(t.center)), radius=r * t.radius)
            for t in self.atoms)
        return replace(
            self, atoms=atoms,
            support_center=tuple(a + r * np.asarray(self.support_center)),
            support_radius=r * self.support_radius)

    def scaled_by(self, c: float) -> "TestFn":
        atoms = tuple(replace(t, coeff=tuple(c * np.asarray(t.coeff))) for t in self.atoms)
        return replace(self, atoms=atoms)

    def derivative_view(self, xi: MultiIndex) -> "TestFn":
        """D^xi of this function, as a view of the same atoms."""
        return replace(self, offset=xi if self.offset is None else self.offset + xi,
                       max_deriv_order=self.max_deriv_order - xi.order)


@dataclass(frozen=True)
class StackedFns:
    """The atoms of many jobs as arrays, job-major and column-major within
    a job: column c of job j is D^xi phi for its c-th (phi, xi), and every
    job has m columns.

    A job whose atoms all share one ball has a layout: its atoms' core
    specs (kind, core multi-index, derivative) and columns, in atom order.
    Each distinct layout is stored once, as the group indices of its
    distinct specs and, per atom, its spec's position among them and its
    column.  The atoms of the other jobs are culled.
    """

    n: int
    d: int
    m: int
    centers: np.ndarray  # (A, n)
    radii: np.ndarray  # (A,)
    coeffs: np.ndarray  # (A, d)
    scale: np.ndarray  # (A,) radius ** -|xi|
    groups: Tuple[Tuple[str, Optional[Tuple[int, ...]], MultiIndex], ...]
    group: np.ndarray  # (A,) index into groups
    job: np.ndarray  # (A,)
    col: np.ndarray  # (A,)
    layouts: Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]], ...]
    layout: np.ndarray  # (J,) index into layouts, or -1: culled
    first: np.ndarray  # (J,) the job's first atom

    @classmethod
    def of(cls, jobs) -> "StackedFns":
        """Each job one (test function, multi-index) column, or a sequence
        of m of them; a derivative view D^o psi at xi is psi at xi + o."""
        jobs = [[job] if isinstance(job[-1], MultiIndex) else list(job) for job in jobs]
        if len({len(cols) for cols in jobs}) > 1:
            raise ValueError("every job of a stack must have the same number of columns")
        rows, keys, layouts = [], {}, {}  # keys: distinct (kind, core_xi, xi) -> group
        layout, first = [], []
        for j, cols in enumerate(jobs):
            first.append(len(rows))
            for c, (fn, xi) in enumerate(cols):
                if xi.order > fn.max_deriv_order:
                    raise UnsupportedOrderError(f"derivative order {xi.order} exceeds "
                                                f"configured bound {fn.max_deriv_order}")
                if fn.offset is not None:
                    xi = xi + fn.offset
                rows += [(a.center, a.radius, a.coeff, a.radius ** (-xi.order),
                          keys.setdefault((a.kind, a.core_xi, xi), len(keys)), j, c)
                         for a in fn.atoms]
            mine = rows[first[-1]:]
            one = len({row[:2] for row in mine}) == 1  # every atom on one ball
            layout.append(layouts.setdefault(tuple((row[4], row[6]) for row in mine),
                                             len(layouts)) if one else -1)
        specs = []
        for key in layouts:
            used = list(dict.fromkeys(g for g, _ in key))
            specs.append((tuple(used), tuple((used.index(g), c) for g, c in key)))
        n, d = jobs[0][0][0].n, jobs[0][0][0].d
        arrays = [np.array(col) for col in zip(*rows)] if rows else [  # no atom: zero functions
            np.zeros((0, n)), np.zeros(0), np.zeros((0, d)), np.zeros(0),
            np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, np.intp)]
        return cls(n, d, len(jobs[0]), *arrays[:4], tuple(keys), *arrays[4:], tuple(specs),
                   np.array(layout, dtype=np.intp), np.array(first, dtype=np.intp))


def eval_stacked(st: StackedFns, pts: np.ndarray, job: np.ndarray) -> np.ndarray:
    """Every column of job j = job[i] at pts[i]: (npts, m, d), each column
    a contiguous (npts, d) array.

    The runs of the jobs of one layout take one ``run_coords`` and one
    ``core_eval`` call over the layout's specs, with no search, sort or
    scatter; every other job's atoms are culled (``_culled_sums``).  Each
    point adds its terms in atom order, each (scale * value) * coeff.
    """
    out = np.zeros((st.m, len(pts), st.d))
    starts, lengths, run_job = job_runs(job)
    layout = st.layout[run_job]
    for g in dict.fromkeys(layout.tolist()):
        if g < 0:
            continue
        used, terms = st.layouts[g]
        mine = layout == g
        size, first = lengths[mine], st.first[run_job[mine]]
        p = slice(None) if size.sum() == len(pts) else run_points(starts[mine], size)
        u = run_coords(pts, p, st.centers[first], st.radii[first], size)
        vals = cores.core_eval(st.n, *zip(*(st.groups[s] for s in used)), u)
        # each term's scale and coeff per run (runs, terms) and (runs,
        # terms, d): one value when all runs agree, else repeated over the
        # run's points
        atom = first[:, None] + np.arange(len(terms))
        scale, coeffs = st.scale[atom], st.coeffs[atom]
        one = len(first) == 1 or ((scale == scale[0]).all() and (coeffs == coeffs[0]).all())
        for t, (s, c) in enumerate(terms):
            if one:
                value = scale[0, t] * vals[:, s]
                out[c, p] += value[:, None] * coeffs[0, t]
            else:
                value = np.repeat(scale[:, t], size) * vals[:, s]
                out[c, p] += value[:, None] * np.repeat(coeffs[:, t], size, axis=0)
    culled = layout < 0
    if culled.any():
        _culled_sums(st, pts, job, run_points(starts[culled], lengths[culled]), out)
    return out.transpose(1, 0, 2)


def run_coords(pts: np.ndarray, p, centers: np.ndarray, radii: np.ndarray,
               lengths: np.ndarray) -> np.ndarray:
    """Core coordinates (x - center) / radius of the points pts[p], which
    are runs of the given lengths, each with its own center and radius; an
    F-ordered (points, n) array.

    Coordinate by coordinate, with the centers and radii repeated over
    their runs: no row index of (points, n), which is far slower.
    """
    u = np.empty((pts.shape[1], lengths.sum()))
    for a in range(pts.shape[1]):
        np.subtract(pts[:, a][p], np.repeat(centers[:, a], lengths), out=u[a])
    u /= np.repeat(radii, lengths)
    return u.T


def _culled_sums(st: StackedFns, pts: np.ndarray, job: np.ndarray, idx: np.ndarray,
                 out: np.ndarray) -> None:
    """Add into out (m, npts, d) the values at the points idx, whose jobs'
    atoms are culled: each atom only at its candidate points from
    ``_box_runs``.  Points that are not finite are left out: every atom is
    0 there, and no bin holds them.

    The candidates are taken ``quadrature.BLOCK_POINTS`` at a time, in run
    order, each block's runs cut at its edges, so a block's temporaries are
    a small multiple of BLOCK_POINTS entries (per pair n coordinates,
    |u|^2, d terms and a few indices), whatever the batch.
    """
    sub = slice(None) if len(idx) == len(pts) else idx  # the points are every point
    cols = [pts[:, a][sub] for a in range(st.n)]
    finite = np.isfinite(cols[0])
    for x in cols[1:]:
        finite &= np.isfinite(x)
    if not finite.all():
        idx = sub = idx[finite]
        cols = [x[finite] for x in cols]
        if not idx.size:
            return
    counts = np.bincount(job[sub], minlength=len(st.layout))  # points per job
    cull = np.flatnonzero((counts[st.job] > 0) & (st.layout[st.job] < 0))
    perm, run_atom, run_start, run_len = _box_runs(st.centers[cull], st.radii[cull], cols,
                                                   job[sub], st.job[cull])
    perm, run_atom = idx[perm], cull[run_atom]
    ends = np.cumsum(run_len)
    begins = ends - run_len
    total = int(ends[-1]) if ends.size else 0
    block = quadrature.BLOCK_POINTS
    for first in range(0, total, block):
        last = min(first + block, total)
        runs = slice(np.searchsorted(ends, first, side="right"), np.searchsorted(begins, last))
        cut = np.maximum(begins[runs], first)
        size = np.minimum(ends[runs], last) - cut
        p = perm[run_points(run_start[runs] + (cut - begins[runs]), size)]
        atom = run_atom[runs]
        u = run_coords(pts, p, st.centers[atom], st.radii[atom], size)
        # the kept pairs, by index along the points axis: (n, kept)
        keep = np.flatnonzero(cores.sq_norms(u) < 1.0 - cores.BOUNDARY_CLAMP)
        atom, p, u = np.repeat(atom, size)[keep], p[keep], u.T.take(keep, axis=1)
        group = st.group[atom]
        used = np.flatnonzero(np.bincount(group, minlength=len(st.groups)))
        vals = np.empty(len(atom))
        for g in used:
            sel = slice(None) if len(used) == 1 else np.flatnonzero(group == g)
            vals[sel] = cores.core_eval(st.n, *st.groups[g], u[:, sel].T)
        # flat indices add each (column, point, component) in pair order,
        # like rows would; column c's rows start at c * npts
        terms = (st.scale[atom] * vals)[:, None] * st.coeffs.take(atom, axis=0)
        row = p if st.m == 1 else st.col[atom] * len(pts) + p
        np.add.at(out.reshape(-1), (row[:, None] * st.d + np.arange(st.d)).reshape(-1),
                  terms.reshape(-1))


def _box_runs(centers: np.ndarray, radii: np.ndarray, cols: Sequence[np.ndarray],
              point_job: np.ndarray, atom_job: np.ndarray):
    """Each atom's candidate points of its job, as runs of one sorted order
    of the points, given as their n coordinate columns.

    The first n - 1 axes are cut into bins, and the job is one more,
    leading bin.  Points sort by their last coordinate plus stride times
    their linear bin, with the stride wider than the points' span, so the
    keys of one bin keep the order of the last coordinate and never meet
    another bin's.  The points of a bin within [c - r, c + r] on the last
    axis are then one run of keys.
    Returns the order and, atom-major, each non-empty run's atom, start
    and length; the runs of an atom cover its bounding box.
    """
    n = len(cols)
    lo, hi = np.array([c.min() for c in cols]), np.array([c.max() for c in cols])
    width = np.maximum(np.min(radii, initial=np.inf) / 4.0, (hi - lo)[:-1] / (MAX_BINS - 1))
    nbins = np.floor((hi - lo)[:-1] / width) + 1
    stride = 2.0 * (hi[-1] - lo[-1]) + 1.0
    point_bin = point_job.astype(float)
    for j in range(n - 1):
        point_bin = point_bin * nbins[j] + np.floor((cols[j] - lo[j]) / width[j])
    keys = cols[-1] + stride * point_bin
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    # bins first[j] .. first[j] + size[j] - 1 of each atom's box on axis j
    first, sizes = [], []
    for j in range(n - 1):
        f = np.maximum(np.floor((centers[:, j] - radii - lo[j]) / width[j]), 0.0)
        top = np.minimum(np.floor((centers[:, j] + radii - lo[j]) / width[j]), nbins[j] - 1)
        first.append(f)
        sizes.append(np.maximum(top - f + 1, 0.0).astype(np.intp))
    count = np.prod(sizes, axis=0) if sizes else np.ones(len(radii), dtype=np.intp)
    atom = np.repeat(np.arange(len(radii)), count)
    local = np.arange(atom.size) - np.repeat(np.cumsum(count) - count, count)
    run_bin = atom_job[atom].astype(float)
    for j in range(n - 1):
        size = sizes[j][atom]
        rest = np.prod(sizes[j + 1:], axis=0)[atom] if j < n - 2 else 1
        run_bin = run_bin * nbins[j] + first[j][atom] + (local // rest) % size
    c, r = centers[atom, -1], radii[atom]
    base = stride * run_bin
    start = np.searchsorted(keys, np.maximum(c - r, lo[-1]) + base, side="left")
    length = np.searchsorted(keys, np.minimum(c + r, hi[-1]) + base, side="right") - start
    keep = length > 0
    return order, atom[keep], start[keep], length[keep]


def standard_bump(n: int, d: int = 1, direction: int = 0,
                  max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER, label: str = "bump") -> TestFn:
    coeff = tuple(1.0 if j == direction else 0.0 for j in range(d))
    atom = CoreAtom(cores.BUMP, None, (0.0,) * n, 1.0, coeff)
    return TestFn(n, d, (atom,), (0.0,) * n, 1.0, max_deriv_order, label)


def bump_monomial(n: int, xi: Tuple[int, ...], d: int = 1, direction: int = 0,
                  max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER) -> TestFn:
    coeff = tuple(1.0 if j == direction else 0.0 for j in range(d))
    atom = CoreAtom(cores.BUMP_MONOMIAL, tuple(xi), (0.0,) * n, 1.0, coeff)
    return TestFn(n, d, (atom,), (0.0,) * n, 1.0, max_deriv_order, f"bump*x^{tuple(xi)}")


def _sum_of_bumps(n: int, d: int, terms: Sequence[Tuple[np.ndarray, float, float]],
                  direction: int, label: str) -> TestFn:
    atoms = []
    for center, radius, weight in terms:
        coeff = tuple(weight if j == direction else 0.0 for j in range(d))
        atoms.append(CoreAtom(cores.BUMP, None, tuple(np.asarray(center, float)), radius, coeff))
    return TestFn(n, d, tuple(atoms), (0.0,) * n, 1.0, DEFAULT_MAX_DERIV_ORDER, label)


def _plateau_terms(n: int, width: float, signed_axis: Optional[int] = None):
    """Overlapping bump translates approximating a plateau on B(0, 1)."""
    step = width / 2.0
    reach = 1.0 - width
    grid_1d = np.arange(-reach, reach + step / 2, step)
    terms = []
    for center in itertools.product(grid_1d, repeat=n):
        c = np.asarray(center)
        if np.linalg.norm(c) + width > 1.0:
            continue
        w = 1.0
        if signed_axis is not None:
            if abs(c[signed_axis]) < width / 2:
                continue
            w = 1.0 if c[signed_axis] > 0 else -1.0
        terms.append((c, width, w))
    return terms


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Ascending indices of the count largest values, ties to the lowest indices.

    The first count of a stable argsort of -values, sorted, without the
    sort: everything above the count-th largest value, then that value's
    first indices.
    """
    if values.size <= count:
        return np.arange(values.size)
    cut = np.partition(values, values.size - count)[values.size - count]
    above = np.flatnonzero(values > cut)
    ties = np.flatnonzero(values == cut)[:count - above.size]
    return np.sort(np.concatenate([above, ties]))


def seminorm(phi, i: int, K: Optional[Tuple[Sequence[float], float]] = None,
             grid_points: int = 512, rel_tol: float = 1e-4) -> float:
    """sup over K of the operator norm of D^i phi.

    The order-i derivative tensors are evaluated on a grid of grid_points
    intervals per axis over the relevant box (K defaults to the support
    ball), one block of whole grid rows (up to ``quadrature.BLOCK_POINTS``
    points, at least one row) at a time, and their norms are screened
    there with the unrefined angular scan.  The best screened points are
    evaluated again, which gives the same tensors, and get the norm
    refined in angle, and a local grid search around the best of them
    refines in space.  What is certified: the spatial
    search and every angular scan in it stop only once a refinement step
    gains less than rel_tol relatively, and the result is the norm at one
    point, so it is a lower bound of the sup.
    For n > 2 the pointwise norm is the weighted l1 upper bound.
    """
    n = phi.n
    if i > phi.max_deriv_order:
        raise UnsupportedOrderError(f"seminorm order {i} above derivative bound")
    sc = np.asarray(phi.support_center, float)
    sr = phi.support_radius
    if K is None:
        lo, hi = sc - sr, sc + sr
    else:
        kc = np.asarray(K[0], float).reshape(n)
        kr = float(K[1])
        lo = np.maximum(sc - sr, kc - kr)
        hi = np.minimum(sc + sr, kc + kr)
        if np.any(lo >= hi):
            return 0.0
    indices = xi_set(n, i)

    def grid(axes):
        # the points of the ij mesh, axis by axis into one (n, points)
        # array: its transpose is F-ordered, each coordinate contiguous
        g = np.empty((n,) + tuple(len(x) for x in axes))
        for j, x in enumerate(axes):
            g[j] = x.reshape((-1,) + (1,) * (n - 1 - j))
        return g.reshape(n, -1).T

    axes = [np.linspace(lo[j], hi[j], max(grid_points, 8) + 1) for j in range(n)]
    shape = tuple(len(x) for x in axes)
    row = int(np.prod(shape[1:]))  # grid points per index of axis 0
    rows = max(1, quadrature.BLOCK_POINTS // row)
    screen = np.empty(shape[0] * row)
    for s in range(0, shape[0], rows):
        block = grid([axes[0][s:s + rows]] + axes[1:])
        screen[s * row:s * row + len(block)] = opnorms(
            n, i, phi.eval_deriv(indices, block), None, SCREEN_DIRECTIONS)[0]
    top = _top_indices(screen, SCREEN_CANDIDATES)
    top_pts = np.stack([x[k] for x, k in zip(axes, np.unravel_index(top, shape))], axis=1)
    # C order: the rounding of the angular refinement follows the layout
    norms, _ = opnorms(n, i, np.ascontiguousarray(phi.eval_deriv(indices, top_pts)), rel_tol)
    best_idx = int(np.argmax(norms))
    best = float(norms[best_idx])
    # local refinement around the grid argmax
    center = top_pts[best_idx]
    width = float(np.max((hi - lo))) / max(grid_points, 8)
    for _ in range(8):
        lpts = grid([np.linspace(max(lo[j], center[j] - width),
                                 min(hi[j], center[j] + width), 17) for j in range(n)])
        lnorms, _ = opnorms(n, i, phi.eval_deriv(indices, lpts), rel_tol)
        j = int(np.argmax(lnorms))
        new_best = float(lnorms[j])
        improved = new_best > best
        if improved:
            center = lpts[j]
        if new_best <= best * (1 + rel_tol):
            best = max(best, new_best)
            break
        best = new_best
        width /= 8.0
    return best


@dataclass(frozen=True)
class ProbeDictionary:
    """Finite, reproducible surrogate for the unit ball {nu^i(phi) <= 1}.

    All members are supported in B(0, 1) and scaled by 1 / ``seminorm``,
    so the order-i seminorm each member has on seminorm's grids is 1.
    seminorm is a lower bound of the sup, so a member's true seminorm can
    exceed 1, slightly: by up to 3.8e-6 relatively in a finer-grid check of
    seed-0 dictionaries.  Deterministic given (n, d, i, size, seed); the
    member list is prefix-stable in size.
    """

    n: int
    d: int
    i: int
    size: int
    seed: int
    members: Tuple[TestFn, ...]


def _candidate_stream(n: int, d: int, seed: int):
    """Deterministic families first, then seeded random convex combinations."""
    for direction in range(d):
        yield standard_bump(n, d, direction)
    for order in range(1, 4):
        for xi in xi_set(n, order):
            yield bump_monomial(n, xi.entries, d)
    for j in range(n):  # one-sided half-support bumps per axis
        for sign in (+1.0, -1.0):
            c = np.zeros(n)
            c[j] = 0.5 * sign
            b = standard_bump(n, d)
            yield replace(b.rescale(c, 0.5), label=f"half_axis{j}{'+' if sign > 0 else '-'}",
                          support_center=tuple(c), support_radius=0.5)
    for width in (0.2, 0.1, 0.05):
        terms = _plateau_terms(n, width)
        if terms:
            yield _sum_of_bumps(n, d, terms, 0, f"plateau_w{width}")
    for j in range(n):
        for width in (0.2, 0.1):
            terms = _plateau_terms(n, width, signed_axis=j)
            if terms:
                yield _sum_of_bumps(n, d, terms, 0, f"odd_plateau_axis{j}_w{width}")
    rng = np.random.default_rng(seed)
    idx = 0
    while True:
        m = int(rng.integers(3, 9))
        weights = rng.dirichlet(np.ones(m))
        terms = []
        for w in weights:
            radius = float(rng.uniform(0.1, 0.45))
            center = rng.uniform(-1.0, 1.0, size=n)
            nc = np.linalg.norm(center)
            if nc + radius > 1.0:
                center = center / max(nc, 1e-12) * (1.0 - radius) * rng.uniform(0.0, 1.0)
            terms.append((center, radius, float(w)))
        direction = idx % d
        yield _sum_of_bumps(n, d, terms, direction, f"random_{idx}")
        idx += 1


def make_dictionary(n: int, d: int, i: int, size: int, seed: int) -> ProbeDictionary:
    if size < 4:
        raise ValueError("dictionary size must be >= 4")
    members: List[TestFn] = []
    stream = _candidate_stream(n, d, seed)
    while len(members) < size:
        cand = next(stream)
        nu = seminorm(cand, i)
        if nu <= 0:
            continue
        members.append(replace(cand.scaled_by(1.0 / nu), label=cand.label))
    return ProbeDictionary(n, d, i, size, seed, tuple(members))
