"""Compactly supported smooth test functions with exact derivatives.

A TestFn is a finite sum of core atoms (bump or bump-times-monomial),
each translated, dilated, and weighted by a vector coefficient in R^d.
Derivatives up to ``max_deriv_order`` evaluate through the closed-form
prefactor recursion in :mod:`ptdiff.cores`, so integration by parts
downstream is exact.  A derivative view D^o phi is a TestFn as well: the
same atoms with offset o, whose D^xi is the atoms' D^(xi + o).

The atoms are one table, not one object each: each atom's index into the
function's distinct (kind, core multi-index) pairs, and read-only arrays
of centers (A, n), radii (A,) and coefficients (A, d).  ``rescale`` and
``scaled_by`` are array operations on the table, with the float
operations of the per-atom code (a + r * center, r * radius, c * coeff),
and ``StackedFns.of`` joins the tables of its jobs.  ``TestFn.atoms``
builds ``CoreAtom``s from the table on demand, for readers outside the
evaluation.

One evaluator, ``eval_stacked``, evaluates every test function: it takes
many jobs, each M (test function, derivative) columns, and gives the
values of every column of each point's job.  ``TestFn.eval_deriv`` is its
one-job case, and the pairing engine evaluates all its test functions
with it.  ``seminorm`` takes one test function or a sequence, whose
members of one ball and one box share their grid screen: each block of
grid rows is one job whose columns are every member's derivatives, so
each grid point is evaluated once for all of them, and each member keeps
only its best screened points from block to block.  Each value equals
the member's own call bit for bit.

A job whose atoms share one ball (one atom, moment kernels, the
derivatives of one) needs no search.  Its layout is its atoms' core specs
(kind, core multi-index, derivative) and columns, in atom order; the runs
of the jobs of one layout take one ``run_coords`` and one ``core_eval``
call over the layout's distinct specs, and their atoms add their terms
one after another, in atom order.  Only the points of the other jobs are
sorted, by a key made of their job, their bin over the first n - 1
coordinates (bins a quarter of the smallest atom radius wide) and their
last coordinate, so that the points of one job and bin inside an atom's
bounding box along the last axis are one run of the sorted order: the
candidate (atom, point) pairs are these runs, atom-major, slightly more
than the boxes.  They are taken in blocks of ``quadrature.BLOCK_POINTS``
candidates, each block whole runs but for the runs cut at its two edges,
which bounds the temporaries whatever the batch.  A pair is kept when
|u|^2 < 1 - BOUNDARY_CLAMP for the point u in the atom's core
coordinates, the test ``core_eval`` makes, and the kept pairs of a block
go to ``core_eval`` in one call per core group, with their |u|^2.

The culled points go to the search one block of BLOCK_POINTS points at
a time, and the search and its pair blocks work in block arrays
(``_kept``): the points' coordinates, jobs and sort keys, and per block
the pairs' atoms, points, core coordinates, |u|^2, values and terms, each
bounded by one block.  They are kept from block to block and call to
call, so a repeated evaluation faults in no new pages for them.  A call
still allocates the points' order, a block the runs' index as 32-bit
integers and, when some pairs are outside, the kept pairs' index, and
``core_eval`` its row blocks' temporaries.  The layout path tests its
points against the clamp itself, as the pair blocks do, and evaluates
the points inside, up to one block, into one block array too
(``_ball_values``), one entry per (spec, point).

Core coordinates (x - center) / radius are built one coordinate at a time,
each center and radius repeated over its run of points (``run_coords``)
or taken per pair: a row index of a (points, n) array is far slower than
a 1-D index of each coordinate.

The result is bit-identical to summing each function's atoms one by one
over all points: a term is (scale * value) * coeff on both paths, the
radius power is a Python float power per distinct radius, and both paths
add each point's terms in atom order (``np.add.at`` over atom-major
pairs, block after block, for the sorted points).  The pairs the search
skips added exact zeros, which change no sum, and so do the points that
are not finite, where every atom is 0.  So a point's value never depends
on its batch, nor on the block: the blocks, one size for every large
evaluation (``quadrature``'s block contract), bound the temporaries only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cores, quadrature
from .cores import UnsupportedOrderError
from .quadrature import _kept, job_runs, run_points
from .tensor import MultiIndex, opnorms, xi_set, zero_index

DEFAULT_MAX_DERIV_ORDER = 6
# seminorm screens its whole grid with this many directions (n = 2) and
# refines the norm in angle only at the best screened points
SCREEN_DIRECTIONS = 64
SCREEN_CANDIDATES = 64
# most bins per axis of the candidate search
MAX_BINS = 1024
_TINY = np.finfo(float).tiny  # the smallest positive normal float
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class CoreAtom:
    """coeff * core((x - center) / radius); support B(center, radius)."""

    kind: str
    core_xi: Optional[Tuple[int, ...]]
    center: Tuple[float, ...]
    radius: float
    coeff: Tuple[float, ...]


class ScaleError(ValueError):
    """A rescaling outside the float range: a radius not a finite positive normal
    float, an overflowing derivative scale radius^-|xi|, or a ball rounded to a point."""


_TABLE = ("kind", "centers", "radii", "coeffs")  # the fields that are arrays
_BALL = frozenset(("centers", "radii", "support_center", "support_radius"))  # what ball reads


@dataclass(frozen=True, eq=False)
class TestFn:
    """The sum of its atoms, or with an offset the derivative view
    D^offset of that sum: D^xi of a view is the sum's D^(xi + offset), and
    its ``max_deriv_order`` is what the sum has left.  ``rescale`` and
    ``scaled_by`` act on the atoms; a view stays D^offset of the result.

    The atoms are one table of A rows: atom a is coeffs[a] times the core
    kinds[kind[a]] = (kind, core multi-index) on the ball B(centers[a],
    radii[a]).  The arrays are read-only, and ``TestFn.of`` builds the table
    from ``CoreAtom``s.  Two test functions are equal when every field is.
    """

    __test__ = False  # a test function, not a test class for pytest to collect

    n: int
    d: int
    kinds: Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]  # distinct (kind, core_xi)
    kind: np.ndarray  # (A,) index into kinds
    centers: np.ndarray  # (A, n)
    radii: np.ndarray  # (A,)
    coeffs: np.ndarray  # (A, d)
    support_center: Tuple[float, ...]
    support_radius: float
    max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER
    label: str = ""
    offset: Optional[MultiIndex] = None  # the derivative of the atoms' sum; None: none

    def __post_init__(self):
        for name in _TABLE:
            table = getattr(self, name)
            if table.flags.writeable:
                table = table.view()
                table.flags.writeable = False
                object.__setattr__(self, name, table)

    @classmethod
    def of(cls, n: int, d: int, atoms: Sequence[CoreAtom], support_center, support_radius: float,
           max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER, label: str = "") -> "TestFn":
        """The sum of the atoms."""
        specs = [(a.kind, a.core_xi) for a in atoms]
        kinds = tuple(dict.fromkeys(specs))
        return cls(n, d, kinds, np.array([kinds.index(s) for s in specs], dtype=np.intp),
                   np.array([a.center for a in atoms], dtype=float).reshape(-1, n),
                   np.array([a.radius for a in atoms], dtype=float),
                   np.array([a.coeff for a in atoms], dtype=float).reshape(-1, d),
                   tuple(support_center), support_radius, max_deriv_order, label)

    @property
    def atoms(self) -> Tuple[CoreAtom, ...]:
        """The table's rows as ``CoreAtom``s, built on each call."""
        return tuple(CoreAtom(*self.kinds[k], tuple(c), r, tuple(w)) for k, c, r, w in zip(
            self.kind.tolist(), self.centers.tolist(), self.radii.tolist(), self.coeffs.tolist()))

    def __eq__(self, other):
        if not isinstance(other, TestFn):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   if f.name in _TABLE else getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(TestFn))

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
        c, r = self.centers, self.radii
        if not len(r) or not ((c == c[0]).all() and (r == r[0]).all()):
            return None
        return tuple(c[0].tolist()), float(r[0]), self.support_center, self.support_radius

    def __call__(self, x) -> np.ndarray:
        return self.eval_deriv(zero_index(self.n), x)

    def _with(self, **changes) -> "TestFn":
        """This function with some fields changed, copied without a pass
        through __init__: the new arrays, the caller's own, are made
        read-only here, and the cached ball is kept unless what it reads
        changed."""
        new = object.__new__(TestFn)
        new.__dict__.update(self.__dict__)
        new.__dict__.update(changes)
        for name in _TABLE:
            if name in changes:
                changes[name].flags.writeable = False
        if not _BALL.isdisjoint(changes):
            new.__dict__.pop("ball", None)
        return new

    def rescale(self, a, r: float) -> "TestFn":
        """x -> phi((x - a) / r); derivatives pick up the exact r^{-|xi|}.

        r and every rescaled atom radius must be finite positive normal
        floats: below that range the radius powers lose their precision.
        Far from 0, c - r and c + r can round to one float: the rescaled
        support box and atom balls must keep a nonzero width on every axis.
        """
        radii = r * self.radii
        least = np.minimum.reduce(radii, initial=1.0)
        if not (_TINY <= r < np.inf and _TINY <= least
                and np.maximum.reduce(radii, initial=1.0) < np.inf):
            raise ScaleError(f"rescaling by {float(r)!r} takes the atom radii "
                             f"{float(self.radii.min(initial=1.0))!r} ... "
                             f"{float(self.radii.max(initial=1.0))!r} out of the normal float "
                             f"range")
        a = np.asarray(a, dtype=float).reshape(self.n)
        centers = a + r * self.centers
        support_center = a + r * np.asarray(self.support_center)
        support_radius = r * self.support_radius
        # c - w < c + w once w exceeds eps |c|, which bounds c's last-place
        # spacing; only below that are the boxes compared exactly
        reach = max(np.abs(centers).max(initial=0.0), *map(abs, support_center.tolist()))
        if min(least, support_radius) <= _EPS * reach and not (
                (support_center - support_radius < support_center + support_radius).all()
                and (centers - radii[:, None] < centers + radii[:, None]).all()):
            raise ScaleError(f"rescaling about {a.tolist()!r} by {float(r)!r} rounds a "
                             f"support box or atom ball to zero width")
        return self._with(centers=centers, radii=radii, support_center=tuple(support_center),
                          support_radius=support_radius)

    def scaled_by(self, c: float) -> "TestFn":
        return self._with(coeffs=c * self.coeffs)

    def derivative_view(self, xi: MultiIndex) -> "TestFn":
        """D^xi of this function, as a view of the same atoms."""
        return self._with(offset=xi if self.offset is None else self.offset + xi,
                          max_deriv_order=self.max_deriv_order - xi.order)


def _scales(radii: np.ndarray, order: int) -> np.ndarray:
    """radius ** -order of each radius: a Python float power per distinct
    radius, as numpy's fast paths of a power may round differently."""
    if (radii == radii[0]).all():  # one radius
        distinct, which = [float(radii[0])], np.zeros(len(radii), np.intp)
    else:
        distinct, which = np.unique(radii, return_inverse=True)
        distinct = distinct.tolist()
    try:
        powers = np.array([r ** -order for r in distinct])
    except OverflowError:  # first at the smallest radius
        raise ScaleError(f"the derivative scale radius^-{order} overflows for the radius "
                         f"{distinct[0]!r}") from None
    return powers[which]


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass(frozen=True)
class StackedFns:
    """The atoms of many jobs as one table, job-major and column-major
    within a job: column c of job j is D^xi phi for its c-th (phi, xi), and
    every job has m columns.

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
        keys, layouts = {}, {}  # keys: distinct (kind, core_xi, xi) -> group
        fns, orders, group, layout = [], [], [], []  # per column, but layout: per job
        for cols in jobs:
            for fn, xi in cols:
                order = xi.order
                if order > fn.max_deriv_order:
                    raise UnsupportedOrderError(f"derivative order {order} exceeds "
                                                f"configured bound {fn.max_deriv_order}")
                if fn.offset is not None:
                    xi = xi + fn.offset
                    order = xi.order
                fns.append(fn)
                orders.append(order)
                group.append(np.array([keys.setdefault((kind, core, xi), len(keys))
                                       for kind, core in fn.kinds], dtype=np.intp)[fn.kind])
            # the balls of the columns' atoms: a layout when there is one
            balls = {fn.ball[:2] if fn.ball else None for fn, _ in cols if len(fn.radii)}
            if len(balls) != 1 or None in balls:
                layout.append(-1)
                continue
            key = tuple((g, c) for c, mine in enumerate(group[-len(cols):]) for g in mine.tolist())
            layout.append(layouts.setdefault(key, len(layouts)))
        specs = []
        for key in layouts:
            used = list(dict.fromkeys(g for g, _ in key))
            specs.append((tuple(used), tuple((used.index(g), c) for g, c in key)))
        count = np.array([len(fn.radii) for fn in fns], dtype=np.intp)  # atoms per column
        m = len(jobs[0])
        start = (count.cumsum() - count).tolist()
        radii = _joined([fn.radii for fn in fns])
        scale = np.ones(len(radii))  # radius ** -|xi|, 1 for |xi| = 0
        for order in set(orders) - {0}:  # the atoms of the columns of each order at once
            mine = np.repeat(np.array(orders) == order, count)
            if mine.any():
                scale[mine] = _scales(radii[mine], order)
        column = np.arange(len(fns)).repeat(count)
        return cls(fns[0].n, fns[0].d, m, _joined([fn.centers for fn in fns]), radii,
                   _joined([fn.coeffs for fn in fns]),
                   scale, tuple(keys), _joined(group), column // m, column % m,
                   tuple(specs), np.array(layout, dtype=np.intp), np.array(start[::m]))


def eval_stacked(st: StackedFns, pts: np.ndarray, job: np.ndarray) -> np.ndarray:
    """Every column of job j = job[i] at pts[i]: (npts, m, d), each column
    a contiguous (npts, d) array.

    The runs of the jobs of one layout take one ``run_coords`` and one
    ``core_eval`` call over the layout's specs (``_ball_values``), with no
    search or sort; every other job's atoms are culled (``_culled_sums``).
    Each point adds its terms in atom order, each (scale * value) * coeff.
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
        vals = _ball_values(st.n, [st.groups[s] for s in used], u)
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
    if culled.any():  # one block of points at a time (``_culled_sums``)
        block = quadrature.BLOCK_POINTS
        if culled.all():
            for b in range(0, len(pts), block):
                _culled_sums(st, pts, job, slice(b, b + block), out)
        else:
            idx = run_points(starts[culled], lengths[culled])
            for b in range(0, len(idx), block):
                _culled_sums(st, pts, job, idx[b:b + block], out)
    return out.transpose(1, 0, 2)


def _ball_values(n: int, specs, u: np.ndarray) -> np.ndarray:
    """``core_eval`` of the specs at the core coordinates u (points, n):
    (points, specs).

    The points are tested against the clamp here, as ``core_eval`` tests
    them, and only those inside go to ``core_eval``, with their |u|^2; the
    others are 0.  For up to one block of points (``quadrature.BLOCK_POINTS``)
    the values of the points inside, the largest temporary of a block, go
    to a block array (``_kept``), so that a repeated 2-D evaluation faults
    in few new pages; keeping the per-point arrays as well made the passes
    slower.  Every value is the one ``core_eval`` gives.
    """
    kind, core, deriv = zip(*specs)
    npts = len(u)
    if npts > quadrature.BLOCK_POINTS:
        return cores.core_eval(n, kind, core, deriv, u)
    s = cores.sq_norms(u)
    inside = s < 1.0 - cores.BOUNDARY_CLAMP
    if inside.all():
        vals = np.empty((len(specs), npts))
        cores.core_eval(n, kind, core, deriv, u, out=vals.T, sq=s)
        return vals.T
    keep = np.flatnonzero(inside)
    sub = _kept("ball_inside_vals", (len(specs), len(keep)))
    cores.core_eval(n, kind, core, deriv, u.T.take(keep, axis=1).T, out=sub.T, sq=s[keep])
    vals = np.zeros((len(specs), npts))
    for row, v in zip(vals, sub):  # a 1-D index per row: far faster than vals[:, keep]
        row[keep] = v
    return vals.T


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


def _culled_sums(st: StackedFns, pts: np.ndarray, job: np.ndarray, idx, out: np.ndarray) -> None:
    """Add into out (m, npts, d) the values at the points idx, a slice or an
    index array of at most ``quadrature.BLOCK_POINTS`` points, whose jobs'
    atoms are culled: each atom only at its candidate points from
    ``_box_runs``.  Points that are not finite are left out: every atom is
    0 there, and no bin holds them.

    The candidates are taken BLOCK_POINTS at a time, in run order, each
    block's runs cut at its edges.  The points' arrays (coordinates, jobs,
    sort keys) and a block's (a few entries per pair: n coordinates, |u|^2,
    d terms and some indices) are block arrays (``_kept``): every call
    shares one set, bounded by BLOCK_POINTS.  The core evaluation of the
    kept pairs reuses their |u|^2.
    """
    if isinstance(idx, slice):  # views of a run of points
        cols, point_job = [pts[idx, a] for a in range(st.n)], job[idx]
    else:
        cols = [_take(pts[:, a], idx, f"col{a}") for a in range(st.n)]
        point_job = _take(job, idx, "job")
    finite = np.isfinite(cols[0])
    for x in cols[1:]:
        finite &= np.isfinite(x)
    if not finite.all():
        at = np.flatnonzero(finite)
        idx = at + idx.start if isinstance(idx, slice) else idx[at]
        cols, point_job = [x[at] for x in cols], point_job[at]
        if not idx.size:
            return
    counts = np.bincount(point_job, minlength=len(st.layout))  # points per job
    cull = np.flatnonzero((counts[st.job] > 0) & (st.layout[st.job] < 0))
    perm, run_atom, run_start, run_len = _box_runs(st.centers[cull], st.radii[cull], cols,
                                                   point_job, st.job[cull])
    if isinstance(idx, slice):
        perm += idx.start
    else:
        perm = _take(idx, perm, "perm")
    run_atom = cull[run_atom]
    ends = np.cumsum(run_len)
    begins = ends - run_len
    total = int(ends[-1]) if ends.size else 0
    block = quadrature.BLOCK_POINTS
    n, d = st.n, st.d
    for first in range(0, total, block):
        last = min(first + block, total)
        runs = slice(np.searchsorted(ends, first, side="right"), np.searchsorted(begins, last))
        cut = np.maximum(begins[runs], first)
        size = np.minimum(ends[runs], last) - cut
        # each candidate's run, atom and point; the runs repeated as 32-bit
        # integers, half a block array in size: no block-sized allocation
        run = _kept("run", last - first, np.intp)
        np.copyto(run, np.arange(len(size), dtype=np.int32).repeat(size))
        atom = _take(run_atom[runs], run, "atom")
        p = _take(run_start[runs] + (cut - begins[runs]) - (np.cumsum(size) - size), run, "at")
        p += np.arange(len(run), dtype=np.int32)
        p = _take(perm, p, "point")
        # core coordinates (x - center) / radius, coordinate by coordinate,
        # and their |u|^2 in column order, as ``cores.sq_norms``; "x" holds
        # a point coordinate, then a square, and "atom_value" the atoms'
        # center coordinate, radius or scale, one after another
        u, s = _kept("u", (n, len(p))), _kept("sq", len(p))
        for a in range(n):
            np.subtract(_take(pts[:, a], p, "x"), _take(st.centers[:, a], atom, "atom_value"),
                        out=u[a])
        np.divide(u, _take(st.radii, atom, "atom_value"), out=u)
        np.multiply(u[0], u[0], out=s)
        for a in range(1, n):
            s += np.multiply(u[a], u[a], out=_kept("x", len(p)))
        # the kept pairs, |u|^2 < 1 - BOUNDARY_CLAMP as ``core_eval`` tests,
        # by index along the points axis
        inside = np.less(s, 1.0 - cores.BOUNDARY_CLAMP, out=_kept("inside", len(s), bool))
        if np.count_nonzero(inside) < len(p):
            keep = np.flatnonzero(inside)
            u = u.take(keep, axis=1, out=_kept("u_kept", (n, len(keep))), mode="clip")
            s, p = _take(s, keep, "sq_kept"), _take(p, keep, "point_kept")
            atom = _take(atom, keep, "atom_kept")
        vals = _kept("vals", len(p))
        group = _take(st.group, atom, "group") if len(st.groups) > 1 else None
        used = [0] if group is None else np.flatnonzero(np.bincount(group,
                                                                    minlength=len(st.groups)))
        for g in used:
            if len(used) == 1:
                cores.core_eval(n, *st.groups[g], u.T, out=vals, sq=s)
            else:
                sel = np.flatnonzero(group == g)
                vals[sel] = cores.core_eval(n, *st.groups[g], u[:, sel].T,
                                            out=np.empty(len(sel)), sq=s[sel])
        # each term (scale * value) * coeff; flat indices add each (column,
        # point, component) in pair order, like rows would; column c's rows
        # start at c * npts
        scale = np.multiply(_take(st.scale, atom, "atom_value"), vals, out=vals)
        terms = st.coeffs.take(atom, axis=0, out=_kept("terms", (len(p), d)), mode="clip")
        np.multiply(scale[:, None], terms, out=terms)
        row = p
        if st.m > 1:
            row = _take(st.col, atom, "row")
            row *= len(pts)
            row += p
        if d > 1:
            flat = np.multiply(row[:, None], d, out=_kept("flat", (len(row), d), np.intp))
            row = np.add(flat, np.arange(d), out=flat)
        np.add.at(out.reshape(-1), row.reshape(-1), terms.reshape(-1))


def _take(a: np.ndarray, index: np.ndarray, name: str) -> np.ndarray:
    """a[index] into the block array of that name, for indices in range."""
    return np.take(a, index, out=_kept(name, len(index), a.dtype), mode="clip")


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
    keys = _kept("keys", len(point_job))
    keys[:] = point_job  # the leading bin
    for j in range(n - 1):
        axis_bin = np.subtract(cols[j], lo[j], out=_kept("bin", len(keys)))
        keys *= nbins[j]
        keys += np.floor(np.divide(axis_bin, width[j], out=axis_bin), out=axis_bin)
    keys *= stride
    keys += cols[-1]
    # any order of equal keys will do: a point's terms come atom after atom
    order = np.argsort(keys)
    keys = _take(keys, order, "sorted_keys")

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
    return _one_atom(n, d, direction, (cores.BUMP, None), max_deriv_order, label)


def bump_monomial(n: int, xi: Tuple[int, ...], d: int = 1, direction: int = 0,
                  max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER) -> TestFn:
    return _one_atom(n, d, direction, (cores.BUMP_MONOMIAL, tuple(xi)), max_deriv_order,
                     f"bump*x^{tuple(xi)}")


def _one_atom(n: int, d: int, direction: int, kind, max_deriv_order: int, label: str) -> TestFn:
    """The core kind = (kind, core_xi) on B(0, 1), valued in e_direction."""
    coeffs = np.zeros((1, d))
    coeffs[0, direction] = 1.0
    return TestFn(n, d, (kind,), np.zeros(1, np.intp), np.zeros((1, n)), np.ones(1), coeffs,
                  (0.0,) * n, 1.0, max_deriv_order, label)


def _sum_of_bumps(n: int, d: int, terms: Sequence[Tuple[np.ndarray, float, float]],
                  direction: int, label: str) -> TestFn:
    coeffs = np.zeros((len(terms), d))
    coeffs[:, direction] = [weight for _, _, weight in terms]
    return TestFn(n, d, ((cores.BUMP, None),), np.zeros(len(terms), np.intp),
                  np.array([center for center, _, _ in terms], dtype=float).reshape(-1, n),
                  np.array([radius for _, radius, _ in terms], dtype=float), coeffs,
                  (0.0,) * n, 1.0, DEFAULT_MAX_DERIV_ORDER, label)


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


def _mesh(axes) -> np.ndarray:
    """The points of the ij mesh of the axes, axis by axis into one (n,
    points) array: its transpose, returned, is F-ordered, each coordinate
    contiguous."""
    n = len(axes)
    g = np.empty((n,) + tuple(len(x) for x in axes))
    for j, x in enumerate(axes):
        g[j] = x.reshape((-1,) + (1,) * (n - 1 - j))
    return g.reshape(n, -1).T


def _screen(fns: Sequence[TestFn], i: int, axes) -> List[np.ndarray]:
    """Each function's ``SCREEN_CANDIDATES`` best grid points, ascending in
    grid order: the points of the largest unrefined norms, ties to the
    lower grid index.

    The functions share one ball, so each block of whole grid rows (up to
    ``quadrature.BLOCK_POINTS`` points, at least one row) is one job whose
    columns are every function's order-i multi-indices: the layout path
    evaluates each point once for all of them.  Only the best points so
    far are kept from block to block, no screen of the whole grid: the
    best of a block and of the points kept before it are the best of the
    grid up to that block, as the order is total.
    """
    shape = tuple(len(x) for x in axes)
    row = math.prod(shape[1:])  # grid points per index of axis 0
    rows = max(1, quadrature.BLOCK_POINTS // row)
    n = len(axes)
    indices = xi_set(n, i)
    m = len(indices)
    st = StackedFns.of([[(fn, xi) for fn in fns for xi in indices]])
    kept = [(np.empty(0), np.empty(0, np.intp))] * len(fns)  # (values, grid indices)
    for s in range(0, shape[0], rows):
        block = _mesh([axes[0][s:s + rows]] + axes[1:])
        vals = eval_stacked(st, block, np.zeros(len(block), np.int8))
        for k, (best, at) in enumerate(kept):
            screen = opnorms(n, i, vals[:, k * m:(k + 1) * m], None, SCREEN_DIRECTIONS)[0]
            best = np.concatenate([best, screen])
            at = np.concatenate([at, s * row + np.arange(len(screen))])
            top = _top_indices(best, SCREEN_CANDIDATES)
            kept[k] = best[top], at[top]
    return [np.stack([x[k] for x, k in zip(axes, np.unravel_index(at, shape))], axis=1)
            for _, at in kept]


def seminorm(phi, i: int, K: Optional[Tuple[Sequence[float], float]] = None,
             grid_points: int = 512, rel_tol: float = 1e-4):
    """sup over K of the operator norm of D^i phi.

    The order-i derivative tensors are evaluated on a grid of grid_points
    intervals per axis over the relevant box (K defaults to the support
    ball), one block of whole grid rows at a time, and their norms are
    screened there with the unrefined angular scan (``_screen``).  The
    best screened points are evaluated again, which gives the same
    tensors, and get the norm refined in angle, and a local grid search
    around the best of them refines in space.  What is certified: the
    spatial search and every angular scan in it stop only once a
    refinement step gains less than rel_tol relatively, and the result is
    the norm at one point, so it is a lower bound of the sup.
    For n > 2 the pointwise norm is the weighted l1 upper bound.

    With phi a sequence of test functions of one n and d, the list of
    their seminorms, each bit-identical to its own call: the functions
    with one ball and one box share their grid screen, and each refines
    alone.
    """
    fns = [phi] if isinstance(phi, TestFn) else list(phi)
    if len({(fn.n, fn.d) for fn in fns}) > 1:
        raise ValueError("the test functions of one seminorm call must have one n and d")
    out = [0.0] * len(fns)
    screens = {}  # (ball, box) or a function's own position -> (lo, hi, positions)
    for k, fn in enumerate(fns):
        if i > fn.max_deriv_order:
            raise UnsupportedOrderError(f"seminorm order {i} above derivative bound")
        n = fn.n
        sc = np.asarray(fn.support_center, float)
        sr = fn.support_radius
        if K is None:
            lo, hi = sc - sr, sc + sr
        else:
            kc = np.asarray(K[0], float).reshape(n)
            kr = float(K[1])
            lo = np.maximum(sc - sr, kc - kr)
            hi = np.minimum(sc + sr, kc + kr)
            if np.any(lo >= hi):
                continue
        key = k if fn.ball is None else (fn.ball[:2], lo.tobytes(), hi.tobytes())
        screens.setdefault(key, (lo, hi, []))[2].append(k)
    for lo, hi, mine in screens.values():
        axes = [np.linspace(a, b, max(grid_points, 8) + 1) for a, b in zip(lo, hi)]
        for k, top_pts in zip(mine, _screen([fns[k] for k in mine], i, axes)):
            out[k] = _refine(fns[k], i, top_pts, lo, hi, grid_points, rel_tol)
    return out[0] if isinstance(phi, TestFn) else out


def _refine(phi: TestFn, i: int, top_pts: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            grid_points: int, rel_tol: float) -> float:
    """The norm refined in angle at the screened points, then in space
    around the best of them: ``seminorm``'s value for phi."""
    n = phi.n
    indices = xi_set(n, i)
    # C order: the rounding of the angular refinement follows the layout
    norms, _ = opnorms(n, i, np.ascontiguousarray(phi.eval_deriv(indices, top_pts)), rel_tol)
    best_idx = int(np.argmax(norms))
    best = float(norms[best_idx])
    # local refinement around the grid argmax
    center = top_pts[best_idx]
    width = float(np.max((hi - lo))) / max(grid_points, 8)
    for _ in range(8):
        lpts = _mesh([np.linspace(max(lo[j], center[j] - width),
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
            yield b.rescale(c, 0.5)._with(label=f"half_axis{j}{'+' if sign > 0 else '-'}",
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
        # the candidates still needed, in one seminorm call; those of norm
        # 0 are dropped and replaced by the next ones
        cands = list(itertools.islice(stream, size - len(members)))
        for cand, nu in zip(cands, seminorm(cands, i)):
            if nu > 0:
                members.append(cand.scaled_by(1.0 / nu))
    return ProbeDictionary(n, d, i, size, seed, tuple(members))
