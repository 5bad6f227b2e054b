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
one-job case; the pairing engine and ``seminorm`` evaluate all their test
functions with it.

A job whose atoms share one ball (one atom, moment kernels, the
derivatives of one) needs no search.  Its layout is its atoms' core specs
(kind, core multi-index, derivative) and columns, in atom order; the runs
of the jobs of one layout take one ``run_coords`` and one ``core_eval``
call over the layout's distinct specs (``_ball_values``).  The other
jobs' atoms are culled: a point's candidates are the atoms of its bin in
the stack's atom-bin index (``StackedFns.bins``), built once per stack
(``_culled_sums``).  Both paths make ``core_eval``'s test |u|^2 < 1 -
BOUNDARY_CLAMP themselves, and work in block arrays (``_kept``), kept
from call to call, so that a repeated evaluation reuses their pages.
What a block still allocates is named in ``_culled_sums`` and
``_ball_values``.

The result is bit-identical to summing each function's atoms one by one
over all points: a term is (scale * value) * coeff on both paths, the
radius power is a Python float power per distinct radius, and both paths
add each point's terms in atom order (``np.add.at`` over point-major
pairs, each point's candidates ascending, block after block).  The atoms
its bin leaves out and the pairs outside the clamp added exact zeros,
which change no sum, and so do the points that are not finite, where
every atom is 0.  So a point's value never depends on its batch, nor on
the block: the blocks, one size for every large evaluation
(``quadrature``'s block contract), bound the temporaries only.
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
# the atom-bin grid of a culled job: bins this fraction of its smallest
# atom radius wide, and at most this many bins
BIN_WIDTH = 1.0 / 8.0
MAX_BINS = 4096
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

    def eval_deriv(self, xi, x, stack: Optional["StackedFns"] = None) -> np.ndarray:
        """D^xi phi at one point (n,), values (d,), or at points (npts, n),
        values (npts, d).  With xi a sequence of M multi-indices, every
        D^xi at once: (M, d) or (npts, M, d), each column bit-identical to
        its xi alone.  A caller of one xi at many point sets may pass its
        stack, ``StackedFns.of([[(self, e) for e in xi]])``, built once.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,) and (x.ndim != 2 or x.shape[1] != self.n):
            raise ValueError(f"points must have shape ({self.n},) or (npts, {self.n}), "
                             f"not {x.shape}")
        pts = x.reshape(-1, self.n)
        one = isinstance(xi, MultiIndex)
        # one job: a byte per point for its index, not eight
        if stack is None:
            stack = StackedFns.of([[(self, e) for e in ([xi] if one else xi)]])
        out = eval_stacked(stack, pts, np.zeros(len(pts), np.int8))
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

    @cached_property
    def bins(self):
        """The atom-bin index of the culled jobs, built on first use: each
        job's grid (origin (n, J), bin width (J,), bins per axis (n, J) and
        base (J,)), each bin's atoms in ascending order, bin b holding
        atoms[start[b]:start[b + 1]], and the atoms' core groups.

        A culled job's bins, BIN_WIDTH times its smallest radius wide (at
        most MAX_BINS), cover its atoms' boxes, with an empty margin around.
        A point's bin is base plus, row-major, floor((x - origin) / width)
        clipped to the margins -1 and nbins, so a point off the boxes, or
        not finite, is in a margin; an atom is in the bins from those of its
        box's ends.  Other jobs have margins only.
        """
        J, n = len(self.layout), self.n
        mine = np.flatnonzero(self.layout[self.job] < 0)  # the culled atoms, job-major
        job = self.job[mine]
        heads, _, jobs = job_runs(job)
        centers, radii = self.centers[mine].T, self.radii[mine]
        low, high = centers - radii, centers + radii
        origin, width, nbins = np.zeros((n, J)), np.ones(J), np.zeros((n, J))
        origin[:, jobs] = np.minimum.reduceat(low, heads, axis=1)
        span = np.maximum.reduceat(high, heads, axis=1) - origin[:, jobs]
        per_axis = max(2, int(MAX_BINS ** (1.0 / n)))  # bins of an axis
        width[jobs] = np.maximum(np.minimum.reduceat(radii, heads) * BIN_WIDTH,
                                 span.max(axis=0) / (per_axis - 1))
        nbins[:, jobs] = np.floor(span / width[jobs]) + 1
        # each axis' stride, row-major over bins and margins, and the bin of floors 0
        stride = np.ones((n, J))
        for a in range(n - 2, -1, -1):
            stride[a] = stride[a + 1] * (nbins[a + 1] + 2)
        count = stride[0] * (nbins[0] + 2)
        base = np.cumsum(count) - count + stride.sum(axis=0)
        # each atom's box of bins, and its entries: atom-major, row-major in the box
        o, w = origin[:, job], width[job]
        first = np.floor((low - o) / w)
        size = (np.floor((high - o) / w) - first + 1).astype(np.intp)
        entries = size.prod(axis=0)
        b = np.repeat(base[job] + (first * stride[:, job]).sum(axis=0), entries)
        rest = np.arange(len(b)) - np.repeat(np.cumsum(entries) - entries, entries)
        for a in range(n - 1, 0, -1):
            k = np.repeat(size[a], entries)
            b += (rest % k) * np.repeat(stride[a, job], entries)
            rest //= k
        b = (b + rest * np.repeat(stride[0, job], entries)).astype(np.intp)
        start = np.zeros(int(count.sum()) + 1, np.intp)
        np.cumsum(np.bincount(b, minlength=len(start) - 1), out=start[1:])
        atoms = np.repeat(mine, entries)[np.argsort(b, kind="stable")]
        groups = np.bincount(self.group[mine], minlength=len(self.groups))
        return origin, width, nbins, base, start, atoms, np.flatnonzero(groups).tolist()


def eval_stacked(st: StackedFns, pts: np.ndarray, job: np.ndarray) -> np.ndarray:
    """Every column of job j = job[i] at pts[i]: (npts, m, d), each column
    a contiguous (npts, d) array.  Each point adds its terms in atom order,
    each (scale * value) * coeff: the layout path's (``_ball_values``), or
    those of the culled atoms of its bin (``_culled_sums``).
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
    if culled.any():  # one block of points at a time, as slices when all are culled
        idx = None if culled.all() else run_points(starts[culled], lengths[culled])
        block = quadrature.BLOCK_POINTS
        for b in range(0, len(pts) if idx is None else len(idx), block):
            p = slice(b, b + block) if idx is None else idx[b:b + block]
            _culled_sums(st, pts, job, p, out)
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
    F-ordered (points, n) array, built coordinate by coordinate: a row
    index of (points, n) is far slower.
    """
    u = np.empty((pts.shape[1], lengths.sum()))
    for a in range(pts.shape[1]):
        np.subtract(pts[:, a][p], np.repeat(centers[:, a], lengths), out=u[a])
    u /= np.repeat(radii, lengths)
    return u.T


def _culled_sums(st: StackedFns, pts: np.ndarray, job: np.ndarray, idx, out: np.ndarray) -> None:
    """Add into out (m, npts, d) the values at the points idx, a slice or an
    index array of at most ``quadrature.BLOCK_POINTS`` points, whose jobs'
    atoms are culled: each point only with the atoms of its bin
    (``StackedFns.bins``), in ascending order.  The (point, candidate)
    pairs, point-major, go BLOCK_POINTS at a time, a point's cut at a
    block's edge.  The points' arrays and the pairs' point and atom
    indices, coordinates, |u|^2 and values are block arrays (``_kept``),
    which every call shares, and so is a spare pair index, through which
    the pairs inside the clamp move down and in which a pair's group or
    flat index of out is built.  A block allocates no block array but the
    indices of its pairs inside, and each core group's pairs, coordinates
    and values when the stack has several groups; the rest (32-bit places
    and offsets, the clamp test's mask) is at most half a block array.
    """
    origin, width, nbins, base, start, atoms, groups = st.bins
    n, d, view = st.n, st.d, isinstance(idx, slice)
    # the points' jobs as intp: a take casts a narrower index (one byte per
    # point from ``TestFn.eval_deriv``) to a new array
    npts = len(job[idx]) if view else len(idx)
    point_job = _kept("row", npts, np.intp)
    if view:
        np.copyto(point_job, job[idx])
    else:
        _take(job.astype(np.intp, copy=False), idx, point_job)
    u, s, lin = _kept("u", (n, npts)), _kept("sq", npts), _kept("vals", npts)
    # each point's bin: base plus, row-major, its floors clipped to the margins
    for a in range(n):
        x = pts[idx, a] if view else _take(pts[:, a], idx, u[a])
        t = np.subtract(x, _take(origin[a], point_job, s), out=lin if a == 0 else u[a])
        np.floor(np.divide(t, _take(width, point_job, s), out=t), out=t)
        size = _take(nbins[a], point_job, s)
        np.fmin(np.fmax(t, -1.0, out=t), size, out=t)  # fmax takes NaN to -1
        if a:
            size += 2.0
            lin *= size
            lin += t
    lin += _take(base, point_job, s)
    # pair q is atom q + shift of the point whose pairs end after q
    at = _kept("atom", npts, np.intp)
    np.copyto(at, lin, casting="unsafe")
    begin = _take(start, at, _kept("row", npts, np.intp))
    at += 1
    count = np.subtract(_take(start, at, at), begin, out=at)
    ends = np.cumsum(count, out=_kept("ends", npts, np.int32))
    shift = np.subtract(np.add(begin, count, out=begin), ends, out=begin)
    total = int(ends[-1])
    for first in range(0, total, quadrature.BLOCK_POINTS):
        last = min(first + quadrature.BLOCK_POINTS, total)
        mine = slice(np.searchsorted(ends, first, side="right"),
                     np.searchsorted(ends, last - 1, side="right") + 1)
        size = np.minimum(ends[mine], last)  # each point's pairs in the block
        size[1:] -= size[:-1]
        size[0] -= first
        # each pair's point and atom, taken by its point's place in the block:
        # the places repeated as 32-bit integers, half a block array in size,
        # and the points' "atom" array free once shift is known
        p = _kept("point", last - first, np.intp)
        np.copyto(p, np.arange(len(size), dtype=np.int32).repeat(size))
        atom = _take(shift[mine], p, _kept("atom", len(p), np.intp))
        atom += np.arange(first, last, dtype=np.int32)
        _take(atoms, atom, atom)  # in place: each index is read before its entry is written
        if view:
            p += idx.start + mine.start
        else:
            _take(idx[mine], p, p)
        # core coordinates (x - center) / radius and |u|^2, as ``cores.sq_norms``
        u, s, vals = _kept("u", (n, len(p))), _kept("sq", len(p)), _kept("vals", len(p))
        for a in range(n):
            np.subtract(_take(pts[:, a], p, u[a]), _take(st.centers[:, a], atom, vals), out=u[a])
        np.divide(u, _take(st.radii, atom, vals), out=u)
        np.multiply(u[0], u[0], out=s)
        for a in range(1, n):
            s += np.multiply(u[a], u[a], out=vals)
        # the pairs inside, |u|^2 < 1 - BOUNDARY_CLAMP as ``core_eval`` tests;
        # u's rows move down their block array, each once taken
        keep = np.flatnonzero(np.less(s, 1.0 - cores.BOUNDARY_CLAMP))
        spare = _kept("pair", len(p), np.intp)
        if len(keep) < len(p):
            k = len(keep)
            # through spare: a take into its own array copies that array first
            for index in (p, atom):
                index[:k] = _take(index, keep, spare[:k])
            p, atom, spare = p[:k], atom[:k], spare[:k]
            for a, moved in enumerate(_kept("u", (n, k))):
                moved[:] = _take(u[a], keep, vals[:k])
            u, s, vals = _kept("u", (n, k)), _take(s, keep, vals[:k]), s[:k]
        if len(groups) == 1:
            cores.core_eval(n, *st.groups[groups[0]], u.T, out=vals, sq=s)
        else:
            group = _take(st.group, atom, spare)
            for g in groups:
                sel = np.flatnonzero(group == g)
                vals[sel] = cores.core_eval(n, *st.groups[g], u[:, sel].T,
                                            out=np.empty(len(sel)), sq=s[sel])
        # each term (scale * value) * coeff, component by component, added
        # in pair order at the flat index (column * npts + point) * d +
        # component of out
        np.multiply(_take(st.scale, atom, s), vals, out=vals)
        row = p
        if st.m > 1:
            row = _take(st.col, atom, spare)
            row *= len(pts)
            row += p
        if d > 1:
            row = np.multiply(row, d, out=spare)
        for c in range(d):
            if c:
                row += 1
            term = np.multiply(vals, _take(st.coeffs[:, c], atom, s), out=s)
            np.add.at(out.reshape(-1), row, term)


def _take(a: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[index] into out, for indices in range."""
    return np.take(a, index, out=out, mode="clip")


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

    Each block of whole grid rows (up to ``quadrature.BLOCK_POINTS`` points,
    at least one row) is one job whose columns are every function's order-i
    multi-indices, and only the best points so far are kept from block to
    block: the order is total, so these are the best of the grid.
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

    The order-i derivative tensors on a grid of grid_points intervals per
    axis over the box (K defaults to the support ball) are screened with
    the unrefined angular scan (``_screen``).  The best screened points get
    the norm refined in angle, and a local grid search around the best of
    them refines in space (``_refine``).  What is certified: the
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
    st = StackedFns.of([[(phi, xi) for xi in indices]])  # one stack: one atom-bin index
    # C order: the rounding of the angular refinement follows the layout
    norms, _ = opnorms(n, i, np.ascontiguousarray(phi.eval_deriv(indices, top_pts, st)), rel_tol)
    best_idx = int(np.argmax(norms))
    best = float(norms[best_idx])
    # local refinement around the grid argmax
    center = top_pts[best_idx]
    width = float(np.max((hi - lo))) / max(grid_points, 8)
    for _ in range(8):
        lpts = _mesh([np.linspace(max(lo[j], center[j] - width),
                                  min(hi[j], center[j] + width), 17) for j in range(n)])
        lnorms, _ = opnorms(n, i, phi.eval_deriv(indices, lpts, st), rel_tol)
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
