"""Adaptive tensor Gauss-Legendre quadrature with singularity-aware splitting.

``integrate_boxes`` refines many integrals (jobs) in lockstep.  Each job
starts from its box split at declared singular coordinates; every round it
bisects its worst cells, at most ``BATCH`` while they are not individually
negligible, and the new cells of all jobs go to the integrand together.
Each job keeps its own mesh and running totals, updated in the order of a
job run alone, so its result does not depend on the other jobs:
``integrate_box`` is the one-job case.  Cells whose split axis is narrower
than the width floor are frozen with their error contribution reported,
which gives oscillatory integrands geometric refinement toward the
singularity with an honest final bound instead of an endless subdivision.

A cell bisects along the axis that its own values leave unresolved, as in
the subdivision step of Genz and Malik (1980) and of DCUHRE, but from no
extra points: its GL_ORDER^n Gauss-Legendre values are made in the round
that makes the cell, its parent's split evaluation or, for an initial
cell, the coarse round.  Along each axis, their two highest Legendre
coefficients, summed in magnitude over the other axes and the components,
measure what that axis leaves unresolved; the largest wins, a tie goes to
the widest axis (``_split_axes``).  The halves whose values give a cell's
error are the halves it is split into, and the width floor reads that
axis.  So a cell rough along a narrow axis splits there, whatever its
other widths.  In 1-D the one axis needs no choice, and the engine does
the float operations of a plain bisection.

A job may carry M components on one mesh: the integrand returns M values
per point.  Each component keeps its own totals, so its own value and
bound.  A cell is negligible when every component is, and ranks by its
largest error / tolerance; a job is done when every component is within
its tolerance.  A scalar integrand is the one-component case, with the
same float operations as a job of its own.

The integrand contract: f(pts, job) gets whole cells, each job's points
one contiguous run and the runs in ascending job order, so an integrand
can work run by run (``job_runs``).  The points are built axis by axis,
each coordinate one contiguous block, and handed over as an F-ordered
(points, n) view; every point equals the cell-major broadcast
lo + node * width bit for bit, or its image on a disk.  The engine may
write over the array f returns.

A 2-D job with a disk (c, rho) is integrated over B(c, rho): the engine
refines the unit square of (s, t), maps each cell's points to x = c +
rho s (cos 2 pi t, sin 2 pi t) before f sees them, and multiplies f's
values by the Jacobian 2 pi rho^2 s before it scores and sums them
(``_to_disk``), in the float operations (2 pi) t, cos (rho s) + c,
((rho s) rho) 2 pi and value * Jacobian.  cos and sin are taken once per
t node of a cell, 42 times for a split cell of 612 points.  Its polar
cells follow a bump's flat edge along s = 1, where a box's follow the
circle; at a cusp at the center, (rho s)^(1/2), they split in s, almost
never in t.

The block contract: every large evaluation goes through in blocks of
about ``BLOCK_POINTS`` points, one size for the engine's integrand calls
(whole cells, at least one), the culled (atom, point) pairs of
``testfn.eval_stacked`` and the grid rows of ``testfn.seminorm``.  A
block's temporaries are a small multiple of BLOCK_POINTS entries per
column; a grid block of ``seminorm`` has a column per test function and
derivative it screens.  So memory stays bounded whatever the number of
cells or grid points, and no value depends on the block: each cell's
values, pair's term and grid point's norm are its own.  Block memory is
reused where it would fault in anew on every block: the culled search of
``testfn.eval_stacked`` takes one block of points at a time, and it,
the one-ball layout path and ``_cell_values`` work in arrays kept per
thread (``_kept``), from block to block and call to call, each bounded by
one block: a block's points, mapped in place, and its Jacobians.  So f
must not call the engine, which would overwrite the points f holds.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

# points of one block of a large evaluation: integrand calls (whole
# cells), the test functions' culled pairs and seminorm's grid rows
BLOCK_POINTS = 1 << 14
GL_ORDER = 16  # Gauss-Legendre nodes per axis of a cell and of its halves
GL_ORDER_LOW = 10  # the embedded low-order rule
BATCH = 64  # most cells a job bisects in one round
_KEPT = threading.local()  # each thread's block arrays, by name


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_floor: float = 1e-14
    max_cells: int = 2 ** 20
    min_width: float = 1e-13


class QuadratureNonConvergence(RuntimeError):
    """Cell budget exhausted above tolerance; carries best value and bound."""

    def __init__(self, value: float, error_bound: float, cells: int):
        self.value = value
        self.error_bound = error_bound
        self.cells = cells
        super().__init__(
            f"quadrature budget exhausted: value={value!r}, bound={error_bound!r}, cells={cells}")


@lru_cache(maxsize=None)
def _gl_nodes(order: int, n: int):
    """Tensor Gauss-Legendre nodes and weights on the unit cube [0,1]^n."""
    x, w = np.polynomial.legendre.leggauss(order)
    x01, w01 = (x + 1.0) / 2.0, w / 2.0
    grids = np.meshgrid(*([x01] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w01] * n), indexing="ij")
    wts = np.ones(pts.shape[0])
    for g in wgrids:
        wts = wts * g.ravel()
    return pts, wts


def _halves(lo: np.ndarray, hi: np.ndarray, axis) -> Tuple[np.ndarray, np.ndarray]:
    """Boxes bisected, each along its axis: the halves' (lo, hi), each (boxes, 2, n)."""
    rows = np.arange(len(lo))
    mid = (lo[rows, axis] + hi[rows, axis]) / 2.0
    h_lo, h_hi = lo[:, None, :].repeat(2, axis=1), hi[:, None, :].repeat(2, axis=1)
    h_hi[rows, 0, axis] = mid
    h_lo[rows, 1, axis] = mid
    return h_lo, h_hi


@lru_cache(maxsize=None)
def _top_legendre() -> np.ndarray:
    """w_i P_m(x_i) over the GL_ORDER Gauss-Legendre nodes x_i on [-1, 1],
    for the two highest degrees m the rule resolves, (2, GL_ORDER)."""
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    return np.stack([w * np.polynomial.legendre.Legendre.basis(m)(x)
                     for m in (GL_ORDER - 2, GL_ORDER - 1)])


def _split_axes(vals: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The axis along which to bisect each cell, from its Gauss-Legendre
    values vals (M, cells..., GL_ORDER^n) and its widths (cells..., n).

    Along each axis, the cell's two highest Legendre coefficients, their
    magnitudes summed over the other axes with the Gauss-Legendre weights
    and over the components: the axis with the largest sum is the one its
    values leave unresolved.  On a tie, or a NaN, the widest axis.  Each
    cell's axis depends on its own values alone: every product is one
    small matrix per cell and component.
    """
    lead, n, table = vals.shape[:-1], width.shape[-1], _top_legendre()
    wts = _gl_nodes(GL_ORDER, n - 1)[1]
    score = np.empty(width.shape)
    for a in range(n):  # the coefficients along a, summed over degree: (..., before, after)
        if a < n - 1:
            top = np.abs(table @ vals.reshape(lead + (GL_ORDER ** a, GL_ORDER, -1))).sum(axis=-2)
        else:
            top = np.abs(vals.reshape(lead + (-1, GL_ORDER)) @ table.T).sum(axis=-1)
        score[..., a] = (top.reshape(lead + (-1,)) * wts).sum(axis=-1).sum(axis=0)
    best, widest = score.argmax(axis=-1)[..., None], width.argmax(axis=-1)[..., None]
    return np.where(np.take_along_axis(score, best, -1) > np.take_along_axis(score, widest, -1),
                    best, widest)[..., 0]


def _cell_values(f, lo: np.ndarray, hi: np.ndarray, job: np.ndarray, disks, axis=None):
    """Gauss-Legendre values of job-sorted cells, and split axes; f sees whole cells.

    Without an axis, each cell's values, (cells, 1, M), and its split axis,
    (cells,).  Given each cell's split axis, the values of its halves along
    that axis and its embedded low-order value, which catches error the
    halves cannot see, (cells, 3, M), and the halves' split axes,
    (cells, 2).  An axis comes from the GL_ORDER^n values of its cell
    (``_split_axes``); for n = 1 every axis is 0, given and returned as
    such.  f returns (points,) or (points, M).  The points of a block are
    built axis by axis, one contiguous (cells, points per cell) block per
    coordinate, and f gets their (points, n) transpose: cell-major, each
    point the value lo + ref * width of the cell-major broadcast, mapped
    onto a disk for the jobs on one: disks is (on a disk, centers, radii)
    per job (``_to_disk``).
    """
    m, n = lo.shape
    split = axis is not None
    ref, wts = _gl_nodes(GL_ORDER, n)
    low = GL_ORDER_LOW if split else GL_ORDER
    low_ref, low_wts = _gl_nodes(low, n)
    q = len(wts) * split
    per_cell = 2 * q + len(low_wts)  # the halves' points, then the low-order rule's
    # on a disk, each segment of a cell's points: (start, end, its (s, t) grid)
    segments = ([(0, 2 * q, (2, GL_ORDER, GL_ORDER))] if split else []) + [
        (2 * q, per_cell, (low, low))]
    w = hi - lo
    if split:  # the halves and the volumes of every cell, for all blocks at once
        h_lo, h_hi = _halves(lo, hi, axis)
        h_w = h_hi - h_lo
        h_vol = h_w.prod(axis=2)
    vol = w.prod(axis=1)
    out = None
    axes = 0 if n == 1 else np.empty((m, 2) if split else m, dtype=np.intp)
    step = max(1, BLOCK_POINTS // per_cell)
    for s in range(0, m, step):
        c, k = slice(s, s + step), min(step, m - s)
        pts = _kept("cell_points", (n, k, per_cell))
        for a in range(n):
            if split:
                np.add(h_lo[c, :, None, a], ref[:, a] * h_w[c, :, None, a],
                       out=pts[a, :, :2 * q].reshape(k, 2, q))
            np.add(lo[c, None, a], low_ref[:, a] * w[c, None, a], out=pts[a, :, 2 * q:])
        jacobian = _to_disk(pts, job[c], disks, segments)
        vals = np.asarray(f(pts.reshape(n, -1).T, job[c].repeat(per_cell)), dtype=float)
        # component-major, so that each component sums contiguous rows, in
        # the float operations of a scalar integrand
        vals = np.ascontiguousarray(vals.reshape(len(vals), -1).T).reshape(-1, k, per_cell)
        if jacobian is not None:
            vals *= jacobian
        if out is None:
            out = np.empty((m, 1 + 2 * split, len(vals)))
        # the values at GL_ORDER^n points of each cell the block resolves:
        # its halves, or the cell itself
        full = vals[:, :, :2 * q].reshape(len(vals), k, 2, -1) if split else vals
        if split:
            out[c, :2] = ((full * wts).sum(axis=3) * h_vol[c]).transpose(1, 2, 0)
        if n > 1:
            axes[c] = _split_axes(full, h_w[c] if split else w[c])
        out[c, -1] = ((vals[:, :, 2 * q:] * low_wts).sum(axis=2) * vol[c]).T
        del pts, vals, full  # no block's arrays live on beside the next block's
    return out, axes


def _to_disk(pts: np.ndarray, job: np.ndarray, disks, segments) -> np.ndarray:
    """Map the (s, t) points pts (2, cells, points per cell) of the cells on
    a disk onto it, in place, run of cells by run; their Jacobians, 1.0 at
    the other cells, or None.  Each segment of a cell's points is a grid
    with s along its rows and t along its columns: one cos and sin a column.
    """
    on, centers, radii = disks
    on = on[job]
    if not on.any():
        return None
    size = math.prod(pts.shape[1:])  # allocated once at its largest, one block's
    jacobian = _kept("cell_jacobian", max(BLOCK_POINTS, size))[:size].reshape(pts.shape[1:])
    jacobian[~on] = 1.0
    starts, lengths, which = job_runs(on)
    for a, b in zip(starts[which], (starts + lengths)[which]):
        for lo, hi, grid in segments:
            s, t, jac = (v[a:b, lo:hi].reshape((b - a,) + grid)
                         for v in (pts[0], pts[1], jacobian))
            each = (-1,) + (1,) * len(grid)  # a cell's value, over its points
            rho, c = radii[job[a:b]].reshape(each), centers[job[a:b]].T.reshape((2,) + each)
            angle = 2.0 * np.pi * t[..., :1, :]
            np.multiply(rho, s, out=jac)
            np.multiply(np.cos(angle), jac, out=s)
            s += c[0]
            np.multiply(np.sin(angle), jac, out=t)
            t += c[1]
            jac *= rho
            jac *= 2.0 * np.pi
    return jacobian


def job_runs(job: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(starts, lengths, jobs) of the runs of equal entries of job, in order."""
    new = np.ones(len(job) + 1, dtype=bool)  # each run's start, and the end
    np.not_equal(job[1:], job[:-1], out=new[1:-1])
    bounds = np.flatnonzero(new)
    return bounds[:-1], bounds[1:] - bounds[:-1], job[bounds[:-1]]


def run_points(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices of the entries of some runs, run after run."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def _kept(name: str, shape, dtype=float) -> np.ndarray:
    """A block array of the given shape: a view of this thread's array of
    that name, allocated on first use and grown when too small, so that its
    pages fault in once, not once per block.  A request is one block's, a
    few entries per point or pair, or one per (spec, point) of a layout,
    which bounds what is kept.  It holds whatever its last use left."""
    size = shape if isinstance(shape, int) else math.prod(shape)
    buf = _KEPT.__dict__.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = _KEPT.__dict__[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _initial_boxes(lo: np.ndarray, hi: np.ndarray,
                   split_coords: Sequence[Sequence[float]]) -> Tuple[np.ndarray, np.ndarray]:
    axes = []
    for j in range(len(lo)):
        cuts = [c for c in (split_coords[j] if split_coords else []) if lo[j] < c < hi[j]]
        axes.append(np.array(sorted({float(lo[j]), float(hi[j]), *map(float, cuts)})))
    los, his = [], []
    for combo in itertools.product(*[range(len(a) - 1) for a in axes]):
        los.append([axes[j][c] for j, c in enumerate(combo)])
        his.append([axes[j][c + 1] for j, c in enumerate(combo)])
    return np.asarray(los, dtype=float), np.asarray(his, dtype=float)


def _tolerance(config: QuadratureConfig, tv: np.ndarray, ta: np.ndarray) -> np.ndarray:
    """Per job and component: the absolute floor, the relative tolerance, or
    roundoff over ta."""
    return np.maximum(np.maximum(config.abs_floor, config.rel_tol * np.abs(tv)),
                      64 * np.finfo(float).eps * ta)


def _rank(group: np.ndarray) -> np.ndarray:
    """Position of each item within its group, for items sorted by group."""
    return np.arange(len(group)) - np.searchsorted(group, group)


def _by_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc folded over the columns of a (rows, M): for few columns much
    faster than a reduce along the short axis."""
    out = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        ufunc(out, a[:, c], out=out)
    return out


def _ranked(job: np.ndarray, keys, small: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The cells that can be taken or popped, ranked within their job.

    Of each job, its cells that are not negligible (only its BATCH best if
    it has more) and its best negligible cell.  Cells rank by keys, most
    significant first, then by position; a NaN ranks last.
    """
    pick = ~small
    neg = np.flatnonzero(small)
    for key in keys:  # each job's best negligible cell
        top = np.full(len(above), -np.inf)
        np.fmax.at(top, job[neg], key[neg])
        neg = neg[key[neg] == top[job[neg]]]
    first = np.full(len(above), len(job))
    np.minimum.at(first, job[neg], neg)
    pick[first[first < len(job)]] = True
    for j in np.flatnonzero(above > BATCH):  # none below the job's BATCH-th
        cells = np.flatnonzero(job == j)
        k = np.where(np.isnan(keys[0][cells]), -np.inf, keys[0][cells])
        pick[cells[k < np.partition(k, len(k) - BATCH)[len(k) - BATCH]]] = False
    cand = np.flatnonzero(pick)
    return cand[np.lexsort([-k[cand] for k in keys[::-1]] + [job[cand]])]


def integrate_boxes(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    jobs: Sequence[Tuple[Sequence[float], Sequence[float],
                                         Sequence[Sequence[float]]]],
                    config: QuadratureConfig = QuadratureConfig(),
                    strict: bool = True) -> List[Tuple]:
    """(value, error_bound, cells) of each box (lo, hi, split_coords), or of
    the disk of a 2-D job (lo, hi, split_coords, (center, radius)).

    f(pts, job) is job[i]'s integrand at pts[i] (the integrand contract).
    f returns (npts,), and each result is floats, or (npts, M): M
    components on one mesh, each result's value and bound (M,) arrays.
    When no box has volume, f is not called and every result is (0.0, 0.0,
    0).  With strict, the first job with a component whose budget ran out
    above tolerance raises, with that component's value and bound.
    """
    nj = len(jobs)
    boxes, disks = [], [None] * nj  # disks: each job's (center, radius) or None
    for j, (lo, hi, splits, *disk) in enumerate(jobs):
        if disk and disk[0] is not None:  # the unit square of (s, t)
            disks[j], lo, hi, splits = disk[0], (0.0, 0.0), (1.0, 1.0), ()
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not np.any(hi <= lo):
            boxes.append(_initial_boxes(lo, hi, splits or [[]] * lo.size) + (j,))
    if not boxes:
        return [(0.0, 0.0, 0)] * nj
    centers, radii = zip(*[d or ((0.0, 0.0), 1.0) for d in disks])
    disks = (np.array([d is not None for d in disks]), np.array(centers, float), np.array(radii))
    # the new cells (boxes, coarse values, jobs), job-sorted in push order
    lo, hi = np.concatenate([b[0] for b in boxes]), np.concatenate([b[1] for b in boxes])
    job = np.repeat([b[2] for b in boxes], [len(b[0]) for b in boxes])
    shape = []  # f's value shape, seen on the first call

    def first(pts, job):
        vals = f(pts, job)
        shape.append(np.shape(vals))
        return vals
    coarse, axis = _cell_values(first, lo, hi, job, disks)  # axis: the new cells' split axes
    coarse = coarse[:, 0]
    vector = len(shape[0]) > 1
    M = shape[0][1] if vector else 1
    totals = np.zeros((nj, 3, M))  # value, error and sum of |cell values| (roundoff)
    tv, te, ta = totals.transpose(1, 0, 2)
    ncells, entries = np.zeros((2, nj), dtype=np.intp)  # entries: cells in the totals
    budget_hit, active = np.zeros((2, nj), dtype=bool)
    for b in boxes:
        ncells[b[2]] = len(b[0])
        active[b[2]] = True
    n = lo.shape[1]
    # store columns: the cell's errors, its halves' values, and for n >= 2
    # its split axis and its halves' (none for n = 1, whose axis is 0)
    E, H, A = 2 * n, 2 * n + M, 2 * n + 3 * M
    # cells still queued, in insertion order: lo, hi, errors, values of the
    # halves, axes, job
    store, size = np.empty((64, A + 3 * (n > 1) + 1)), 0
    while len(job):
        vals, half_axes = _cell_values(f, lo, hi, job, disks, axis)
        value = vals[:, 0] + vals[:, 1]
        a, b = np.abs(value - coarse), np.abs(coarse - vals[:, 2])
        err = np.where(b > a, b, a)
        np.add.at(totals, job, np.stack([value, err, np.abs(value)], axis=1))
        entries += np.bincount(job, minlength=nj)
        if size + len(job) > len(store):  # grow geometrically
            store = np.vstack([store[:size], np.empty((len(store) // 2 + len(job),
                                                       store.shape[1]))])
        store[size:size + len(job)] = np.hstack(
            [lo, hi, err, vals[:, :2].reshape(-1, 2 * M)]
            + ([axis[:, None], half_axes] if n > 1 else []) + [job[:, None]])
        size += len(job)

        tol = _tolerance(config, tv, ta)
        cell_job = store[:size, -1].astype(np.intp)
        active &= ~(te <= tol).all(axis=1)
        # per job, its worst cells while they are not negligible, at most
        # BATCH; the first negligible cell leaves the queue too, unsplit.  A
        # cell is negligible when every component is
        e = store[:size, E:H]
        small = _by_columns(np.logical_and, e <= (tol / (2 * np.maximum(entries, 1))[:, None])[
            cell_job])
        above = np.bincount(cell_job, weights=~small, minlength=nj).astype(np.intp)
        active &= above > 0
        pool = np.flatnonzero(active[cell_job] & (~small | (above < BATCH)[cell_job]))
        pe, pjob = e[pool], cell_job[pool]
        # a cell ranks by its largest error / tolerance over the components,
        # then by its largest error; with one component the order of the
        # errors is that order, in which the cells that are not negligible
        # come first
        keys = [_by_columns(np.maximum, pe)]
        if M > 1:
            pool_tol = tol[pjob]
            keys.insert(0, _by_columns(np.maximum, np.divide(
                pe, pool_tol, out=np.where(pe > 0, np.inf, 0.0), where=pool_tol > 0)))
        order = pool[_ranked(pjob, keys, small[pool], np.where(active, above, 0))]
        ojob = cell_job[order]
        rank = _rank(ojob)
        taken = order[(rank < above[ojob]) & (rank < BATCH)]
        popped = order[(rank <= above[ojob]) & (rank < BATCH)]

        cut = store[taken, A].astype(np.intp) if n > 1 else 0
        width = store[taken, n + cut] - store[taken, cut]  # along the split axis
        live = taken[~(width / 2.0 < config.min_width)]  # frozen cells keep their err
        fits = ncells[cell_job[live]] + 2 * _rank(cell_job[live]) < config.max_cells
        budget_hit[cell_job[live[~fits]]] = True
        split = live[fits]
        job = cell_job[split]
        nsplit = np.bincount(job, minlength=nj)
        active &= nsplit > 0
        coarse = store[split, H:H + 2 * M].reshape(-1, 2, M)
        value = coarse[:, 0] + coarse[:, 1]
        np.subtract.at(totals, job, np.stack([value, store[split, E:H], np.abs(value)], axis=1))
        entries -= nsplit
        ncells += 2 * nsplit
        # the halves of the split cells are the next new cells
        cut = store[split, A].astype(np.intp) if n > 1 else 0
        lo, hi = (h.reshape(-1, n) for h in _halves(store[split, :n], store[split, n:2 * n],
                                                    cut))
        axis = store[split, A + 1:A + 3].reshape(-1).astype(np.intp) if n > 1 else 0
        coarse, job = coarse.reshape(-1, M), np.repeat(job, 2)
        keep = active[cell_job]
        keep[popped] = False
        size = int(keep.sum())
        store[:size] = store[:len(keep)][keep]
    if strict:
        over = te > _tolerance(config, tv, ta)
        failed = np.flatnonzero(budget_hit & over.any(axis=1))
        if failed.size:
            j = failed[0]
            c = np.flatnonzero(over[j])[0]
            raise QuadratureNonConvergence(float(tv[j, c]), float(te[j, c]), int(ncells[j]))
    if vector:
        return [(v.copy(), e.copy(), int(c)) for v, e, c in zip(tv, te, ncells)]
    return [(float(v), float(e), int(c)) for v, e, c in zip(tv[:, 0], te[:, 0], ncells)]


def integrate_box(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                  split_coords: Sequence[Sequence[float]] = (),
                  config: QuadratureConfig = QuadratureConfig(),
                  strict: bool = True) -> Tuple[float, float, int]:
    """Integrate f over the box [lo, hi]; returns (value, error_bound, cells)."""
    return integrate_boxes(lambda pts, job: f(pts), [(lo, hi, split_coords)],
                           config, strict)[0]
