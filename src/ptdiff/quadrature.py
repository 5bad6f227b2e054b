"""Adaptive tensor Gauss-Legendre quadrature with singularity-aware splitting.

``integrate_boxes`` refines many integrals (jobs) in lockstep.  Each job
starts from its box split at declared singular coordinates; every round it
bisects its worst cells, at most ``BATCH`` while they are not individually
negligible, and the new cells of all jobs go to the integrand together.
Each job keeps its own mesh and running totals, updated in the order of a
job run alone, so its result does not depend on the other jobs:
``integrate_box`` is the one-job case.  Cells narrower than the width floor
are frozen with their error contribution reported, which gives oscillatory
integrands geometric refinement toward the singularity with an honest
final bound instead of an endless subdivision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

# integrand points per call, in whole cells, unless BATCH cells are more
BLOCK_POINTS = 1 << 13
GL_ORDER = 16  # Gauss-Legendre nodes per axis of a cell and of its halves
GL_ORDER_LOW = 10  # the embedded low-order rule
BATCH = 64  # most cells a job bisects in one round


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


def _halves(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boxes bisected along their widest axis: the halves' (lo, hi), each (boxes, 2, n)."""
    rows, axis = np.arange(len(lo)), (hi - lo).argmax(axis=1)
    mid = (lo[rows, axis] + hi[rows, axis]) / 2.0
    h_lo, h_hi = lo[:, None, :].repeat(2, axis=1), hi[:, None, :].repeat(2, axis=1)
    h_hi[rows, 0, axis] = mid
    h_lo[rows, 1, axis] = mid
    return h_lo, h_hi


def _cell_values(f, lo: np.ndarray, hi: np.ndarray, job: np.ndarray,
                 split: bool) -> np.ndarray:
    """Gauss-Legendre values of job-sorted cells, (cells, 1); f sees whole cells.

    With split, those of both halves and the embedded low-order value, which
    catches error the widest-axis bisection cannot see, (cells, 3).
    """
    m, n = lo.shape
    ref, wts = _gl_nodes(GL_ORDER, n)
    low_ref, low_wts = _gl_nodes(GL_ORDER_LOW if split else GL_ORDER, n)
    q = len(wts) * split
    out = np.empty((m, 1 + 2 * split))
    step = max(BATCH, BLOCK_POINTS // (2 * q + len(low_wts)))
    for s in range(0, m, step):
        l, h = lo[s:s + step], hi[s:s + step]
        pts = l[:, None, :] + low_ref * (h - l)[:, None, :]
        if split:
            h_lo, h_hi = _halves(l, h)
            h_w = h_hi - h_lo
            pts = np.concatenate([(h_lo[:, :, None, :] + ref * h_w[:, :, None, :]).reshape(
                len(l), 2 * q, n), pts], axis=1)
        vals = np.asarray(f(pts.reshape(-1, n), job[s:s + step].repeat(pts.shape[1])),
                          dtype=float).reshape(len(l), -1)
        if split:
            out[s:s + step, :2] = (vals[:, :2 * q].reshape(len(l), 2, -1) * wts).sum(axis=2) \
                * h_w.prod(axis=2)
        out[s:s + step, -1] = (vals[:, 2 * q:] * low_wts).sum(axis=1) * (h - l).prod(axis=1)
    return out


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
    """Per job: the absolute floor, the relative tolerance, or roundoff over ta."""
    return np.maximum(np.maximum(config.abs_floor, config.rel_tol * np.abs(tv)),
                      64 * np.finfo(float).eps * ta)


def _rank(group: np.ndarray) -> np.ndarray:
    """Position of each item within its group, for items sorted by group."""
    return np.arange(len(group)) - np.searchsorted(group, group)


def integrate_boxes(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    jobs: Sequence[Tuple[Sequence[float], Sequence[float],
                                         Sequence[Sequence[float]]]],
                    config: QuadratureConfig = QuadratureConfig(),
                    strict: bool = True) -> List[Tuple[float, float, int]]:
    """(value, error_bound, cells) of each box (lo, hi, split_coords).

    f(pts, job) is job[i]'s integrand at pts[i]; a job's points are one run.
    With strict, the first job whose budget ran out above tolerance raises.
    """
    nj = len(jobs)
    totals = np.zeros((nj, 3))  # value, error and sum of |cell values| (roundoff)
    tv, te, ta = totals.T
    ncells, entries = np.zeros((2, nj), dtype=np.intp)  # entries: cells in the totals
    budget_hit, active = np.zeros((2, nj), dtype=bool)
    boxes = []
    for j, (lo, hi, splits) in enumerate(jobs):
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not np.any(hi <= lo):
            boxes.append(_initial_boxes(lo, hi, splits or [[]] * lo.size) + (j,))
            ncells[j] = len(boxes[-1][0])
            active[j] = True
    if not boxes:
        return [(0.0, 0.0, 0)] * nj
    # the new cells (boxes, coarse values, jobs), job-sorted in push order
    lo, hi = np.concatenate([b[0] for b in boxes]), np.concatenate([b[1] for b in boxes])
    job = np.repeat([b[2] for b in boxes], [len(b[0]) for b in boxes])
    coarse = _cell_values(f, lo, hi, job, False)[:, 0]
    n = lo.shape[1]
    # cells still queued, in insertion order: lo, hi, err, values of the halves, job
    store, size = np.empty((64, 2 * n + 4)), 0
    while len(job):
        vals = _cell_values(f, lo, hi, job, True)
        value = vals[:, 0] + vals[:, 1]
        a, b = np.abs(value - coarse), np.abs(coarse - vals[:, 2])
        err = np.where(b > a, b, a)
        np.add.at(totals, job, np.column_stack([value, err, np.abs(value)]))
        entries += np.bincount(job, minlength=nj)
        if size + len(job) > len(store):  # grow geometrically
            store = np.vstack([store[:size], np.empty((len(store) // 2 + len(job), 2 * n + 4))])
        store[size:size + len(job)] = np.hstack([lo, hi, err[:, None], vals[:, :2], job[:, None]])
        size += len(job)

        tol = _tolerance(config, tv, ta)
        cell_job = store[:size, -1].astype(np.intp)
        active &= ~(te <= tol) & (np.bincount(cell_job, minlength=nj) > 0)
        # per job, its worst cells while they are not negligible, at most
        # BATCH; the first negligible cell leaves the queue too, unsplit
        e = store[:size, 2 * n]
        order = np.lexsort((-e, cell_job))
        ojob = cell_job[order]
        rank = _rank(ojob)
        above = np.bincount(ojob, weights=~(e[order] <= (tol / (2 * np.maximum(entries, 1)))[
            ojob]), minlength=nj).astype(np.intp)[ojob]
        mine = active[ojob] & (above > 0)
        taken = order[mine & (rank < above) & (rank < BATCH)]
        popped = order[mine & (rank <= above) & (rank < BATCH)]
        active &= np.bincount(ojob, weights=mine, minlength=nj) > 0

        width = (store[taken, n:2 * n] - store[taken, :n]).max(axis=1)
        live = taken[~(width / 2.0 < config.min_width)]  # frozen cells keep their err
        fits = ncells[cell_job[live]] + 2 * _rank(cell_job[live]) < config.max_cells
        budget_hit[cell_job[live[~fits]]] = True
        split = live[fits]
        job = cell_job[split]
        nsplit = np.bincount(job, minlength=nj)
        active &= nsplit > 0
        coarse = store[split, 2 * n + 1:2 * n + 3]
        value = coarse[:, 0] + coarse[:, 1]
        np.subtract.at(totals, job, np.column_stack([value, store[split, 2 * n], np.abs(value)]))
        entries -= nsplit
        ncells += 2 * nsplit
        # the halves of the split cells are the next new cells
        lo, hi = (h.reshape(-1, n) for h in _halves(store[split, :n], store[split, n:2 * n]))
        coarse, job = coarse.reshape(-1), np.repeat(job, 2)
        keep = active[cell_job]
        keep[popped] = False
        size = int(keep.sum())
        store[:size] = store[:len(keep)][keep]
    if strict:
        failed = np.flatnonzero(budget_hit & (te > _tolerance(config, tv, ta)))
        if failed.size:
            j = failed[0]
            raise QuadratureNonConvergence(float(tv[j]), float(te[j]), int(ncells[j]))
    return [(float(v), float(e), int(c)) for v, e, c in zip(tv, te, ncells)]


def integrate_box(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                  split_coords: Sequence[Sequence[float]] = (),
                  config: QuadratureConfig = QuadratureConfig(),
                  strict: bool = True) -> Tuple[float, float, int]:
    """Integrate f over the box [lo, hi]; returns (value, error_bound, cells)."""
    return integrate_boxes(lambda pts, job: f(pts), [(lo, hi, split_coords)],
                           config, strict)[0]
