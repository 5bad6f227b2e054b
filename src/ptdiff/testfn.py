"""Compactly supported smooth test functions with exact derivatives.

A TestFn is a finite sum of core atoms (bump or bump-times-monomial),
each translated, dilated, and weighted by a vector coefficient in R^d.
Derivatives up to ``max_deriv_order`` evaluate through the closed-form
prefactor recursion in :mod:`ptdiff.cores`, so integration by parts
downstream is exact.

A batch of points is evaluated with each atom only at the points inside
its support ball, by one evaluator for many (test function, derivative)
jobs, ``eval_stacked``; ``TestFn.eval_deriv`` is its one-job case.  The
points are sorted once by a key made of their job, their bin over the
first n - 1 coordinates (bins a quarter of the smallest atom radius wide)
and their last coordinate, so that the points of one job and bin inside
an atom's bounding box along the last axis are one run of the sorted
order: the candidate (atom, point) pairs are these runs, slightly more
than the boxes.  A pair is kept when |u|^2 < 1 - BOUNDARY_CLAMP for the
point u in the atom's core coordinates, the test ``core_eval`` makes.  A
job whose atoms share one support ball (one atom, moment kernels) skips
the search and the test.  Kept pairs go to ``core_eval`` in one call per
core group and derivative, PAIR_BLOCK candidates at a time, which bounds
the temporaries whatever the batch.

The result is bit-identical to summing each function's atoms one by one
over all points: a pair's terms are the same float operations, the radius
power is a Python float power per atom, and ``np.add.at`` over atom-major
pairs adds each point's terms in atom order, block after block.  The pairs
it skips added exact zeros, which change no sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import cores
from .cores import UnsupportedOrderError
from .tensor import MultiIndex, opnorms, xi_set, zero_index

DEFAULT_MAX_DERIV_ORDER = 6
# seminorm screens its whole grid with this many directions (n = 2) and
# refines the norm in angle only at the best screened points
SCREEN_DIRECTIONS = 64
SCREEN_CANDIDATES = 64
# candidate (atom, point) pairs per core_eval block
PAIR_BLOCK = 1 << 12
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
    n: int
    d: int
    atoms: Tuple[CoreAtom, ...]
    support_center: Tuple[float, ...]
    support_radius: float
    max_deriv_order: int = DEFAULT_MAX_DERIV_ORDER
    label: str = ""

    def eval_deriv(self, xi: MultiIndex, x) -> np.ndarray:
        """D^xi phi at points (npts, n) or a single point (n,); values in R^d."""
        if xi.order > self.max_deriv_order:
            raise UnsupportedOrderError(
                f"derivative order {xi.order} exceeds configured bound {self.max_deriv_order}")
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        pts = x.reshape(-1, self.n)
        # the loop serves what culling cannot help, and non-finite points,
        # which the bins of the culled path cannot place (every atom is 0 there)
        if pts.shape[0] > 1 and not self._one_support and np.isfinite(pts).all():
            # one job: a byte per point for its index, not eight
            out = eval_stacked(StackedFns.of([(self, xi)]), pts, np.zeros(len(pts), np.int8))
        else:
            out = np.zeros((pts.shape[0], self.d))
            for a in self.atoms:
                u = (pts - np.asarray(a.center)) / a.radius
                vals = cores.core_eval(self.n, a.kind, a.core_xi, xi, u)
                scale = a.radius ** (-xi.order)
                out += (scale * vals)[:, None] * np.asarray(a.coeff)[None, :]
        return out[0] if single else out

    @cached_property
    def _one_support(self) -> bool:
        """All atoms share one support ball (one atom, moment kernels)."""
        first = self.atoms[0] if self.atoms else None
        return all(a.center == first.center and a.radius == first.radius
                   for a in self.atoms)

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

    def derivative_view(self, xi: MultiIndex) -> "DerivedTestFn":
        return DerivedTestFn(self, xi)

    def plus(self, other: "TestFn") -> "TestFn":
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("incompatible test functions")
        sc = np.asarray(self.support_center)
        oc = np.asarray(other.support_center)
        # smallest ball containing both support balls
        dist = float(np.linalg.norm(sc - oc))
        if dist < 1e-15:
            center, radius = sc, max(self.support_radius, other.support_radius)
        else:
            lo = min(-self.support_radius, dist - other.support_radius)
            hi = max(self.support_radius, dist + other.support_radius)
            center = sc + (oc - sc) / dist * (lo + hi) / 2
            radius = (hi - lo) / 2
        return replace(self, atoms=self.atoms + other.atoms,
                       support_center=tuple(center), support_radius=radius,
                       max_deriv_order=min(self.max_deriv_order, other.max_deriv_order))


@dataclass(frozen=True)
class StackedFns:
    """The atoms of many jobs D^xi_j phi_j as arrays, job-major; culled is
    False for the atoms of a job whose atoms share one support ball."""

    n: int
    d: int
    centers: np.ndarray  # (A, n)
    radii: np.ndarray  # (A,)
    coeffs: np.ndarray  # (A, d)
    scale: np.ndarray  # (A,) radius ** -|xi|
    groups: Tuple[Tuple[str, Optional[Tuple[int, ...]], MultiIndex], ...]
    group: np.ndarray  # (A,) index into groups
    job: np.ndarray  # (A,)
    culled: np.ndarray  # (A,)

    @classmethod
    def of(cls, jobs: Sequence[Tuple[TestFn, MultiIndex]]) -> "StackedFns":
        rows, keys = [], {}  # keys: distinct (kind, core_xi, xi) -> group
        for j, (fn, xi) in enumerate(jobs):
            if xi.order > fn.max_deriv_order:
                raise UnsupportedOrderError(
                    f"derivative order {xi.order} exceeds configured bound {fn.max_deriv_order}")
            rows += [(a.center, a.radius, a.coeff, a.radius ** (-xi.order),
                      keys.setdefault((a.kind, a.core_xi, xi), len(keys)), j,
                      not fn._one_support) for a in fn.atoms]
        cols = [np.array(col) for col in zip(*rows)]
        return cls(jobs[0][0].n, jobs[0][0].d, *cols[:4], tuple(keys), *cols[4:])


def eval_stacked(st: StackedFns, pts: np.ndarray, job: np.ndarray) -> np.ndarray:
    """D^xi_j phi_j at each point, j = job[i] of pts[i]; values (npts, d)."""
    out = np.zeros((pts.shape[0], st.d))
    counts = np.bincount(job, minlength=st.job[-1] + 1)  # points per job
    cull = np.flatnonzero((counts[st.job] > 0) & st.culled)
    whole = np.flatnonzero((counts[st.job] > 0) & ~st.culled)
    perm, run_atom, run_start, run_len = _box_runs(st.centers[cull], st.radii[cull], pts, job,
                                                   st.job[cull])
    # a one-ball job's atoms run over all its points, which sort in job order
    run_atom, run_start, run_len = (np.concatenate(x) for x in (
        [cull[run_atom], whole], [run_start, (np.cumsum(counts) - counts)[st.job[whole]]],
        [run_len, counts[st.job[whole]]]))
    ends = np.cumsum(run_len)
    offset = run_start - (ends - run_len)
    total = int(ends[-1]) if ends.size else 0
    for first in range(0, total, PAIR_BLOCK):
        k = np.arange(first, min(first + PAIR_BLOCK, total))
        run = np.searchsorted(ends, k, side="right")
        atom = run_atom[run]
        p = perm[k + offset[run]]
        u = (pts[p] - st.centers[atom]) / st.radii[atom, None]
        keep = ~st.culled[atom] | (cores.sq_norms(u) < 1.0 - cores.BOUNDARY_CLAMP)
        atom, p, u = atom[keep], p[keep], u[keep]
        group = st.group[atom]
        used = np.flatnonzero(np.bincount(group, minlength=len(st.groups)))
        vals = np.empty(len(atom))
        for g in used:
            sel = slice(None) if len(used) == 1 else group == g
            vals[sel] = cores.core_eval(st.n, *st.groups[g], u[sel])
        # flat indices add each (point, component) in pair order, like rows would
        terms = (st.scale[atom] * vals)[:, None] * st.coeffs[atom]
        np.add.at(out.reshape(-1), (p[:, None] * st.d + np.arange(st.d)).reshape(-1),
                  terms.reshape(-1))
    return out


def _box_runs(centers: np.ndarray, radii: np.ndarray, pts: np.ndarray,
              point_job: np.ndarray, atom_job: np.ndarray):
    """Each atom's candidate points of its job, as runs of one sorted order of pts.

    The first n - 1 axes are cut into bins, and the job is one more,
    leading bin.  Points sort by their last coordinate plus stride times
    their linear bin, with the stride wider than the points' span, so the
    keys of one bin keep the order of the last coordinate and never meet
    another bin's.  The points of a bin within [c - r, c + r] on the last
    axis are then one run of keys.
    Returns the order and, atom-major, each non-empty run's atom, start
    and length; the runs of an atom cover its bounding box.
    """
    n = pts.shape[1]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    width = np.maximum(np.min(radii, initial=np.inf) / 4.0, (hi - lo)[:-1] / (MAX_BINS - 1))
    nbins = np.floor((hi - lo)[:-1] / width) + 1
    stride = 2.0 * (hi[-1] - lo[-1]) + 1.0
    point_bin = point_job.astype(float)
    for j in range(n - 1):
        point_bin = point_bin * nbins[j] + np.floor((pts[:, j] - lo[j]) / width[j])
    keys = pts[:, -1] + stride * point_bin
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


@dataclass(frozen=True)
class DerivedTestFn:
    """View of D^offset phi, itself usable as a test function."""

    base: TestFn
    offset: MultiIndex

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def support_center(self):
        return self.base.support_center

    @property
    def support_radius(self) -> float:
        return self.base.support_radius

    @property
    def max_deriv_order(self) -> int:
        return self.base.max_deriv_order - self.offset.order

    @property
    def label(self) -> str:
        return f"D^{self.offset.entries} {self.base.label}"

    def eval_deriv(self, xi: MultiIndex, x) -> np.ndarray:
        return self.base.eval_deriv(xi + self.offset, x)

    def __call__(self, x) -> np.ndarray:
        return self.eval_deriv(zero_index(self.n), x)

    def derivative_view(self, xi: MultiIndex) -> "DerivedTestFn":
        return DerivedTestFn(self.base, self.offset + xi)


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
    ball), and their norms are screened there with the unrefined angular
    scan.  The best screened points get the norm refined in angle, and a
    local grid search around the best of them refines in space.  What is
    certified: the spatial search and every angular scan in it stop only
    once a refinement step gains less than rel_tol relatively, and the
    result is the norm at one point, so it is a lower bound of the sup.
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
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def tensors(pts):
        out = np.empty((pts.shape[0], len(indices), phi.d))
        for r, xi in enumerate(indices):
            out[:, r] = phi.eval_deriv(xi, pts)
        return out

    pts = grid([np.linspace(lo[j], hi[j], max(grid_points, 8) + 1) for j in range(n)])
    values = tensors(pts)
    screen, _ = opnorms(n, i, values, None, SCREEN_DIRECTIONS)
    top = _top_indices(screen, SCREEN_CANDIDATES)
    norms, _ = opnorms(n, i, values[top], rel_tol)
    best_idx = int(np.argmax(norms))
    best = float(norms[best_idx])
    # local refinement around the grid argmax
    center = pts[top[best_idx]]
    width = float(np.max((hi - lo))) / max(grid_points, 8)
    for _ in range(8):
        lpts = grid([np.linspace(max(lo[j], center[j] - width),
                                 min(hi[j], center[j] + width), 17) for j in range(n)])
        lnorms, _ = opnorms(n, i, tensors(lpts), rel_tol)
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

    All members are supported in B(0, 1) and normalized so that the order-i
    seminorm is 1 within the seminorm tolerance.  Deterministic given
    (n, d, i, size, seed); the member list is prefix-stable in size.
    """

    n: int
    d: int
    i: int
    size: int
    seed: int
    members: Tuple[TestFn, ...]

    def spec(self) -> dict:
        return {"n": self.n, "d": self.d, "i": self.i, "size": self.size, "seed": self.seed}


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
