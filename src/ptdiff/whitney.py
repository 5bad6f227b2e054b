"""Jet-consistency functional, Whitney partition, localization bound, extension.

The closed set A is either a finite point set or a coordinate half-space.
All constructions follow the classical scheme: h(x) = (1/20) min(1,
dist(x, A)), a greedy maximal packing of balls B(c, h(c)) drawn from
multi-resolution grids, weights zeta_c = eta_c / sum eta normalized over
the packing, and the extension g = sum_c zeta_c P_{xi(c)} off A with
xi(c) a nearest point of A.  Derivative bounds V_m are measured on probe
grids rather than derived a priori; they feed the localization constant
Gamma = Delta 30^{n+i} 3^lambda / alpha(n) with Delta = sum_m C(i,m) V_m 3^m.

A ``JetField`` holds its jets stacked: centers (N, n) and coefficients
(N, S, d), zero-padded to the field degree.  The compatibility gate
rho <= kappa_F delta^alpha, which ``extend`` and ``rho`` share, works on
these arrays a block of ordered pairs at a time: every P_a is recentered
at its b in one stacked shift contraction, and each derivative order is
one ``opnorms`` call.  These arrays select the largest defect; its value
is then recomputed from its own pair, one tensor, so that no reported
number depends on the block it was found in.  For n = 1 the values, and
the worst pair, are those of one pair at a time to the last bit.

Weights and the extension are evaluated for a batch of points at once:
``WhitneyExtension.eval`` takes a point (n,) or a batch (npts, n), and a
multi-index or a sequence of them, as ``TestFn.eval_deriv`` does.  The
active (point, center) pairs, |x - c| < 10 h(c), are found without a
dense (points x centers) table: h is 1/20-Lipschitz, so an active pair
has |x - c| < 20 h(x), and the candidates are the centers in that slab of
coordinate 0.  There is then one ``core_eval`` call per derivative of eta
over all pairs, and the jets' derivatives at the rows are read from the
stacked arrays in one pass.  The greedy packing tests a candidate t
against the kept centers in the slab |c_0 - t_0| < (40/19) h(t), by the
same bound.

On the line, h is a tent between consecutive points of A, clipped at
1/20, and c -+ k h(c) increases with c for every k < 20, so each
neighbourhood query is a run of candidates or centers sorted by
coordinate.  The active centers of x are the run with c - 10 h(c) < x <
c + 10 h(c), found by two ``searchsorted`` calls on ends the partition
keeps.  The packing is built by sweeps outward from each tent's top, and
is taken only after an array check shows it to be the greedy's; when the
check fails, the slab loop decides.  At the grid levels of spacing s with
80 s < 1, h is evaluated only within 80 s of A, since no point farther
out passes the level's band test.

Nearest points of a finite set are found by a scan over its points; for
n = 1 by a sorted search, where the next point out on each side detects
ties in floating point.  Where the nearest point's index is read (the
extension's jets), tied rows are settled exactly; distances alone, and so
h, skip that.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import cores
from .distribution import Distribution, pair_many
from .poincare import unit_ball_volume
from .quadrature import QuadratureConfig
from .tensor import (MultiIndex, PolyJet, eval_jets, jet_opnorms, opnorm_bounds,
                     recenter_jets, stack_jets, unit_index, xi_set, zero_index)
from .testfn import ProbeDictionary

Ball = Tuple[Sequence[float], float]

_SLAB_MARGIN = 1e-9  # relative margin on the Lipschitz slab bounds
_PAIR_BLOCK = 2 ** 20  # candidate (point, center) pairs filtered at once
_GATE_BLOCK = 2 ** 12  # ordered jet pairs of the compatibility gate at once
_DATA_ATOL = 1e-12  # query rows this close to a data point take its jet
_HOELDER_BLOCK = 2 ** 12  # Hoelder sample points evaluated at once
_GRID_POINTS = 2 ** 25  # most points of one candidate grid level


def _nearest(points: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(index of a nearest row of points, distance to it) for each row of X.

    The distances are ``_search``'s.  A row whose smallest squared distances
    tie in floating point takes the nearest point in exact rational
    arithmetic, the first of exact ties: far from the points, their
    distances round to one value.  Otherwise the index is the one point at
    the smallest float distance.
    """
    arg, dist, tied = _search(points, X)
    for i in np.flatnonzero(tied & np.isfinite(X).all(axis=1)):
        exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(X[i], p)) for p in points]
        arg[i] = exact.index(min(exact))
    return arg, dist


def _search(points: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first index at the smallest float distance, that distance, tied) for each row of X.

    The smallest squared distance, then one sqrt: the same distances as the
    minimum of the norms.  With no points the distance is inf, and so it is
    for rows that are not finite, with index 0.  Coordinates above 2^500
    would overflow the squares, so then all are first scaled by one exact
    power of two, set by the largest finite coordinate.  A row is tied when
    two points take its smallest squared distance; only ``_nearest``, for
    callers that read the index, settles those rows.

    For n = 1 and finite points, the points are sorted once.  A rounded
    (x - p)^2 does not increase as p nears x from either side, so the
    smallest value is at the neighbour of x on one side or the other, and
    any tie with it at the next point out: the two points on each side
    decide every row.  Otherwise a running minimum over the points scans
    them all, in O(npts) memory.
    """
    top = max(np.abs(c[np.isfinite(c)]).max(initial=0.0) for c in (points, X))
    scale = 2.0 ** (500 - math.frexp(top)[1]) if 2.0 ** 500 < top else 1.0
    if X.shape[1] == 1 and points.size and np.isfinite(points).all():
        arg, best, tied = _nearest_line(points.reshape(-1) * scale, X[:, 0] * scale)
    else:
        arg, best, tied = _nearest_scan(points * scale, X * scale)
    return arg, np.sqrt(best) / scale, tied


def _nearest_scan(points: np.ndarray, X: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first index at the smallest squared distance, that distance, tied) per row of X."""
    best = np.full(X.shape[0], np.inf)
    arg = np.zeros(X.shape[0], dtype=np.int64)
    tied = np.zeros(X.shape[0], dtype=bool)
    for j, p in enumerate(points):
        d2 = cores.sq_norms(X - p)
        closer = d2 < best
        tied = ~closer & (tied | (d2 == best))
        best[closer] = d2[closer]
        arg[closer] = j
    return arg, best, tied


def _nearest_line(p: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_nearest_scan`` for finite points p (npts,) on a line and queries x (nq,).

    The candidates of a query are the two sorted points on each side of
    it; sentinels at +-inf fill the places beyond the ends, at squared
    distance inf.  A row is tied when two candidates take its smallest
    squared distance, as the scan finds, so also when that is inf.  Rows
    of x that are not finite get index 0 and distance inf.
    """
    order = np.argsort(p, kind="stable")
    line = np.concatenate(([-np.inf, -np.inf], p[order], [np.inf, np.inf]))
    finite = np.isfinite(x)
    if not finite.all():
        x = np.where(finite, x, 0.0)
    lo = np.searchsorted(line, x) - 2  # the first of a row's four candidates in line
    d2 = np.empty((4, x.size))
    for k in range(4):
        np.subtract(x, line[lo + k], out=d2[k])
    d2 *= d2
    best = d2.min(axis=0)
    at_best = d2 == best
    tied = at_best.sum(axis=0) > 1
    arg = order[np.clip(lo + at_best.argmax(axis=0) - 2, 0, p.size - 1)]
    arg[~finite] = 0
    best[~finite] = np.inf
    return arg, best, tied


@dataclass(frozen=True)
class FinitePointSet:
    points: Tuple[Tuple[float, ...], ...]

    def dist(self, pts: np.ndarray) -> np.ndarray:
        return _search(np.asarray(self.points, dtype=float), pts)[1]

    def ball_complement_measure(self, n: int, a, radius: float) -> float:
        # finitely many points are Lebesgue null
        return unit_ball_volume(n) * radius ** n


@dataclass(frozen=True)
class HalfSpace:
    """A = {x : x_axis <= value} (side="le") or {x : x_axis >= value}."""

    axis: int = 0
    value: float = 0.0
    side: str = "le"

    def signed(self, pts: np.ndarray) -> np.ndarray:
        s = pts[:, self.axis] - self.value
        return s if self.side == "le" else -s

    def dist(self, pts: np.ndarray) -> np.ndarray:
        return np.maximum(self.signed(pts), 0.0)

    def ball_complement_measure(self, n: int, a, radius: float) -> float:
        a = np.asarray(a, dtype=float).reshape(n)
        t = self.signed(a[None, :])[0]  # <= 0 for a in A
        if t >= radius:
            return unit_ball_volume(n) * radius ** n
        if t <= -radius:
            return 0.0
        if n == 1:
            return radius + t
        if n == 2:
            # circular segment beyond the hyperplane at signed distance -t
            d = -t
            return radius ** 2 * math.acos(d / radius) - d * math.sqrt(radius ** 2 - d ** 2)
        raise ValueError("half-space measures implemented for n <= 2")


ASet = Union[FinitePointSet, HalfSpace]


def make_point_set(points) -> FinitePointSet:
    arr = np.atleast_2d(np.asarray(points, dtype=float))
    return FinitePointSet(tuple(tuple(map(float, p)) for p in arr))


def h_function(A: ASet, pts: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, A.dist(pts)) / 20.0


@dataclass(frozen=True)
class JetField:
    """Finite family of polynomial jets P_a of common degree, one per point.

    The jets are also held stacked: ``centers`` (N, n), ``coeffs`` (N, S, d)
    over the S multi-indices of order <= degree, zero above each jet's own
    degree ``degrees`` (N,).  The gate and the extension read these arrays.
    Points, centers, coefficients and alpha must be finite.
    """

    points: Tuple[Tuple[float, ...], ...]
    jets: Tuple[PolyJet, ...]
    degree: int
    alpha: float
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.points) != len(self.jets):
            raise ValueError("one jet per point required")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("Hoelder exponent must lie in (0, 1]")
        n, d = self.n, self.d
        if any((P.n, P.target_dim) != (n, d) or len(p) != n
               for p, P in zip(self.points, self.jets)):
            raise ValueError("points and jets must share one dimension and target dimension")
        for P in self.jets:
            if P.degree_bound > self.degree:
                raise ValueError("jet degree exceeds the field degree bound")
        centers, coeffs, degrees = stack_jets(self.jets, n, d, self.degree)
        if not (np.isfinite(self.points).all() and np.isfinite(centers).all()
                and np.isfinite(coeffs).all()):
            raise ValueError("jet field points, centers and coefficients must be finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return self.jets[0].n if self.jets else 1

    @property
    def d(self) -> int:
        return self.jets[0].target_dim if self.jets else 1


def _pair_term(F: JetField, ia: int, ib: int, m: int) -> Tuple[float, float]:
    """(||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)!, |a-b|) of one pair, as one tensor."""
    k, b = F.degree, F.points[ib]
    dist = float(np.linalg.norm(np.subtract(F.points[ia], b)))
    Pa, Pb = F.jets[ia].recenter(b), F.jets[ib].recenter(b)
    norm, _ = opnorm_bounds(F.n, m, Pa.tensor(m) - Pb.tensor(m))
    # |a-b|^0 = 1 exactly, so the top order skips its power
    return norm * (math.pow(dist, m - k) if m < k else 1.0) * math.factorial(k - m), dist


def _gate(F: JetField, delta: float = math.inf) -> Tuple[float, float, Optional[tuple]]:
    """(rho, worst, worst_pair) over ordered pairs a, b with 0 < |a-b| <= delta.

    For m = 0..k, term = ||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)!;
    rho is the largest term and worst the largest term / |a-b|^alpha, first
    attained, in the order (a, b, m), at worst_pair = (a, b, m), or None
    when it is 0.  Pairs go through _GATE_BLOCK at a time.  The powers of
    |a-b| are libm pow per pair, so that terms are those of one pair at a
    time to the last bit.

    The arrays select the two maxima; their values are then those of the
    selected pair alone (``_pair_term``).  For n = 1 that changes no bit.
    For n = 2 a batched ``opnorms`` call refines a row for as long as any
    row of its block is unfinished, so a row's norm depends on its block;
    the returned values do not.
    """
    N, n, k = len(F.points), F.n, F.degree
    if k < 0:  # only zero jets: no pair has a defect
        return 0.0, 0.0, None
    pts = np.asarray(F.points, dtype=float).reshape(N, n)
    own = recenter_jets(F.coeffs, F.degrees, pts - F.centers)  # P_b at b
    rho, worst = 0.0, 0.0
    rho_at = worst_at = None  # (a, b, m)
    total = N * (N - 1)
    for start in range(0, total, _GATE_BLOCK):
        # the t-th ordered pair (a, b), a != b, in the order of itertools.permutations
        ia, j = np.divmod(np.arange(start, min(start + _GATE_BLOCK, total)), N - 1)
        ib = j + (j >= ia)
        dist = np.linalg.norm(pts[ia] - pts[ib], axis=1)
        close = (dist > 0.0) & (dist <= delta)
        ia, ib, dist = ia[close], ib[close], dist[close]
        if not ia.size:
            continue
        diff = recenter_jets(F.coeffs[ia], F.degrees[ia], pts[ib] - F.centers[ia]) - own[ib]
        norms = jet_opnorms(n, k, diff)
        terms = np.empty_like(norms)
        for m in range(k + 1):
            scale = np.array([math.pow(v, m - k) for v in dist.tolist()]) if m < k else 1.0
            terms[:, m] = norms[:, m] * scale * math.factorial(k - m)
        q = terms / np.array([math.pow(v, F.alpha) for v in dist.tolist()])[:, None]
        at = int(np.argmax(terms))
        if terms.flat[at] > rho:
            p, m = divmod(at, k + 1)
            rho, rho_at = float(terms.flat[at]), (int(ia[p]), int(ib[p]), m)
        at = int(np.argmax(q))
        if q.flat[at] > worst:
            p, m = divmod(at, k + 1)
            worst, worst_at = float(q.flat[at]), (int(ia[p]), int(ib[p]), m)
    if rho_at is not None:
        rho = _pair_term(F, *rho_at)[0]
    if worst_at is None:
        return rho, 0.0, None
    term, dist = _pair_term(F, *worst_at)
    a, b, m = worst_at
    return rho, term / math.pow(dist, F.alpha), (F.points[a], F.points[b], m)


def rho(F: JetField, delta: float) -> float:
    """sup ||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)! over close pairs.

    The supremum runs over ordered pairs a, b with 0 < |a-b| <= delta and
    m = 0..k; for a finite field this is an exact finite enumeration.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _gate(F, delta)[0]


class PartitionConstructionError(RuntimeError):
    pass


@dataclass
class WhitneyPartition:
    """Greedy maximal packing with normalized bump weights.

    Weights and their derivatives up to order 2 are evaluated for a batch
    of points at once, through the quotient rule D zeta = (D eta - zeta
    D S) / S with S = sum eta.  ``radii`` must be h at the centers: the
    search for active centers relies on h being 1/20-Lipschitz.
    """

    n: int
    A: ASet
    region: Ball
    centers: np.ndarray  # (N, n)
    radii: np.ndarray  # h(c)
    V: Dict[int, float]
    overlap_bound: int
    h_floor: float = 0.0

    def h(self, pts: np.ndarray) -> np.ndarray:
        return h_function(self.A, pts)

    @cached_property
    def _sorted(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order of the centers by coordinate 0, then c_0 - 10 h(c) and c_0 + 10 h(c) in it).

        The ends are widened by _SLAB_MARGIN.  Since h is 1/20-Lipschitz,
        c_0 -+ 10 h(c) increase with c_0 when n = 1.
        """
        order = np.argsort(self.centers[:, 0], kind="stable")
        c0, w = self.centers[order, 0], 10.0 * self.radii[order] * (1.0 + _SLAB_MARGIN)
        return order, c0 - w, c0 + w

    def active_pairs(self, X: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, centers) of the pairs with |X[row] - c| < 10 h(c), by row, then center; h at X.

        For n = 1 the candidates of x are the run of centers, sorted by
        coordinate, with c - 10 h(c) <= x <= c + 10 h(c) on the widened ends.
        Otherwise |x - c| < 10 h(c) <= 10 h(x) + |x - c| / 2 gives |x - c| <
        20 h(x), so the candidates of x are the centers in the slab |c_0 -
        x_0| < 20 h(x).  Either way the norm test then decides.  Points are
        taken in blocks of about _PAIR_BLOCK candidates, so memory stays
        bounded.
        """
        X = np.asarray(X, dtype=float).reshape(-1, self.n)
        order, lo_ends, hi_ends = self._sorted
        if self.n == 1:
            lo = np.searchsorted(hi_ends, X[:, 0], side="left")
            counts = np.maximum(np.searchsorted(lo_ends, X[:, 0], side="right") - lo, 0)
        else:
            c0 = self.centers[order, 0]
            w = 20.0 * h * (1.0 + _SLAB_MARGIN)
            lo = np.searchsorted(c0, X[:, 0] - w, side="left")
            counts = np.searchsorted(c0, X[:, 0] + w, side="right") - lo
        ends = np.cumsum(counts)
        out_rows, out_ci = [], []
        start = 0
        while start < X.shape[0]:
            done = ends[start] - counts[start]
            stop = max(start + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
            c = counts[start:stop]
            rows = np.repeat(np.arange(start, stop), c)
            # the k-th candidate of a row sits k places after its lo
            pos = np.arange(rows.size) + np.repeat(lo[start:stop] - (ends[start:stop] - c - done), c)
            ci = order[pos]
            keep = np.linalg.norm(X[rows] - self.centers[ci], axis=1) < 10.0 * self.radii[ci]
            rows, ci = rows[keep], ci[keep]
            srt = np.lexsort((ci, rows))
            out_rows.append(rows[srt])
            out_ci.append(ci[srt])
            start = stop
        if not out_rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(out_rows), np.concatenate(out_ci)

    def weight_jets(self, X: np.ndarray, order: int, h: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, Dict[MultiIndex, np.ndarray]]:
        """(rows, centers, D): the active pairs of X (npts, n), with h at X, and D^xi zeta.

        D maps every multi-index xi of order <= ``order`` (<= 2) to the values
        of D^xi zeta_c(X[row]) over the pairs.  There is one ``core_eval``
        call per multi-index; the sums S, D_j S, D_jl S come per point from
        a sum over each point's run of pairs.  Points where S vanishes get
        zero weights.
        """
        if order > 2:
            raise ValueError("partition weights expose derivatives up to order 2")
        X = np.asarray(X, dtype=float).reshape(-1, self.n)
        rows, ci = self.active_pairs(X, h)
        used, at = np.unique(ci, return_inverse=True)
        s = 10.0 * self.radii[used]
        u = (X[rows] - self.centers[ci]) / s[at, None]
        counts = np.bincount(rows, minlength=X.shape[0])
        starts = np.cumsum(counts) - counts
        runs = []  # (points, their pair positions) per number of active pairs
        for size in np.unique(counts[counts > 0]):
            pts = np.nonzero(counts == size)[0]
            runs.append((pts, starts[pts, None] + np.arange(size)))

        def eta(xi: MultiIndex) -> np.ndarray:
            # (10 h(c))^-m by libm pow per center: numpy's vectorized power
            # can differ from it in the last bit, and tables carry 17 digits
            power = -xi.order
            scale = np.array([math.pow(v, power) for v in s.tolist()])
            return cores.core_eval(self.n, cores.BUMP, None, xi, u) * scale[at]

        def total(v: np.ndarray) -> np.ndarray:
            # numpy's (pairwise) sum of each point's run of pairs: the value
            # of summing that point alone, which a sequential bincount is not
            out = np.zeros(X.shape[0])
            for pts, run in runs:
                out[pts] = v[run].sum(axis=1)
            return out[rows]

        eta0 = eta(zero_index(self.n))
        S0 = total(eta0)
        covered = S0 > 0.0
        S0[~covered] = 1.0
        zeta0 = eta0 / S0
        D = {zero_index(self.n): zeta0}
        if order >= 1:
            units = [unit_index(self.n, j) for j in range(self.n)]
            eta1 = [eta(e) for e in units]
            S1 = [total(v) for v in eta1]
            zeta1 = [(eta1[j] - zeta0 * S1[j]) / S0 for j in range(self.n)]
            D.update(zip(units, zeta1))
        if order == 2:
            # D_jl zeta = (D_jl eta - D_j zeta D_l S - D_l zeta D_j S - zeta D_jl S) / S
            for xi in xi_set(self.n, 2):
                j, l = [a for a, e in enumerate(xi.entries) for _ in range(e)]
                eta2 = eta(xi)
                D[xi] = (eta2 - zeta1[j] * S1[l] - zeta1[l] * S1[j] - zeta0 * total(eta2)) / S0
        for v in D.values():
            v[~covered] = 0.0
        return rows, ci, D


def _candidate_grid(A: ASet, region: Ball, n: int, max_level: int) -> Tuple[np.ndarray, np.ndarray]:
    """(candidate centers, h at them) over the dyadic grid levels 1..max_level.

    A level of spacing s keeps the points with s/4 <= h <= 4s.  When 80 s <
    1, h = min(1, dist)/20 <= 4s needs dist <= 80 s, so on the line h is
    evaluated only at the axis points within 80 s (1 + _SLAB_MARGIN) of the
    points of A, or of the end of a half-line, whose inner side has h = 0.
    Each window's ends are rounded outward by one more ulp.
    """
    center = np.asarray(region[0], dtype=float).reshape(n)
    radius = float(region[1])
    if n == 1:
        ends = (np.asarray(A.points, dtype=float).reshape(-1) if isinstance(A, FinitePointSet)
                else np.array([A.value]))
    cands, hs = [np.zeros((0, n))], [np.zeros(0)]
    for level in range(1, max_level + 1):
        spacing = radius / 2 ** level
        axes = [np.arange(center[j] - radius, center[j] + radius + spacing / 2, spacing)
                for j in range(n)]
        if n == 1 and 80.0 * spacing < 1.0:
            reach = 80.0 * spacing * (1.0 + _SLAB_MARGIN)
            lo = np.searchsorted(axes[0], np.nextafter(ends - reach, -np.inf), side="left")
            hi = np.searchsorted(axes[0], np.nextafter(ends + reach, np.inf), side="right")
            # the axis points covered by some window [lo, hi)
            depth = np.cumsum(np.bincount(lo, minlength=axes[0].size + 1)
                              - np.bincount(hi, minlength=axes[0].size + 1))
            pts = axes[0][depth[:-1] > 0, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
        h = h_function(A, pts)
        # keep points whose scale this grid level actually resolves; every
        # h value above the floor lands in some dyadic band
        keep = (h >= spacing / 4.0) & (h <= spacing * 4.0)
        cands.append(pts[keep])
        hs.append(h[keep])
    return np.concatenate(cands), np.concatenate(hs)


def _pack(cand: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows of a greedy maximal packing: in order, keep t unless a kept c has |c - t| < h(c) + h(t).

    h is 1/20-Lipschitz, so |c - t| < h(c) + h(t) <= 2 h(t) + |c - t| / 20
    gives |c - t| < (40/19) h(t): the greedy tests t only against the kept
    centers in that slab of coordinate 0 (``_slab_pack``).  For n = 1 the
    rows come from sweeps (``_sweep_line``) instead, and are returned when
    ``_is_greedy`` finds that they are the slab loop's; otherwise the slab
    loop decides.
    """
    if cand.shape[1] == 1:
        swept = _sweep_line(cand[:, 0], h)
        if swept is not None and _is_greedy(cand[:, 0], h, *swept):
            return swept[0]
    return _slab_pack(cand, h)


def _slab_pack(cand: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``_pack`` by a sequential loop, with the kept rows held sorted by coordinate 0."""
    pts = cand.tolist()
    hs = h.tolist()
    keys: List[float] = []
    kept: List[int] = []

    def overlaps(c: int, t: int) -> bool:
        d2 = 0.0
        for a, b in zip(pts[c], pts[t]):
            d2 += (a - b) * (a - b)
        return math.sqrt(d2) < hs[c] + hs[t]

    for t, (x0, ht) in enumerate(zip(cand[:, 0].tolist(), hs)):
        w = 40.0 / 19.0 * ht * (1.0 + _SLAB_MARGIN)
        lo = bisect.bisect_left(keys, x0 - w)
        hi = bisect.bisect_right(keys, x0 + w, lo)
        if any(overlaps(c, t) for c in kept[lo:hi]):
            continue
        at = bisect.bisect_right(keys, x0, lo, hi)
        keys.insert(at, x0)
        kept.insert(at, t)
    return np.array(sorted(kept), dtype=np.int64)


def _overlaps(xc: np.ndarray, hc: np.ndarray, xt: np.ndarray, ht: np.ndarray) -> np.ndarray:
    """The packing's test sqrt(|c - t|^2) < h(c) + h(t) on the line, elementwise."""
    d = xc - xt
    return np.sqrt(d * d) < hc + ht


def _sweep_line(x: np.ndarray, h: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(kept rows, a witness row per row) for candidates x in order of descending h, on the line.

    Rows tied with the top h (the 1/20 clip plateau) go through the slab
    loop.  Sorted by coordinate, with equal coordinates standing for the
    first of them in order, h falls from a top to a valley on each side:
    on h = min(1, dist(x, A))/20 the valleys are the candidates nearest the
    points of A, and a valley belongs to the stretch on each side of it.  In
    a stretch the first candidate in order is kept, or the kept plateau
    rows; the rest are taken outward from there.  t beyond a kept c is
    taken before the candidates farther out, and kept unless it overlaps c:
    candidates nearer the top came before it, the farther ones after it,
    and those across a point of A are at least 20 (h(c) + h(t)) away.  So
    the next kept candidate out from c is its successor, the first one out
    that c does not overlap.  Since h is 1/20-Lipschitz, x + h and x - h
    increase with x, and one ``searchsorted`` on them finds every successor
    to within rounding; one step each way of the exact test fixes it.  Each
    side needs the successors only of the places from a stretch's top out.
    The chains of successors from the kept tops are then marked over all
    stretches at once, by jumps of 1, 2, 4, ... successors.  A valley is
    kept when the chains from both sides reach it.

    The witness of a row is the kept row next to it on the left, when that
    one comes earlier and overlaps it, and otherwise the one on its right.
    None when there is no candidate or a stretch has no kept top.
    """
    m = x.size
    if not m:
        return None
    q = m - int(np.searchsorted(h[::-1], h[0]))  # the rows tied with the top h
    top = _slab_pack(x[:q, None], h[:q])
    srt = np.argsort(x)
    xs = x[srt]
    head = np.concatenate(([True], xs[1:] != xs[:-1]))
    where = np.empty(m, dtype=np.int64)  # each row's place among the distinct coordinates
    where[srt] = np.cumsum(head) - 1
    srt = np.minimum.reduceat(srt, np.flatnonzero(head))  # the first row at each place
    xs, hs = x[srt], h[srt]
    M = xs.size
    at = np.arange(M)
    # stretches between valleys, where h stops falling and starts rising; a
    # flat step keeps the direction before it
    fall = np.sign(np.diff(hs))
    fall = fall[np.maximum.accumulate(np.where(fall != 0, at[:-1], 0))]
    valley = np.zeros(M, dtype=bool)
    valley[1:-1] = (fall[:-1] < 0) & (fall[1:] > 0)
    stretch = np.cumsum(valley)  # a valley starts the stretch on its right
    starts = np.concatenate(([0], np.flatnonzero(valley)))
    stops = np.concatenate((starts[1:], [M - 1]))
    kept = np.zeros(M, dtype=bool)
    kept[where[top]] = True
    first = np.minimum.reduceat(srt, starts)  # the first row in order of each stretch
    kept[where[first[first >= q]]] = True
    marks = np.flatnonzero(kept)
    if not marks.size:
        return None
    left = marks[np.minimum(np.searchsorted(marks, starts), marks.size - 1)]
    right = marks[np.maximum(np.searchsorted(marks, stops, side="right") - 1, 0)]
    if np.any((left < starts) | (left > stops) | (right < starts) | (right > stops)):
        return None
    reached = []
    sides = ((xs + hs, "right", -1, stretch, starts, left),
             (xs - hs, "left", 1, stretch - valley, stops, right))
    for ends, side, step, own, bounds, seeds in sides:
        # the successor on this side of each place from its stretch's seed
        # outward, or the place itself at the end of its run
        sub = np.flatnonzero(at * step >= seeds[own] * step)
        limit = bounds[own[sub]]
        xq, hq = xs[sub], hs[sub]
        j = np.searchsorted(np.maximum.accumulate(ends), xq + step * hq, side=side)
        j = np.clip(j - 1 if step < 0 else j, 0, M - 1)
        j = np.where(_overlaps(xs[j], hs[j], xq, hq), np.clip(j + step, 0, M - 1), j)
        nearer = np.clip(j - step, 0, M - 1)
        j = np.where((nearer * step > sub * step) & ~_overlaps(xs[nearer], hs[nearer], xq, hq),
                     nearer, j)
        jump = at.copy()
        jump[sub] = np.where((j * step > sub * step) & (j * step <= limit * step)
                             & ~_overlaps(xs[j], hs[j], xq, hq), j, sub)
        on = np.zeros(M, dtype=bool)
        on[seeds] = True
        while True:
            new = jump[on]
            if on[new].all():
                break
            on[new] = True
            jump = jump[jump]
        reached.append(on)
    kept |= np.where(valley, reached[0] & reached[1], reached[0] | reached[1])
    # the kept places at or before, and at or after, each place (the ends
    # of the line when there is none)
    before = np.maximum.accumulate(np.where(kept, at, 0))
    after = np.minimum.accumulate(np.where(kept, at, M - 1)[::-1])[::-1]
    use = kept[before] & (srt[before] < srt) & _overlaps(xs[before], hs[before], xs, hs)
    witness = srt[np.where(use, before, after)]
    return np.sort(srt[kept]), witness[where]


def _is_greedy(x: np.ndarray, h: np.ndarray, kept: np.ndarray, witness: np.ndarray) -> bool:
    """Whether kept (sorted rows) is ``_slab_pack``'s packing of candidates x in order, on the line.

    It is exactly when, with t's slab the kept centers within (40/19) h(t)
    of t as ``_slab_pack`` bounds it: no kept t overlaps an earlier kept
    row in its slab, and every other t overlaps an earlier kept row in its
    slab.  The first is tested for each kept row against every kept row in
    its slab, the second for each other row t against witness[t].
    """
    is_kept = np.zeros(x.size, dtype=bool)
    is_kept[kept] = True
    w = 40.0 / 19.0 * h * (1.0 + _SLAB_MARGIN)
    xc = x[witness]
    if not np.all(is_kept | (is_kept[witness] & (witness < np.arange(x.size)) & (xc >= x - w)
                             & (xc <= x + w) & _overlaps(xc, h[witness], x, h))):
        return False
    ks = kept[np.argsort(x[kept])]  # kept rows by coordinate
    xk = x[ks]
    i = np.arange(ks.size)
    first = np.searchsorted(xk, xk - w[ks], side="left")
    stop = np.searchsorted(xk, xk + w[ks], side="right")
    for k in range(1, int(max((stop - i).max(initial=0), (i - first + 1).max(initial=0)))):
        for j in (i + k, i - k):
            inside = (j >= first) & (j < stop)
            t, c = ks[i[inside]], ks[j[inside]]
            if np.any((c < t) & _overlaps(x[c], h[c], x[t], h[t])):
                return False
    return True


def _finite_ball(region: Ball) -> Tuple[np.ndarray, float]:
    """(center, radius) of a ball of positive radius and finite extent."""
    center, radius = np.asarray(region[0], dtype=float).reshape(-1), float(region[1])
    with np.errstate(over="ignore"):
        ends = np.concatenate([center - radius, center + radius])
    if not (radius > 0.0 and np.isfinite(ends).all()):
        raise PartitionConstructionError(f"the region must be a finite ball, not radius "
                                         f"{radius!r} around {center.tolist()}")
    return center, radius


def partition_of_unity(A: ASet, region: Ball, max_level: Optional[int] = None,
                       probe_count: int = 1000, seed: int = 0) -> WhitneyPartition:
    """Packing-based partition subordinate to {B(c, 10h(c))} on region minus A.

    Verifies, on a random probe set, the normalization sum, the support
    containment, h(x) >= h(c)/3 on each support, and measures V_m for
    m <= 2 and the overlap bound.  A check with no probe above the floor
    fails, so the grid is refined rather than certified vacuously.
    """
    center, radius = _finite_ball(region)
    n = center.size
    levels = max_level if max_level is not None else (14 if n == 1 else 9)
    for attempt in range(2):
        lv = levels + attempt * 2
        size = (2 ** (lv + 1) + 1) ** n
        if size > _GRID_POINTS:  # checked before the grid is built
            raise PartitionConstructionError(f"the level-{lv} candidate grid in {n} dimensions "
                                             f"has {size} points, above {_GRID_POINTS}")
        cand, h = _candidate_grid(A, region, n, lv)
        if cand.shape[0] == 0:
            raise PartitionConstructionError("no candidate centers off A in the region")
        order = np.argsort(-h)
        cand, h = cand[order], h[order]
        chosen = _pack(cand, h)
        part = WhitneyPartition(n, A, (tuple(center), radius),
                                cand[chosen], h[chosen], {}, 0)
        # probes with h below the finest resolved scale fall in the collar
        # around A that the grid cannot cover; they are excluded from checks
        floor = 2.0 * radius / 2 ** lv
        ok, V, overlap = _verify_partition(part, probe_count, seed, floor)
        if ok:
            part.V = V
            part.overlap_bound = overlap
            part.h_floor = floor
            return part
    raise PartitionConstructionError("partition normalization failed after refinement")


def _verify_partition(part: WhitneyPartition, probe_count: int, seed: int,
                      floor: float) -> Tuple[bool, Dict[int, float], int]:
    rng = np.random.default_rng(seed)
    center = np.asarray(part.region[0])
    radius = part.region[1]
    pts = rng.uniform(center - 0.9 * radius, center + 0.9 * radius,
                      size=(probe_count, part.n))
    h = part.h(pts)
    V = {0: 1.0, 1: 0.0, 2: 0.0}
    pts, h = pts[h > floor], h[h > floor]
    if pts.shape[0] == 0:
        return False, V, 0
    rows, ci, D = part.weight_jets(pts, 2, h)
    z = D[zero_index(part.n)]
    total = np.bincount(rows, weights=z, minlength=pts.shape[0])
    if np.any(np.abs(total - 1.0) > 1e-10):
        return False, V, 0
    pos = z > 0
    overlap = int(np.bincount(rows[pos], minlength=pts.shape[0]).max())
    r, c = rows[pos], ci[pos]
    if np.any(np.linalg.norm(pts[r] - part.centers[c], axis=1) > 10 * part.radii[c]):
        return False, V, overlap
    if np.any(h[r] < part.radii[c] / 3.0):
        return False, V, overlap
    hx = h[rows]
    for m in (1, 2):
        for xi in xi_set(part.n, m):
            V[m] = max(V[m], float(np.max(np.abs(D[xi]) * hx ** m, initial=0.0)))
    return True, V, overlap


@dataclass(frozen=True)
class LocalizationRow:
    probe: str
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class LocalizationReport:
    gamma: float
    delta: float
    measure: float
    rows: Tuple[LocalizationRow, ...]
    max_ratio: float


def localization_check(T: Distribution, A: ASet, a, r: float, i: int,
                       lam: float, kappa: float, probes: ProbeDictionary,
                       partition: Optional[WhitneyPartition] = None,
                       config: QuadratureConfig = QuadratureConfig()) -> LocalizationReport:
    """max |T(phi)| / (Gamma kappa r^{lambda+i} L^n(B(a,3r) minus A) nu^i(phi)).

    kappa must be an analytically certified constant for the local
    smallness hypothesis; probes are rescaled into B(a, r).
    """
    a = np.asarray(a, dtype=float).reshape(T.n)
    if partition is None:
        partition = partition_of_unity(A, (tuple(a), 3.0 * r))
    V = partition.V
    delta = sum(math.comb(i, m) * V.get(m, 0.0) * 3 ** m for m in range(0, i + 1))
    gamma = delta * 30.0 ** (T.n + i) * 3.0 ** lam / unit_ball_volume(T.n)
    measure = A.ball_complement_measure(T.n, a, 3.0 * r)
    rows = []
    max_ratio = 0.0
    results = pair_many([(T, member.rescale(a, r)) for member in probes.members], config)
    for member, res in zip(probes.members, results):
        lhs = abs(res.value)
        rhs = gamma * kappa * r ** (lam + i) * measure * r ** (-i)
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        rows.append(LocalizationRow(member.label, lhs, rhs, ratio))
        max_ratio = max(max_ratio, ratio)
    return LocalizationReport(gamma, delta, measure, tuple(rows), max_ratio)


class WhitneyGateError(ValueError):
    """The jet field is not (k, alpha)-compatible; carries the worst pair."""

    def __init__(self, message: str, worst_pair):
        super().__init__(message)
        self.worst_pair = worst_pair


@dataclass
class WhitneyExtension:
    """g = sum_c zeta_c P_{xi(c)} off A, g = P_a on A; derivatives to order 2."""

    field: JetField
    partition: WhitneyPartition
    nearest: np.ndarray  # index into field.points per center
    kappa_F: float

    def eval(self, x, xi: Union[None, MultiIndex, Sequence[MultiIndex]] = None) -> np.ndarray:
        """D^xi g at a point (n,) or a batch (npts, n); returns (d,) or (npts, d).

        With xi a sequence of M multi-indices: (M, d) or (npts, M, d), each
        column that of its xi alone, from one search and one set of weights.
        Rows within ``_DATA_ATOL`` of a data point take the nearest jet.  So do
        rows in the collar around A below the grid resolution, where the
        packing has no coverage: the nearest jet is the limit value there.
        """
        n = self.field.n
        x = np.asarray(x, dtype=float)
        X = x.reshape(1, n) if x.ndim <= 1 else x.reshape(x.shape[0], n)
        one = xi is None or isinstance(xi, MultiIndex)
        xis = [xi if xi is not None else zero_index(n)] if one else list(xi)
        out = np.zeros((X.shape[0], len(xis), self.field.d))
        if self.field.points:
            nearest, dist = _nearest(np.asarray(self.field.points, dtype=float), X)
            rows, ci, D = self.partition.weight_jets(X, max((e.order for e in xis), default=0),
                                                     np.minimum(1.0, dist) / 20.0)  # h at X
            covered = np.bincount(rows, weights=D[zero_index(n)], minlength=X.shape[0]) > 0.0
            own = (dist <= _DATA_ATOL) | ~covered
            off = ~own[rows]
            for col, xi in zip(out.transpose(1, 0, 2), xis):
                col[own] = self._jets_at(nearest[own], X[own], xi)
                # sum_{eta <= xi} C(xi, eta) D^eta zeta_c D^{xi - eta} P_{xi(c)}, accumulated
                # per row in (eta, c) order
                where, terms = [], []
                for eta in (e for m in range(xi.order + 1) for e in xi_set(n, m)
                            if xi.dominates(e)):
                    sel = off & (D[eta] != 0.0)
                    where.append(rows[sel])
                    vals = self._jets_at(self.nearest[ci[sel]], X[rows[sel]], xi - eta)
                    binom = math.prod(map(math.comb, xi.entries, eta.entries))
                    terms.append(binom * D[eta][sel][:, None] * vals)
                np.add.at(col, np.concatenate(where), np.concatenate(terms))
        out = out[:, 0] if one else out
        return out[0] if x.ndim <= 1 else out

    def _jets_at(self, which: np.ndarray, X: np.ndarray, xi: MultiIndex) -> np.ndarray:
        """D^xi P_which[p] at X[p] for each row p, from the field's stacked jets."""
        F = self.field
        return eval_jets(F.coeffs[which], F.degrees[which], F.centers[which], X, xi)


def extend(F: JetField, region: Optional[Ball] = None,
           kappa_F: Optional[float] = None,
           max_level: Optional[int] = None) -> WhitneyExtension:
    """Whitney extension of a finite jet field at class (degree, alpha).

    The compatibility gate requires the pairwise jet defects to satisfy
    the Hoelder bound rho <= kappa_F * delta^alpha on the data; with
    kappa_F omitted, the smallest admissible constant is recorded.  A given
    kappa_F must be finite and positive: the gate test is False for nan
    and inf, which would accept every field.
    """
    if kappa_F is not None and not 0.0 < kappa_F < math.inf:
        raise ValueError(f"the gate constant kappa_F must be finite and positive, "
                         f"not {kappa_F!r}")
    n = F.n
    if F.points:
        if region is None:
            arr = np.asarray(F.points, dtype=float)
            with np.errstate(over="ignore"):  # an overflow is refused just below
                center = (arr.min(axis=0) + arr.max(axis=0)) / 2.0
                radius = float(np.max(np.linalg.norm(arr - center[None, :], axis=1))) + 1.0
            region = (tuple(center), radius)
        _finite_ball(region)  # before the gate, whose distances would overflow too
    _, worst, worst_pair = _gate(F)
    if kappa_F is not None and worst > kappa_F * (1 + 1e-9):
        raise WhitneyGateError(
            f"field violates the (k, alpha) gate: defect {worst:.6g} > {kappa_F:.6g}",
            worst_pair)
    kf = kappa_F if kappa_F is not None else worst
    if not F.points:
        A = FinitePointSet(())
        region = region or ((0.0,) * n, 1.0)
        part = WhitneyPartition(n, A, (tuple(np.asarray(region[0], float)), float(region[1])),
                                np.zeros((0, n)), np.zeros(0), {0: 1.0, 1: 0.0, 2: 0.0}, 0)
        return WhitneyExtension(F, part, np.zeros(0, dtype=int), kf)
    A = make_point_set(F.points)
    part = partition_of_unity(A, region, max_level=max_level)
    nearest, _ = _nearest(np.asarray(F.points, dtype=float), part.centers)
    return WhitneyExtension(F, part, nearest, kf)


def empirical_hoelder(ext: WhitneyExtension, pair_count: int = 10 ** 4,
                      seed: int = 0) -> Tuple[float, float]:
    """(seminorm, C_impl): max ||D^k g(x) - D^k g(y)|| / |x-y|^alpha over pairs.

    Pairs are sampled in the partition region at ten dyadic separations,
    all drawn first and evaluated _HOELDER_BLOCK points per ``eval`` call;
    C_impl is the seminorm relative to the field's gate constant.
    """
    F = ext.field
    rng = np.random.default_rng(seed)
    center = np.asarray(ext.partition.region[0])
    radius = ext.partition.region[1]
    top = xi_set(F.n, F.degree)
    batch = max(1, pair_count // 10)
    seps = [radius * 2.0 ** (-scale_pow - 3) for scale_pow in range(10)]
    pairs = []
    for sep in seps:
        xs = rng.uniform(center - 0.6 * radius, center + 0.6 * radius,
                         size=(batch, F.n))
        dirs = rng.normal(size=(batch, F.n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        pairs += [xs, xs + sep * dirs]
    pts = np.concatenate(pairs)
    g = np.concatenate([ext.eval(pts[i:i + _HOELDER_BLOCK], top)
                        for i in range(0, len(pts), _HOELDER_BLOCK)])
    g = g.reshape(10, 2, batch, len(top), F.d)
    # per scale and xi, the largest max_j |D^xi g_j(x) - D^xi g_j(y)| over the pairs
    num = np.abs(g[:, 0] - g[:, 1]).max(axis=(1, 3)).tolist()
    best = max([0.0] + [v / sep ** F.alpha for sep, row in zip(seps, num) for v in row])
    c_impl = best / ext.kappa_F if ext.kappa_F > 0 else 0.0
    return best, c_impl
