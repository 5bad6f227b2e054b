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
``WhitneyExtension.eval`` takes a point (n,) and returns (d,), or a batch
(npts, n) and returns (npts, d), as ``PolyJet.eval`` does.  The active
(point, center) pairs, |x - c| < 10 h(c), are found without a dense
(points x centers) table: h is 1/20-Lipschitz, so an active pair has
|x - c| < 20 h(x), and the candidates are the centers in that slab of
coordinate 0.  There is then one ``core_eval`` call per derivative of eta
over all pairs, and the jets' derivatives at the rows are read from the
stacked arrays in one pass.  The greedy packing uses the same bound with
(40/19) h(t).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
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


def _nearest(points: np.ndarray, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(index of a nearest row of points, distance to it) for each row of X.

    A running minimum of squared distances over the rows of points, then
    one sqrt: the same distances as the minimum of the norms, in O(npts)
    memory.  With no points the distance is inf.
    """
    best = np.full(X.shape[0], np.inf)
    arg = np.zeros(X.shape[0], dtype=np.int64)
    for j, p in enumerate(points):
        d2 = np.sum((X - p) ** 2, axis=1)
        closer = d2 < best
        best[closer] = d2[closer]
        arg[closer] = j
    return arg, np.sqrt(best)


@dataclass(frozen=True)
class FinitePointSet:
    points: Tuple[Tuple[float, ...], ...]

    def dist(self, pts: np.ndarray) -> np.ndarray:
        return _nearest(np.asarray(self.points, dtype=float), pts)[1]

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
    norm, _ = opnorm_bounds(F.jets[ia].recenter(b).tensor(m) - F.jets[ib].recenter(b).tensor(m))
    # |a-b|^0 = 1 exactly, so the top order skips its power
    return norm * (math.pow(dist, m - k) if m < k else 1.0) * math.factorial(k - m), dist


def _gate(F: JetField, delta: float = math.inf) -> Tuple[float, float, Optional[tuple]]:
    """(rho, worst, worst_pair) over ordered pairs a, b with 0 < |a-b| <= delta.

    For m = 0..k, term = ||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)!;
    rho is the largest term and worst the largest term / |a-b|^alpha, first
    attained, in the order (a, b, m), at worst_pair = (a, b, m), or None
    when it is 0.  Pairs go through _GATE_BLOCK at a time: P_a is recentered
    at b for all of them at once, and each order m is one ``opnorms`` call.
    The powers of |a-b| are libm pow per pair, so that terms are those of
    one pair at a time to the last bit.

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

    def active_pairs(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, centers) of the pairs with |X[row] - c| < 10 h(c), sorted by row, then center.

        |x - c| < 10 h(c) <= 10 h(x) + |x - c| / 2 gives |x - c| < 20 h(x), so
        the candidates of x are the centers in the slab |c_0 - x_0| < 20 h(x)
        of the centers sorted by coordinate 0.  Points are taken in blocks
        of about _PAIR_BLOCK candidates, so memory stays bounded.
        """
        X = np.asarray(X, dtype=float).reshape(-1, self.n)
        order = np.argsort(self.centers[:, 0], kind="stable")
        c0 = self.centers[order, 0]
        w = 20.0 * self.h(X) * (1.0 + _SLAB_MARGIN)
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

    def weight_jets(self, X: np.ndarray, order: int
                    ) -> Tuple[np.ndarray, np.ndarray, Dict[MultiIndex, np.ndarray]]:
        """(rows, centers, D): the active pairs of X (npts, n) and D^xi zeta on them.

        D maps every multi-index xi of order <= ``order`` (<= 2) to the values
        of D^xi zeta_c(X[row]) over the pairs.  There is one ``core_eval``
        call per multi-index; the sums S, D_j S, D_jl S come per point from
        a sum over each point's run of pairs.  Points where S vanishes get
        zero weights.
        """
        if order > 2:
            raise ValueError("partition weights expose derivatives up to order 2")
        X = np.asarray(X, dtype=float).reshape(-1, self.n)
        rows, ci = self.active_pairs(X)
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
            scale = np.array([math.pow(v, -xi.order) for v in s.tolist()])
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

    def weights(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """(active center indices, zeta values) at a single point."""
        return self.weight_deriv(x, zero_index(self.n))

    def weight_deriv(self, x, xi: MultiIndex) -> Tuple[np.ndarray, np.ndarray]:
        """(active indices, D^xi zeta values) at a single point; |xi| <= 2."""
        _, idx, D = self.weight_jets(np.asarray(x, dtype=float).reshape(1, self.n), xi.order)
        return idx, D[xi]


def _candidate_grid(A: ASet, region: Ball, n: int, max_level: int) -> np.ndarray:
    center = np.asarray(region[0], dtype=float).reshape(n)
    radius = float(region[1])
    cands = []
    for level in range(1, max_level + 1):
        spacing = radius / 2 ** level
        axes = [np.arange(center[j] - radius, center[j] + radius + spacing / 2, spacing)
                for j in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        h = h_function(A, pts)
        # keep points whose scale this grid level actually resolves; every
        # h value above the floor lands in some dyadic band
        keep = (h >= spacing / 4.0) & (h <= spacing * 4.0)
        cands.append(pts[keep])
    return np.concatenate(cands, axis=0) if cands else np.zeros((0, n))


def _pack(cand: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Rows of a greedy maximal packing: in order, keep t unless a kept c has |c - t| < h(c) + h(t).

    h is 1/20-Lipschitz, so |c - t| < h(c) + h(t) <= 2 h(t) + |c - t| / 20
    gives |c - t| < (40/19) h(t): only kept centers in that slab of
    coordinate 0 are tested.  The kept rows are held sorted by coordinate 0.
    """
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


def partition_of_unity(A: ASet, region: Ball, max_level: Optional[int] = None,
                       probe_count: int = 1000, seed: int = 0) -> WhitneyPartition:
    """Packing-based partition subordinate to {B(c, 10h(c))} on region minus A.

    Verifies, on a random probe set, the normalization sum, the support
    containment, h(x) >= h(c)/3 on each support, and measures V_m for
    m <= 2 and the overlap bound.  A check with no probe above the floor
    fails, so the grid is refined rather than certified vacuously.
    """
    center = np.asarray(region[0], dtype=float).reshape(-1)
    n = center.size
    radius = float(region[1])
    levels = max_level if max_level is not None else (14 if n == 1 else 9)
    for attempt in range(2):
        lv = levels + attempt * 2
        cand = _candidate_grid(A, region, n, lv)
        if cand.shape[0] == 0:
            raise PartitionConstructionError("no candidate centers off A in the region")
        h = h_function(A, cand)
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
    rows, ci, D = part.weight_jets(pts, 2)
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


def _multi_binom(xi: MultiIndex, eta: MultiIndex) -> int:
    out = 1
    for a, b in zip(xi.entries, eta.entries):
        out *= math.comb(a, b)
    return out


@dataclass
class WhitneyExtension:
    """g = sum_c zeta_c P_{xi(c)} off A, g = P_a on A; derivatives to order 2."""

    field: JetField
    partition: WhitneyPartition
    nearest: np.ndarray  # index into field.points per center
    kappa_F: float
    atol: float = 1e-12

    def eval(self, x, xi: Optional[MultiIndex] = None) -> np.ndarray:
        """D^xi g at a point (n,) or a batch (npts, n); returns (d,) or (npts, d).

        Rows within ``atol`` of a data point take the nearest jet.  So do
        rows in the collar around A below the grid resolution, where the
        packing has no coverage: the nearest jet is the limit value there.
        """
        n = self.field.n
        x = np.asarray(x, dtype=float)
        X = x.reshape(1, n) if x.ndim <= 1 else x.reshape(x.shape[0], n)
        xi = xi if xi is not None else zero_index(n)
        out = np.zeros((X.shape[0], self.field.d))
        if self.field.points:
            nearest, dist = _nearest(np.asarray(self.field.points, dtype=float), X)
            rows, ci, D = self.partition.weight_jets(X, xi.order)
            covered = np.bincount(rows, weights=D[zero_index(n)], minlength=X.shape[0]) > 0.0
            own = (dist <= self.atol) | ~covered
            out[own] = self._jets_at(nearest[own], X[own], xi)
            # sum_{eta <= xi} C(xi, eta) D^eta zeta_c D^{xi - eta} P_{xi(c)}, accumulated
            # per row in (eta, c) order
            off = ~own[rows]
            where, terms = [], []
            for eta in (e for m in range(xi.order + 1) for e in xi_set(n, m)):
                if not xi.dominates(eta):
                    continue
                w = D[eta]
                sel = off & (w != 0.0)
                r = rows[sel]
                vals = self._jets_at(self.nearest[ci[sel]], X[r], xi - eta)
                where.append(r)
                terms.append(_multi_binom(xi, eta) * w[sel][:, None] * vals)
            np.add.at(out, np.concatenate(where), np.concatenate(terms))
        return out[0] if x.ndim <= 1 else out

    def _jets_at(self, which: np.ndarray, X: np.ndarray, xi: MultiIndex) -> np.ndarray:
        """D^xi P_which[p] at X[p] for each row p, from the field's stacked jets."""
        F = self.field
        return eval_jets(F.coeffs[which], F.degrees[which], F.centers[which], X, xi)

    def __call__(self, x) -> np.ndarray:
        return self.eval(x)


def extend(F: JetField, region: Optional[Ball] = None,
           kappa_F: Optional[float] = None,
           max_level: Optional[int] = None) -> WhitneyExtension:
    """Whitney extension of a finite jet field at class (degree, alpha).

    The compatibility gate requires the pairwise jet defects to satisfy
    the Hoelder bound rho <= kappa_F * delta^alpha on the data; with
    kappa_F omitted, the smallest admissible constant is recorded.
    """
    n = F.n
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
    if region is None:
        arr = np.asarray(F.points, dtype=float)
        center = (arr.min(axis=0) + arr.max(axis=0)) / 2.0
        radius = float(np.max(np.linalg.norm(arr - center[None, :], axis=1))) + 1.0
        region = (tuple(center), radius)
    part = partition_of_unity(A, region, max_level=max_level)
    nearest, _ = _nearest(np.asarray(F.points, dtype=float), part.centers)
    return WhitneyExtension(F, part, nearest, kf)


def empirical_hoelder(ext: WhitneyExtension, pair_count: int = 10 ** 4,
                      seed: int = 0) -> Tuple[float, float]:
    """(seminorm, C_impl): max ||D^k g(x) - D^k g(y)|| / |x-y|^alpha over pairs.

    Pairs are sampled in the partition region at dyadic separations;
    C_impl is the seminorm relative to the field's gate constant.
    """
    F = ext.field
    k = F.degree
    rng = np.random.default_rng(seed)
    center = np.asarray(ext.partition.region[0])
    radius = ext.partition.region[1]
    top = xi_set(F.n, k)
    best = 0.0
    batch = max(1, pair_count // 10)
    for scale_pow in range(10):
        sep = radius * 2.0 ** (-scale_pow - 3)
        xs = rng.uniform(center - 0.6 * radius, center + 0.6 * radius,
                         size=(batch, F.n))
        dirs = rng.normal(size=(batch, F.n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        ys = xs + sep * dirs
        for xi in top:
            g = ext.eval(np.concatenate([xs, ys]), xi)
            num = np.max(np.abs(g[:batch] - g[batch:]), axis=1)
            best = max(best, float(np.max(num)) / sep ** F.alpha)
    c_impl = best / ext.kappa_F if ext.kappa_F > 0 else 0.0
    return best, c_impl
