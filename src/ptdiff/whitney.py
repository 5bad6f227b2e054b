"""Jet-consistency functional, Whitney partition, localization bound, extension.

The closed set A is either a finite point set or a coordinate half-space.
All constructions follow the classical scheme: h(x) = (1/20) min(1,
dist(x, A)), a greedy maximal packing of balls B(c, h(c)) drawn from
multi-resolution grids, weights zeta_c = eta_c / sum eta normalized over
the packing, and the extension g = sum_c zeta_c P_{xi(c)} off A with
xi(c) a nearest point of A.  Derivative bounds V_m are measured on probe
grids rather than derived a priori; they feed the localization constant
Gamma = Delta 30^{n+i} 3^lambda / alpha(n) with Delta = sum_m C(i,m) V_m 3^m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import cores
from .distribution import Distribution, pair
from .poincare import unit_ball_volume
from .quadrature import QuadratureConfig
from .tensor import MultiIndex, PolyJet, opnorm_bounds, unit_index, xi_set, zero_index
from .testfn import ProbeDictionary

Ball = Tuple[Sequence[float], float]


@dataclass(frozen=True)
class FinitePointSet:
    points: Tuple[Tuple[float, ...], ...]

    def dist(self, pts: np.ndarray) -> np.ndarray:
        if not self.points:
            return np.full(pts.shape[0], np.inf)
        arr = np.asarray(self.points, dtype=float)
        return np.min(np.linalg.norm(pts[:, None, :] - arr[None, :, :], axis=2), axis=1)

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
    """Finite family of polynomial jets P_a of common degree, one per point."""

    points: Tuple[Tuple[float, ...], ...]
    jets: Tuple[PolyJet, ...]
    degree: int
    alpha: float

    def __post_init__(self):
        if len(self.points) != len(self.jets):
            raise ValueError("one jet per point required")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("Hoelder exponent must lie in (0, 1]")
        for P in self.jets:
            if P.degree_bound > self.degree:
                raise ValueError("jet degree exceeds the field degree bound")

    @property
    def n(self) -> int:
        return self.jets[0].n if self.jets else 1

    @property
    def d(self) -> int:
        return self.jets[0].target_dim if self.jets else 1


def _pair_terms(F: JetField, delta: float = math.inf):
    """(a, b, m, |a-b|, term) over ordered pairs with 0 < |a-b| <= delta, m = 0..k.

    term = ||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)!.
    """
    k = F.degree
    pts = [np.asarray(p, dtype=float) for p in F.points]
    for ia, ib in itertools.permutations(range(len(pts)), 2):
        d = float(np.linalg.norm(pts[ia] - pts[ib]))
        if d == 0.0 or d > delta:
            continue
        Pa = F.jets[ia].recenter(pts[ib])
        Pb = F.jets[ib].recenter(pts[ib])
        for m in range(0, k + 1):
            norm, _ = opnorm_bounds(Pa.tensor(m) - Pb.tensor(m))
            yield ia, ib, m, d, norm * d ** (m - k) * math.factorial(k - m)


def rho(F: JetField, delta: float) -> float:
    """sup ||D^m P_a(b) - D^m P_b(b)|| |a-b|^{m-k} (k-m)! over close pairs.

    The supremum runs over ordered pairs a, b with 0 < |a-b| <= delta and
    m = 0..k; for a finite field this is an exact finite enumeration.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return max((term for *_, term in _pair_terms(F, delta)), default=0.0)


class PartitionConstructionError(RuntimeError):
    pass


@dataclass
class WhitneyPartition:
    """Greedy maximal packing with normalized bump weights.

    Weight evaluation supports derivatives up to order 2 through the
    quotient rule D zeta = (D eta - zeta D S) / S with S = sum eta.
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

    def active(self, x: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(self.centers - x[None, :], axis=1)
        return np.nonzero(d < 10.0 * self.radii)[0]

    def _eta(self, x: np.ndarray, idx: np.ndarray, xi: MultiIndex) -> np.ndarray:
        """D^xi eta_c(x) for the selected centers."""
        out = np.zeros(len(idx))
        for row, ci in enumerate(idx):
            s = 10.0 * self.radii[ci]
            u = (x - self.centers[ci]) / s
            v = cores.core_eval(self.n, cores.BUMP, None, xi, u[None, :])[0]
            out[row] = v * s ** (-xi.order)
        return out

    def weights(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """(active center indices, zeta values) at a single point."""
        x = np.asarray(x, dtype=float).reshape(self.n)
        idx = self.active(x)
        if idx.size == 0:
            return idx, np.zeros(0)
        eta = self._eta(x, idx, zero_index(self.n))
        S = float(eta.sum())
        if S <= 0.0:
            return idx, np.zeros(idx.size)
        return idx, eta / S

    def weight_deriv(self, x, xi: MultiIndex) -> Tuple[np.ndarray, np.ndarray]:
        """(active indices, D^xi zeta values); |xi| <= 2."""
        if xi.order > 2:
            raise ValueError("partition weights expose derivatives up to order 2")
        x = np.asarray(x, dtype=float).reshape(self.n)
        idx = self.active(x)
        if idx.size == 0:
            return idx, np.zeros(0)
        eta0 = self._eta(x, idx, zero_index(self.n))
        S0 = float(eta0.sum())
        if S0 <= 0.0:
            return idx, np.zeros(idx.size)
        zeta0 = eta0 / S0
        if xi.order == 0:
            return idx, zeta0
        units = [unit_index(self.n, j) for j in range(self.n)]
        eta1 = {j: self._eta(x, idx, units[j]) for j in range(self.n)}
        S1 = {j: float(eta1[j].sum()) for j in range(self.n)}
        zeta1 = {j: (eta1[j] - zeta0 * S1[j]) / S0 for j in range(self.n)}
        if xi.order == 1:
            j = next(jj for jj, e in enumerate(xi.entries) if e)
            return idx, zeta1[j]
        # order 2: D_{jl} zeta = (D_{jl} eta - D_j zeta D_l S - D_l zeta D_j S
        #                         - zeta D_{jl} S) / S
        active_axes = [jj for jj, e in enumerate(xi.entries) for _ in range(e)]
        j, l = active_axes[0], active_axes[1]
        eta2 = self._eta(x, idx, xi)
        S2 = float(eta2.sum())
        val = (eta2 - zeta1[j] * S1[l] - zeta1[l] * S1[j] - zeta0 * S2) / S0
        return idx, val


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


def partition_of_unity(A: ASet, region: Ball, max_level: Optional[int] = None,
                       probe_count: int = 1000, seed: int = 0) -> WhitneyPartition:
    """Packing-based partition subordinate to {B(c, 10h(c))} on region minus A.

    Verifies, on a random probe set, the normalization sum, the support
    containment, h(x) >= h(c)/3 on each support, and measures V_m for
    m <= 2 and the overlap bound.
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
        chosen_pts = np.empty((0, n))
        chosen_h = np.empty(0)
        for t in range(cand.shape[0]):
            if chosen_pts.shape[0]:
                d = np.linalg.norm(chosen_pts - cand[t][None, :], axis=1)
                if np.any(d < chosen_h + h[t]):
                    continue
            chosen_pts = np.vstack([chosen_pts, cand[t][None, :]])
            chosen_h = np.append(chosen_h, h[t])
        part = WhitneyPartition(n, A, (tuple(center), radius),
                                chosen_pts, chosen_h, {}, 0)
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
    overlap = 0
    first_order = xi_set(part.n, 1)
    second_order = xi_set(part.n, 2)
    for t in range(pts.shape[0]):
        if h[t] <= floor:
            continue
        idx, z = part.weights(pts[t])
        if abs(z.sum() - 1.0) > 1e-10:
            return False, V, overlap
        overlap = max(overlap, int(np.count_nonzero(z > 0)))
        hx = float(h[t])
        for ci, zi in zip(idx, z):
            if zi > 0 and np.linalg.norm(pts[t] - part.centers[ci]) > 10 * part.radii[ci]:
                return False, V, overlap
            if zi > 0 and hx < part.radii[ci] / 3.0:
                return False, V, overlap
        for xi in first_order:
            _, dz = part.weight_deriv(pts[t], xi)
            V[1] = max(V[1], float(np.max(np.abs(dz), initial=0.0)) * hx)
        for xi in second_order:
            _, dz = part.weight_deriv(pts[t], xi)
            V[2] = max(V[2], float(np.max(np.abs(dz), initial=0.0)) * hx ** 2)
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
    for member in probes.members:
        phi = member.rescale(a, r)
        lhs = abs(pair(T, phi, config).value)
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
        n = self.field.n
        x = np.asarray(x, dtype=float).reshape(n)
        xi = xi if xi is not None else zero_index(n)
        pts = np.asarray(self.field.points, dtype=float)
        if len(self.field.points):
            dists = np.linalg.norm(pts - x[None, :], axis=1)
            nearest = int(np.argmin(dists))
            if dists[nearest] <= self.atol:
                return self.field.jets[nearest].derivative(xi).eval(x)
        if not self.field.points:
            return np.zeros(self.field.d)
        _, z = self.partition.weights(x)
        if z.size == 0 or z.sum() <= 0.0:
            # inside the collar around A below the grid resolution the
            # packing has no coverage; the nearest jet is the limit value
            return self.field.jets[nearest].derivative(xi).eval(x)
        out = np.zeros(self.field.d)
        sub_indices = [eta for m in range(0, xi.order + 1) for eta in xi_set(n, m)
                       if xi.dominates(eta)]
        for eta in sub_indices:
            idx, dz = self.partition.weight_deriv(x, eta)
            if idx.size == 0:
                continue
            rest = xi - eta
            coef = _multi_binom(xi, eta)
            for ci, w in zip(idx, dz):
                if w == 0.0:
                    continue
                P = self.field.jets[self.nearest[ci]]
                out += coef * w * P.derivative(rest).eval(x)
        return out

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
    worst = 0.0
    worst_pair = None
    for ia, ib, m, d, term in _pair_terms(F):
        q = term / d ** F.alpha
        if q > worst:
            worst, worst_pair = q, (F.points[ia], F.points[ib], m)
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
    arr = np.asarray(F.points, dtype=float)
    nearest = np.array([int(np.argmin(np.linalg.norm(arr - c[None, :], axis=1)))
                        for c in part.centers], dtype=int)
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
        for x, y in zip(xs, ys):
            num = 0.0
            for xi in top:
                num = max(num, float(np.max(np.abs(ext.eval(x, xi) - ext.eval(y, xi)))))
            best = max(best, num / sep ** F.alpha)
    c_impl = best / ext.kappa_F if ext.kappa_F > 0 else 0.0
    return best, c_impl
