"""Numerical check of the negative-order Poincare inequality.

Given a distribution T whose order-k derivatives are bounded against the
order-i seminorm by kappa on K, the jet P built by convolving derivatives
of T with the moment kernel satisfies

    |(D^xi T)(theta) - integral <theta, D^xi P>| <= Gamma_m kappa sup||D^i theta||

for test functions theta supported in the convex body C and |xi| = m < k,
with the fully explicit constant Gamma_m.  This module measures kappa
against a probe dictionary, evaluates Gamma_m exactly, constructs P, and
reports the ratio table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distribution import (Distribution, derivative, pair, pair_many,
                           polynomial_distribution)
from .jetestimator import kernel_pairings
from .momentkernel import MomentKernel
from .quadrature import QuadratureConfig
from .tensor import PolyJet, xi_set
from .testfn import ProbeDictionary

Ball = Tuple[Sequence[float], float]

SHRINK_STEPS = 3  # dyadic halvings of the shrinking family
SHRINK_MEMBERS = 8  # probes in the shrinking family


def unit_ball_volume(n: int) -> float:
    """Lebesgue measure of the unit ball: 2 for n=1, pi for n=2."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class KappaEstimate:
    value: float
    divergent: bool
    growth: Tuple[float, ...]  # sup ratio at each dyadic shrink of the family
    order_argmax: Tuple[int, ...]
    probe_argmax: str


def measure_kappa(T: Distribution, k: int, i: int, probes: ProbeDictionary,
                  K: Ball, config: QuadratureConfig = QuadratureConfig()) -> KappaEstimate:
    """Dictionary lower bound for sup |(D^o T)(phi)| / sup||D^i phi||, |o| = k.

    Probes (normalized at order i on the unit ball) are rescaled into K;
    rescaling to radius s multiplies the order-i seminorm by s^{-i}, so the
    measured pairing is compensated by s^i.  A shrinking family, the first
    SHRINK_MEMBERS probes, is run over the radius of K and three dyadic
    halvings of it: growth beyond sqrt(2) per halving on every step raises
    the divergence flag (kappa = infinity within resolution).  At the
    radius of K (radius * 2.0 ** 0 == radius) the family is the first
    family's first probes, whose values are read from there, not paired
    again.
    """
    if probes.i != i:
        raise ValueError("probe dictionary normalized at the wrong order")
    center = np.asarray(K[0], dtype=float).reshape(T.n)
    radius = float(K[1])
    orders = xi_set(T.n, k)
    best = 0.0
    best_o: Tuple[int, ...] = orders[0].entries
    best_label = ""
    deriv_Ts = [derivative(T, o) for o in orders]
    # the probes rescaled into K, then the halvings of the shrinking family
    # at the center of K
    families = [(radius, probes.members)] + [
        (radius * 2.0 ** (-t), probes.members[:SHRINK_MEMBERS])
        for t in range(1, SHRINK_STEPS + 1)]
    results = iter(pair_many([(To, member.rescale(center, s)) for s, members in families
                              for member in members for To in deriv_Ts], config))
    first = [abs(next(results).value) * radius ** i for _ in probes.members for _ in orders]
    for v, (member, o) in zip(first, itertools.product(probes.members, orders)):
        if v > best:
            best, best_o, best_label = v, o.entries, member.label
    levels = [max(first[:SHRINK_MEMBERS * len(orders)], default=0.0)] + [
        max([abs(next(results).value) * s ** i for _ in members for _ in orders], default=0.0)
        for s, members in families[1:]]
    growth = tuple(levels[t + 1] / levels[t] if levels[t] > 0 else 0.0
                   for t in range(SHRINK_STEPS))
    divergent = all(g > math.sqrt(2.0) for g in growth)
    return KappaEstimate(best, divergent, growth, best_o, best_label)


def gamma(m: int, k: int, n: int, i: int, r: float, diam_c: float,
          kernel: Optional[MomentKernel] = None,
          sup_norm: Optional[float] = None) -> float:
    """Gamma_m = (n alpha(n) sup||D^i Phi||)^{k-m} prod_{mu=1}^{k-m} (2 mu r + diam C)^{1+n+i}.

    Phi is the kernel rescaled to radius r with unit mass, so its order-i
    sup norm is the reference one multiplied by r^{-n-i}.  sup_norm
    overrides the kernel-provided value when given directly.
    """
    if not 0 <= m <= k - 1:
        raise ValueError(f"m must satisfy 0 <= m <= k-1, got m={m}, k={k}")
    if sup_norm is None:
        if kernel is None:
            raise ValueError("either a kernel or an explicit sup_norm is required")
        sup_norm = kernel.deriv_supnorm(i) * r ** (-n - i)
    base = n * unit_ball_volume(n) * sup_norm
    out = base ** (k - m)
    for mu in range(1, k - m + 1):
        out *= (2.0 * mu * r + diam_c) ** (1 + n + i)
    return out


@dataclass(frozen=True)
class RatioRow:
    m: int
    xi: Tuple[int, ...]
    theta_label: str
    numerator: float
    denominator: float
    ratio: float


@dataclass(frozen=True)
class PoincareReport:
    n: int
    k: int
    i: int
    point: Tuple[float, ...]
    C: Tuple[Tuple[float, ...], float]
    r: float
    kappa: float
    kappa_is_analytic: bool
    kappa_hat: Optional[float]
    jet: PolyJet
    rows: Tuple[RatioRow, ...]
    max_ratio: float
    underestimation_flag: bool  # ratio > 1 with a dictionary kappa only

    def csv_lines(self) -> List[str]:
        out = ["m,xi,theta,numerator,denominator,ratio"]
        for row in self.rows:
            out.append(f"{row.m},{'|'.join(map(str, row.xi))},{row.theta_label},"
                       f"{row.numerator:.17g},{row.denominator:.17g},{row.ratio:.17g}")
        return out


class DivergentKappaError(RuntimeError):
    """The measured kappa family diverges; the inequality has no content."""


def build_jet(T: Distribution, a, k: int, kernel: MomentKernel, r: float,
              config: QuadratureConfig = QuadratureConfig()) -> PolyJet:
    """Degree-(k-1) jet from kernel convolution: D^xi P(a) = (D^xi T)(Phi_r(. - a)),
    the one-radius case of ``kernel_pairings``; a quadrature budget hit raises."""
    a = np.asarray(a, dtype=float).reshape(T.n)
    if k < 1:
        return PolyJet.zero(T.n, T.d, a)
    values, _ = kernel_pairings(T, a, k - 1, kernel, [r], config, strict=True)
    return PolyJet(T.n, T.d, a, k - 1, values[0])


def verify(T: Distribution, k: int, i: int, a, kernel: MomentKernel,
           probes: ProbeDictionary, C: Optional[Ball] = None, r: float = 1.0,
           kappa: Optional[float] = None,
           config: QuadratureConfig = QuadratureConfig()) -> PoincareReport:
    """Ratio table for the inequality over probes rescaled into C.

    kappa, when given, is an analytic bound and the max ratio must not
    exceed 1; otherwise the dictionary estimate stands in and a ratio
    above 1 flags dictionary underestimation rather than failure.
    """
    a = np.asarray(a, dtype=float).reshape(T.n)
    if C is None:
        C = (tuple(a), 1.0)
    cc = np.asarray(C[0], dtype=float).reshape(T.n)
    cr = float(C[1])
    K: Ball = (tuple(cc), cr + k * r)
    est = measure_kappa(T, k, i, probes, K, config)
    if est.divergent and kappa is None:
        raise DivergentKappaError(
            f"shrinking-family growth {est.growth} exceeds the divergence gate")
    kap = kappa if kappa is not None else est.value
    jet = build_jet(T, a, k, kernel, r, config)
    thetas = [member.rescale(cc, cr) for member in probes.members]
    rows: List[RatioRow] = []
    max_ratio = 0.0
    for m in range(0, k):
        denom = gamma(m, k, T.n, i, r, 2.0 * cr, kernel=kernel) * kap * cr ** (-i)
        for xi in xi_set(T.n, m):
            Txi = derivative(T, xi)
            Pxi = polynomial_distribution(jet.derivative(xi))
            lhs = pair_many([(Txi, theta) for theta in thetas], config)
            for member, theta, res in zip(probes.members, thetas, lhs):
                rhs = pair(Pxi, theta, config).value
                numer = abs(res.value - rhs)
                ratio = numer / denom if denom > 0 else (0.0 if numer == 0 else math.inf)
                rows.append(RatioRow(m, xi.entries, member.label, numer, denom, ratio))
                max_ratio = max(max_ratio, ratio)
    return PoincareReport(
        T.n, k, i, tuple(map(float, a)), (tuple(map(float, cc)), cr), r,
        kap, kappa is not None, est.value, jet, tuple(rows), max_ratio,
        underestimation_flag=(kappa is None and max_ratio > 1.0))
