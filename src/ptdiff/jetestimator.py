"""Jet estimation and pointwise-order classification from scaled pairings.

Coefficients of the order-k jet at a point are recovered by pairing
derivatives of the distribution against a shrinking moment kernel; the
radius sequence is geometric and each coefficient sequence is accepted
only on a contracting window, then accelerated by Aitken extrapolation.
Classification tests the decay of the jet-subtracted pairing envelope
over a probe dictionary, with quadrature error bounds promoted to an
explicit noise floor so that unresolved radii never enter a verdict.

Both make vector pairings (see ``distribution.pair_many``): per radius,
``kernel_pairings`` pairs T with every derivative of the kernel at once
(for the jet estimate, and at one radius for ``poincare.build_jet``), and
classify pairs the remainder with every probe of one support ball at
once, each on one quadrature mesh with its own bound per component.
Probes with atoms on several balls stay pairings of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .distribution import Distribution, derivative, pair, pair_many, subtract_jet
from .momentkernel import MAX_DEGREE, MomentKernel, build_kernel
from .quadrature import QuadratureConfig
from .tensor import PolyJet, xi_set
from .testfn import ProbeDictionary, make_dictionary

CONFIRMED = "confirmed"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

CONTRACTION_RATIO = 0.75  # a coefficient's differences must shrink by this per level
MARGIN = 0.05  # slack on the fitted decay slope
NOISE_FACTOR = 10.0  # noise floor over the largest quadrature error bound
GROWTH_FACTOR = 2.0  # envelope growth over the usable radii that refutes a (k, alpha) claim
TRANSFER_JET_TOL = 1e-5  # largest jet deviation under differentiation


def scaled_pairing(T: Distribution, P: PolyJet, a, k: int, phi, r: float,
                   config: QuadratureConfig = QuadratureConfig(),
                   strict: bool = True):
    """r^{-k-n} (T - P)(phi((. - a) / r)) with the error bound scaled the same way."""
    if r <= 0:
        raise ValueError("radius must be positive")
    a = np.asarray(a, dtype=float).reshape(T.n)
    res = pair(subtract_jet(T, P), phi.rescale(a, float(r)), config, strict)
    s = float(r) ** (-(k + T.n))
    return replace(res, value=res.value * s, abs_error_bound=res.abs_error_bound * s)


@dataclass(frozen=True)
class JetConfig:
    """Radius schedule and acceptance thresholds for jet estimation."""

    r0: float = 0.5
    levels: Optional[int] = None  # default: 14 for n=1, 10 for n=2
    quad: QuadratureConfig = field(default_factory=lambda: QuadratureConfig(
        rel_tol=1e-11, abs_floor=1e-15, max_cells=2 ** 14))

    def level_count(self, n: int) -> int:
        return self.levels if self.levels is not None else (14 if n == 1 else 10)


@dataclass(frozen=True)
class CoefficientTrace:
    xi: Tuple[int, ...]
    radii: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]  # per radius, vector in R^d
    bounds: Tuple[float, ...]
    estimate: Tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class JetEstimate:
    jet: PolyJet
    traces: Dict[Tuple[int, ...], CoefficientTrace]
    converged: bool


def _accelerate(values: np.ndarray, ratio: float) -> Tuple[np.ndarray, bool]:
    """Aitken-extrapolated limit of a (levels, d) sequence.

    Accepts the end of the longest run of contracting differences; runs
    broken by rounding noise at small radii are left behind.  Fewer than
    three levels show no contraction: they converge only when all are 0.
    """
    levels = values.shape[0]
    diffs = np.max(np.abs(np.diff(values, axis=0)), axis=1)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    if levels < 3 or scale == 0.0:
        return values[-1].copy() if levels else values.sum(axis=0), scale == 0.0
    if np.all(diffs <= 1e2 * np.finfo(float).eps * scale):
        return values[-1].copy(), True
    runs: List[Tuple[int, int]] = []  # (start, end) inclusive in diff index
    start = None
    for t in range(1, len(diffs)):
        ok = diffs[t - 1] > 0 and diffs[t] <= ratio * diffs[t - 1]
        if ok:
            if start is None:
                start = t
        elif start is not None:
            runs.append((start, t - 1))
            start = None
    if start is not None:
        runs.append((start, len(diffs) - 1))
    if not runs:
        best = int(np.argmin(diffs))
        return values[best + 1].copy(), False
    end = min(runs, key=lambda se: diffs[se[1]])[1]
    v0, v1, v2 = values[end - 1], values[end], values[end + 1]
    denom = (v2 - v1) - (v1 - v0)
    out = v2.copy()
    for c in range(values.shape[1]):
        if abs(denom[c]) > 1e3 * np.finfo(float).eps * scale:
            out[c] = v2[c] - (v2[c] - v1[c]) ** 2 / denom[c]
    length = max(e - s + 1 for s, e in runs)
    return out, length >= 2


def kernel_pairings(T: Distribution, a, k: int, kernel: MomentKernel, radii,
                    config: QuadratureConfig, strict: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(D^xi T)(Phi_r(. - a) e_c) for each radius r, |xi| <= k and component c.

    (D^xi T)(Phi_r e_c) = (-1)^|xi| T(D^xi Phi_r e_c): per radius one vector
    pairing of T, its components every (xi, c), on one mesh, each with its
    own quadrature bound.  Returns the values (radii, N_k, d) and, per
    (radius, xi), the largest bound over c (radii, N_k), with the xi in
    ``tensor`` row order.
    """
    xis = [xi for m in range(k + 1) for xi in xi_set(T.n, m)]
    results = pair_many([(T, tuple(fn.derivative_view(xi) for xi in xis for fn in directed))
                         for directed in ([kernel.directed(a, float(r), T.d, c)
                                           for c in range(T.d)] for r in radii)],
                        config, strict)
    vb = np.array([[(res.value, res.abs_error_bound) for res in row] for row in results])
    vb = vb.reshape(len(radii), len(xis), T.d, 2)
    odd = np.array([xi.order % 2 == 1 for xi in xis])[:, None]
    # 0 - v, not -1 * v: a zero pairing stays +0.0
    return np.where(odd, 0.0 - vb[..., 0], vb[..., 0]), vb[..., 1].max(axis=2)


def estimate_jet(T: Distribution, a, k: int, kernel: Optional[MomentKernel] = None,
                 config: JetConfig = JetConfig()) -> JetEstimate:
    """Order-k jet of T at a: D^xi P(a) = lim_r (D^xi T)(kernel_r(. - a)),
    each coefficient accelerated over the radii of ``kernel_pairings``."""
    a = np.asarray(a, dtype=float).reshape(T.n)
    if k < 0:
        return JetEstimate(PolyJet.zero(T.n, T.d, a), {}, True)
    if kernel is None:
        kernel = build_kernel(T.n, min(max(k + 1, 2), MAX_DEGREE))
    radii = config.r0 * 2.0 ** (-np.arange(config.level_count(T.n)))
    values, bounds = kernel_pairings(T, a, k, kernel, radii, config.quad, strict=False)
    traces: Dict[Tuple[int, ...], CoefficientTrace] = {}
    for x, xi in enumerate(xi for m in range(k + 1) for xi in xi_set(T.n, m)):
        est, conv = _accelerate(values[:, x], CONTRACTION_RATIO)
        traces[xi.entries] = CoefficientTrace(
            xi.entries, tuple(map(float, radii)),
            tuple(tuple(map(float, row)) for row in values[:, x]),
            tuple(map(float, bounds[:, x])), tuple(map(float, est)), conv)
    jet = PolyJet(T.n, T.d, a, k, [t.estimate for t in traces.values()])
    return JetEstimate(jet, traces, all(t.converged for t in traces.values()))


@dataclass(frozen=True)
class ClassifierConfig:
    """Radius grid, probe dictionary, and verdict thresholds."""

    r0: float = 1.0
    levels: Optional[int] = None  # default: 18 for n=1, 12 for n=2
    confirm_floor: float = 1e-6
    dict_size: int = 10
    seed: int = 0
    quad: QuadratureConfig = field(default_factory=lambda: QuadratureConfig(
        rel_tol=1e-9, abs_floor=1e-15, max_cells=2 ** 12))
    jet_config: JetConfig = field(default_factory=JetConfig)

    def level_count(self, n: int) -> int:
        return self.levels if self.levels is not None else (18 if n == 1 else 12)


@dataclass(frozen=True)
class DecayReport:
    point: Tuple[float, ...]
    k: int
    alpha: Optional[float]
    verdict: str
    caveat: str  # confirmations are probe-relative, never absolute
    beta_hat: Optional[float]
    radii: Tuple[float, ...]
    envelope: Tuple[float, ...]
    noise: Tuple[float, ...]
    probe_labels: Tuple[str, ...]
    probe_values: Tuple[Tuple[float, ...], ...]  # (probe, radius)
    witnesses: Tuple[str, ...]
    jet: PolyJet
    scale: float

    def rows(self):
        """Decay table rows: (r, envelope, noise, per-probe values)."""
        for j, r in enumerate(self.radii):
            yield (r, self.envelope[j], self.noise[j],
                   tuple(col[j] for col in self.probe_values))


def _slope(r: np.ndarray, v: np.ndarray) -> float:
    """Least-squares slope of log v against log r."""
    lr = np.log(r)
    A = np.stack([lr, np.ones_like(lr)], axis=1)
    return float(np.linalg.lstsq(A, np.log(v), rcond=None)[0][0])


def _fit_slope(radii: np.ndarray, env: np.ndarray, usable: np.ndarray) -> Optional[float]:
    idx = np.nonzero(usable)[0]
    if idx.size < 3:
        return None
    # smallest usable radii carry the asymptotics; keep at most the lower half
    idx = idx[np.argsort(radii[idx])][: max(3, idx.size // 2 + 1)]
    return _slope(radii[idx], env[idx])


def classify(T: Distribution, a, k: int, alpha: Optional[float] = None,
             i: Optional[int] = None,
             probes: Optional[ProbeDictionary] = None,
             jet: Optional[PolyJet] = None,
             config: ClassifierConfig = ClassifierConfig()) -> DecayReport:
    """Verdict on pointwise differentiability of order k (or (k, alpha)) at a.

    The scaled pairing r^{-k-n} (T - P)(phi((. - a)/r)) is evaluated over a
    probe dictionary and a geometric radius grid; the envelope decay
    (log-log slope beta_hat over the usable radii) drives the verdict.
    With i given, probes are normalized against the order-i seminorm,
    implementing the seminorm variant of the definition.
    """
    a = np.asarray(a, dtype=float).reshape(T.n)
    if probes is None:
        probes = make_dictionary(T.n, T.d, i if i is not None else 0,
                                 config.dict_size, config.seed)
    if jet is None:
        jet = estimate_jet(T, a, k, config=config.jet_config).jet
    R = subtract_jet(T, jet)
    levels = config.level_count(T.n)
    radii = config.r0 * 2.0 ** (-np.arange(levels))
    expo = k + T.n + (alpha if alpha is not None else 0.0)
    nm = len(probes.members)
    V = np.zeros((nm, levels))
    B = np.zeros((nm, levels))
    # the probes whose atoms share one ball, per ball, are one vector
    # pairing per radius; every other probe is a pairing of its own
    groups: Dict[object, List[int]] = {}
    for m, member in enumerate(probes.members):
        groups.setdefault(member.ball or m, []).append(m)
    slots = [(ms, j) for j in range(levels) for ms in groups.values()]
    results = pair_many([(R, tuple(probes.members[m].rescale(a, float(radii[j])) for m in ms))
                         for ms, j in slots], config.quad, strict=False)
    for (ms, j), res in zip(slots, results):
        for m, one in zip(ms, res):
            V[m, j] = abs(one.value) * radii[j] ** (-expo)
            B[m, j] = one.abs_error_bound * radii[j] ** (-expo)
    env = V.max(axis=0)
    noise = NOISE_FACTOR * B.max(axis=0)
    scale = float(env.max())
    labels = tuple(p.label for p in probes.members)

    def report(verdict, beta, witnesses=()):
        caveat = "probe-relative" if verdict == CONFIRMED else ""
        return DecayReport(tuple(map(float, a)), k, alpha, verdict, caveat, beta,
                           tuple(map(float, radii)), tuple(map(float, env)),
                           tuple(map(float, noise)), labels,
                           tuple(tuple(map(float, row)) for row in V),
                           tuple(witnesses), jet, scale)

    if not (np.isfinite(env).all() and np.isfinite(noise).all()):
        # a pairing or its bound out of the float range: nothing to decide on
        return report(INCONCLUSIVE, None)
    if scale == 0.0 and float(B.max()) == 0.0:
        return report(CONFIRMED, None)
    # numerically exact vanishing at all small radii (e.g. supports that
    # separate); eps-level dust from the subtracted jet coefficients is
    # tolerated relative to the envelope scale
    dust_floor = 1e-10 * scale * (radii[0] / radii) ** expo
    tail_zero = 0
    for j in range(levels - 1, -1, -1):
        if env[j] <= noise[j] and env[j] <= dust_floor[j]:
            tail_zero += 1
        else:
            break
    if tail_zero >= 3:
        return report(CONFIRMED, None)

    usable = env > np.maximum(noise, config.confirm_floor * scale * 1e-6)
    if not usable.any():
        # every scaled pairing sits below the quadrature noise floor: the
        # residual is indistinguishable from zero at this resolution
        return report(CONFIRMED, None)
    beta = _fit_slope(radii, env, usable)

    # refutation witnesses: probes whose scaled values persist at the
    # smallest resolved radii with no decay trend
    small_third = np.argsort(radii)[: max(3, levels // 3)]
    witnesses = []
    # probe values already carry the full scaling exponent (including alpha),
    # so non-decay means slope near zero for a plain order and growth (negative
    # slope) for a (k, alpha) claim
    target_slope = MARGIN if alpha is None else -MARGIN
    for m in range(nm):
        jj = [j for j in small_third if V[m, j] > max(noise[j], config.confirm_floor * scale)]
        if len(jj) >= 3 and _slope(radii[jj], V[m, jj]) <= target_slope:
            witnesses.append(labels[m])

    if alpha is None:
        decayed = env[-1] <= max(noise[-1], config.confirm_floor * scale)
        strong_decay = beta is not None and beta > MARGIN
        shrunk = env[np.argsort(radii)[0]] <= 0.1 * scale
        if (decayed or shrunk) and strong_decay and not witnesses:
            return report(CONFIRMED, beta)
        if witnesses:
            return report(REFUTED, beta, witnesses)
        return report(INCONCLUSIVE, beta)

    # (k, alpha): bounded scaled envelope, i.e. plain slope >= alpha
    if beta is not None and beta + MARGIN >= 0.0 and not witnesses:
        return report(CONFIRMED, beta)
    if witnesses:
        srt = np.argsort(radii)
        lo = next((j for j in srt if usable[j]), None)
        hi = next((j for j in srt[::-1] if usable[j]), None)
        grew = lo is not None and hi is not None and lo != hi and \
            env[lo] > GROWTH_FACTOR * env[hi]
        flat_low = beta is not None and beta + MARGIN < 0.0
        if grew or flat_low:
            return report(REFUTED, beta, witnesses)
    return report(INCONCLUSIVE, beta)


@dataclass(frozen=True)
class TransferReport:
    """Consistency of differentiability order and jets under differentiation.

    If T has order k+l at a, every D^o T with |o| = k must have order l
    there, and the order-l jet of D^o T is the interior multiplication of
    the order-(k+l) jet of T by e^o.  Both sides are classified and
    estimated independently; a violation marks a toolkit defect.
    """

    k: int
    l: int
    full_verdict: str
    derivative_verdicts: Dict[Tuple[int, ...], str]
    max_jet_deviation: float
    deviations: Dict[Tuple[int, ...], float]
    status: str  # consistent / violation / inconclusive


def check_derivative_transfer(T: Distribution, a, k: int, l: int = 0,
                              probes: Optional[ProbeDictionary] = None,
                              kernel: Optional[MomentKernel] = None,
                              config: ClassifierConfig = ClassifierConfig()) -> TransferReport:
    a = np.asarray(a, dtype=float).reshape(T.n)
    if k < 1 or l < 0:
        raise ValueError("need derivative order k >= 1 and jet order l >= 0")
    full_est = estimate_jet(T, a, k + l, kernel=kernel, config=config.jet_config)
    full = classify(T, a, k + l, probes=probes, jet=full_est.jet, config=config)
    verdicts: Dict[Tuple[int, ...], str] = {}
    deviations: Dict[Tuple[int, ...], float] = {}
    max_dev = 0.0
    any_inconclusive = full.verdict == INCONCLUSIVE
    violation = False
    for o in xi_set(T.n, k):
        To = derivative(T, o)
        est = estimate_jet(To, a, l, kernel=kernel, config=config.jet_config)
        rep = classify(To, a, l, probes=probes, jet=est.jet, config=config)
        verdicts[o.entries] = rep.verdict
        if rep.verdict == INCONCLUSIVE:
            any_inconclusive = True
        if full.verdict == CONFIRMED and rep.verdict == REFUTED:
            violation = True  # the order implication is unconditional
        if full.verdict == CONFIRMED and rep.verdict == CONFIRMED:
            # both jets have degree l
            derived = full_est.jet.derivative(o).truncate(l)
            dev = float(np.max(np.abs(derived.coeffs - est.jet.coeffs)))
            deviations[o.entries] = dev
            max_dev = max(max_dev, dev)
            if dev > TRANSFER_JET_TOL:
                violation = True
    if violation:
        status = "violation"
    elif any_inconclusive:
        status = "inconclusive"
    else:
        status = "consistent"
    return TransferReport(k, l, full.verdict, verdicts, max_dev, deviations, status)
